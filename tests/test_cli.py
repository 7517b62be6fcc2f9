import base64
import gc
import json
import os
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import taxonet
from taxonet import cli, features, forking, induction
from taxonet.cli import main
from taxonet.features import FeatureMode, FeatureSpec
from taxonet.graph import EdgeKind, NodeKind
from taxonet.classifier import TrainConfig, load_model, save_model
from taxonet.induction import InductionConfig
from taxonet.projection import ProjectionConfig
from taxonet import load_taxonomy

from conftest import record_vocabulary_builds
from oracles import reference_model_text
from worldgen import build_world


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out


def run_err(capsys, *argv):
    """Like run, but returns standard error instead of standard output."""
    code = main(list(argv))
    return code, capsys.readouterr().err


def project_args(paths, out, **extra):
    argv = [
        "project",
        "--nodes", str(paths["nodes"]),
        "--edges", str(paths["edges"]),
        "--langlinks", str(paths["langlinks"]),
        "--source-taxonomy", str(paths["source_taxonomy"]),
        "--out", str(out),
    ]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    return argv


@pytest.fixture(scope="module")
def world_files(tmp_path_factory):
    dirpath = tmp_path_factory.mktemp("world")
    world = build_world(seed=21, families=4)
    paths = world.write(dirpath)
    return world, paths


class TestProject:
    def test_writes_taxonomy_and_report(self, fig1, tmp_path, capsys):
        out = tmp_path / "projected.tsv"
        code, _ = run(capsys, *project_args(fig1, out))
        assert code == 0
        taxo = load_taxonomy(out)
        assert taxo.edge_pairs() == {
            ("Auguste", "Empereur romain"),
            ("Empereur romain", "Empereur"),
        }
        report = json.loads((tmp_path / "projected.tsv.report.json").read_text())
        assert report["k1"] == 14 and report["k2"] == 3
        assert report["edges_added"] == 2

    def test_missing_flag_is_usage_error(self, capsys):
        code, _ = run(capsys, "project", "--nodes", "x.tsv")
        assert code == 2

    def test_missing_file(self, fig1, tmp_path, capsys):
        argv = project_args(fig1, tmp_path / "o.tsv")
        argv[2] = str(tmp_path / "absent.tsv")
        code, _ = run(capsys, *argv)
        assert code == 2

    def test_config_file_and_override(self, fig1, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k2": 1}), encoding="utf-8")
        out = tmp_path / "o.tsv"
        code, _ = run(capsys, *project_args(fig1, out, config=cfg))
        assert code == 0
        report = json.loads((tmp_path / "o.tsv.report.json").read_text())
        assert report["k2"] == 1
        # path now exceeds k2=1, so only 1-hop paths could be added;
        # Auguste's 2-hop path to Empereur is out of reach
        assert report["edges_added"] == 0
        code, _ = run(capsys, *project_args(fig1, out, config=cfg, k2=3))
        report = json.loads((tmp_path / "o.tsv.report.json").read_text())
        assert code == 0 and report["k2"] == 3 and report["edges_added"] == 2

    def test_unknown_config_key(self, fig1, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k9": 1}), encoding="utf-8")
        code, _ = run(capsys, *project_args(fig1, tmp_path / "o.tsv", config=cfg))
        assert code == 2


def train_args(paths, projected, out_dir, mode="char", **extra):
    argv = [
        "train",
        "--nodes", str(paths["nodes"]),
        "--edges", str(paths["edges"]),
        "--projected", str(projected),
        "--mode", mode,
        "--out-dir", str(out_dir),
    ]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


@pytest.fixture(scope="module")
def trained_world(world_files, tmp_path_factory):
    world, paths = world_files
    dirpath = tmp_path_factory.mktemp("models")
    projected = dirpath / "projected.tsv"
    assert main(project_args(paths, projected)) == 0
    out_dir = dirpath / "char"
    assert main(train_args(paths, projected, out_dir, mode="char", seed=5)) == 0
    return world, paths, projected, out_dir


class TestTrain:
    def test_char_run_emits_models_and_metrics(self, trained_world):
        _, _, _, out_dir = trained_world
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "metrics.cc.json", "metrics.ec.json", "model.cc.json", "model.ec.json",
        ]
        for name in ("ec", "cc"):
            model = load_model(out_dir / f"model.{name}.json")
            assert model.tfidf.spec.mode is FeatureMode.CHAR_NGRAM
            metrics = json.loads((out_dir / f"metrics.{name}.json").read_text())
            assert set(metrics) >= {"train_acc", "val_acc", "n_train", "n_val", "seed"}
            assert metrics["seed"] == 5
            assert 0.0 <= metrics["train_acc"] <= 1.0

    def test_word_mode_recorded_in_model_file(self, trained_world, tmp_path, capsys):
        _, paths, projected, _ = trained_world
        out_dir = tmp_path / "word"
        code, _ = run(capsys, *train_args(paths, projected, out_dir, mode="word", seed=5))
        assert code == 0
        model = load_model(out_dir / "model.ec.json")
        assert model.tfidf.spec.mode is FeatureMode.WORD

    def test_empty_projected_fails(self, world_files, tmp_path, capsys):
        # Both kinds are single-class; ec is checked first.
        _, paths = world_files
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        code, err = run_err(capsys, *train_args(paths, empty, tmp_path / "m"))
        assert code == 2
        assert err.splitlines()[-1] == (
            "error: ec: need both labels to train; check the projected taxonomy"
        )
        assert list((tmp_path / "m").iterdir()) == []

    def test_cc_single_class_writes_no_model(self, trained_world, tmp_path, capsys):
        # Projected entity edges only: no category child is covered, so the
        # cc dataset has no label at all. Both kinds are checked before
        # either trains, so not even the ec model is written.
        world, paths, projected, _ = trained_world
        ec_only = tmp_path / "ec_only.tsv"
        ec_only.write_text("".join(
            line for line in projected.read_text(encoding="utf-8").splitlines(keepends=True)
            if world.graph.nodes[line.split("\t")[0]].kind is NodeKind.ENTITY
        ), encoding="utf-8")
        code, err = run_err(capsys, *train_args(paths, ec_only, tmp_path / "m"))
        assert code == 2
        assert err.splitlines()[-1] == (
            "error: cc: need both labels to train; check the projected taxonomy"
        )
        assert list((tmp_path / "m").iterdir()) == []

    def test_error_in_cc_child_exits_2(self, trained_world, tmp_path, capsys):
        # Some n-gram is in 23+ of ec's 65 training titles, none in 20 of
        # cc's 24, so only cc's vocabulary comes out empty; it is fitted in
        # the forked child and its error must cross back unchanged.
        _, paths, projected, _ = trained_world
        out_dir = tmp_path / "m"
        code, err = run_err(capsys, *train_args(paths, projected, out_dir, seed=5, min_df=20))
        assert code == 2
        assert err == "error: no feature reached min_df=20 over 24 titles\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["metrics.ec.json", "model.ec.json"]

    def test_save_error_exits_2(self, trained_world, tmp_path, capsys):
        # A directory where ec's model file goes fails ec's save; no metrics
        # may be written for the unsaved model, while cc's files are, and no
        # temporary file is left behind.
        _, paths, projected, _ = trained_world
        out_dir = tmp_path / "m"
        (out_dir / "model.ec.json").mkdir(parents=True)
        code, err = run_err(capsys, *train_args(paths, projected, out_dir, seed=5))
        assert code == 2
        assert err == f"error: [Errno 21] Is a directory: '{out_dir / 'model.ec.json'}'\n"
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "metrics.cc.json", "model.cc.json", "model.ec.json",
        ]

    def test_config_number_may_be_an_integer(self, trained_world, tmp_path, capsys):
        _, paths, projected, _ = trained_world
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"l2_lambda": 0, "epochs": 2}), encoding="utf-8")
        argv = train_args(paths, projected, tmp_path / "m", config=cfg)
        assert run(capsys, *argv)[0] == 0
        data = json.loads((tmp_path / "m" / "model.ec.json").read_text(encoding="utf-8"))
        assert data["config"]["epochs"] == 2
        assert repr(data["config"]["l2_lambda"]) == "0"  # passed through, not made 0.0

    def test_network_freed_before_fork(self, trained_world, tmp_path, capsys, monkeypatch):
        # Each job reads its own edges' titles, so neither process of the
        # pair holds the category network.
        _, paths, projected, out_dir = trained_world
        refs = []

        def load_wcn(*args):
            graph = real_load_wcn(*args)
            refs.append(weakref.ref(graph))
            return graph

        def run_pair(first, second):
            assert [ref() for ref in refs] == [None]
            return first(), second()

        real_load_wcn = cli.load_wcn
        monkeypatch.setattr(cli, "load_wcn", load_wcn)
        monkeypatch.setattr(forking, "run_pair", run_pair)
        code, _ = run(capsys, *train_args(paths, projected, tmp_path / "m", seed=5))
        assert code == 0
        for name in ("model.ec.json", "model.cc.json", "metrics.ec.json", "metrics.cc.json"):
            assert (tmp_path / "m" / name).read_bytes() == (out_dir / name).read_bytes()

    def test_vocabulary_released_before_sgd(self, trained_world, tmp_path, capsys, monkeypatch):
        # SGD and scoring read only cached title vectors, so each job caches
        # every title of its train and validation edges and drops the
        # vocabulary `fit_tfidf` built before it trains. SGD then vectorizes
        # no title and builds no vocabulary; a read of `vocabulary` after it
        # builds a new dict, from the lines.
        _, paths, projected, out_dir = trained_world
        fitted, kinds, vectorized, builds = [], [], [], []

        def fit_tfidf(*args):
            tfidf = real_fit_tfidf(*args)
            fitted.append(tfidf.vocabulary)
            return tfidf

        def train_linear(dataset, tfidf, cfg, titles):
            done, built = len(vectorized), len(builds)
            result = real_train_linear(dataset, tfidf, cfg, titles)
            assert (len(vectorized), len(builds)) == (done, built)
            vocabulary = tfidf.vocabulary
            assert vocabulary == fitted[-1] and vocabulary is not fitted[-1]
            kinds.append(dataset.kind)
            return result

        def vectorize(*args):
            vectorized.append(args)
            return real_vectorize(*args)

        real_fit_tfidf, real_train_linear = cli.fit_tfidf, cli.train_linear
        real_vectorize = features._vectorize
        record_vocabulary_builds(monkeypatch, builds)
        monkeypatch.setattr(cli, "fit_tfidf", fit_tfidf)
        monkeypatch.setattr(cli, "train_linear", train_linear)
        monkeypatch.setattr(features, "_vectorize", vectorize)
        monkeypatch.setattr(forking, "run_pair", lambda first, second: (first(), second()))
        code, _ = run(capsys, *train_args(paths, projected, tmp_path / "m", seed=5))
        assert code == 0
        assert kinds == list(EdgeKind)
        for name in ("model.ec.json", "model.cc.json", "metrics.ec.json", "metrics.cc.json"):
            assert (tmp_path / "m" / name).read_bytes() == (out_dir / name).read_bytes()

    def test_ec_error_wins_over_cc_error(self, trained_world, tmp_path, capsys):
        _, paths, projected, _ = trained_world
        code, err = run_err(capsys, *train_args(paths, projected, tmp_path / "m", seed=5,
                                                min_df=30))
        assert code == 2
        assert err == "error: no feature reached min_df=30 over 65 titles\n"


def induce_args(paths, projected, models_dir, out, **extra):
    argv = [
        "induce",
        "--nodes", str(paths["nodes"]),
        "--edges", str(paths["edges"]),
        "--projected", str(projected),
        "--model-ec", str(models_dir / "model.ec.json"),
        "--model-cc", str(models_dir / "model.cc.json"),
        "--out", str(out),
    ]
    for key, value in extra.items():
        if value is None:
            argv.append(f"--{key.replace('_', '-')}")
        else:
            argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


class TestInduce:
    def test_report_fields(self, trained_world, tmp_path, capsys):
        _, paths, projected, models = trained_world
        out = tmp_path / "final.tsv"
        code, _ = run(capsys, *induce_args(paths, projected, models, out, k=1))
        assert code == 0
        report = json.loads((tmp_path / "final.tsv.report.json").read_text())
        assert report["k"] == 1 and report["uniform"] is False
        assert 0.0 <= report["entity_coverage"] <= 1.0
        assert isinstance(report["uncovered"], list)
        final = load_taxonomy(out)
        projected_taxo = load_taxonomy(projected)
        assert projected_taxo.edge_pairs() <= final.edge_pairs()

    def test_uniform_ignores_models(self, trained_world, tmp_path, capsys):
        _, paths, projected, models = trained_world
        out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        argv = induce_args(paths, projected, models, out_a, uniform=None)
        assert run(capsys, *argv)[0] == 0
        # swap the two models; with --uniform the output must not change
        swapped = [
            s.replace("model.ec.json", "model.XX.json")
             .replace("model.cc.json", "model.ec.json")
             .replace("model.XX.json", "model.cc.json")
            for s in induce_args(paths, projected, models, out_b, uniform=None)
        ]
        assert run(capsys, *swapped)[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("uniform", [False, True])
    def test_one_model_at_a_time(self, trained_world, tmp_path, capsys, monkeypatch, uniform):
        # The ec model is freed once the ec edges are weighed, before the cc
        # model loads. `LinearEdgeModel` is a named tuple, which takes no
        # weak reference, so each model's TfidfModel stands in for it.
        _, paths, projected, models = trained_world
        refs = []

        def load_model(*args):
            if refs:
                gc.collect()
                assert [ref() for ref in refs] == [None]
            model = real_load_model(*args)
            refs.append(weakref.ref(model.tfidf))
            return model

        real_load_model = cli.load_model
        monkeypatch.setattr(cli, "load_model", load_model)
        flags = {"uniform": None} if uniform else {}
        out = tmp_path / "final.tsv"
        assert run(capsys, *induce_args(paths, projected, models, out, k=2, **flags))[0] == 0
        assert len(refs) == 2

    @staticmethod
    def induce_events(trained_world, tmp_path, capsys, monkeypatch, flags):
        """Run `induce`, which must write what it writes unwatched, and
        return what it did in order: each model file read, the network
        loaded, each vocabulary built and each fork."""
        _, paths, projected, models = trained_world
        expected = tmp_path / "expected.tsv"
        assert run(capsys, *induce_args(paths, projected, models, expected, **flags))[0] == 0
        events = []

        def load_model(path, kind):
            model = real_load_model(path, kind)
            events.append(Path(path).name)
            return model

        def load_wcn(*args):
            graph = real_load_wcn(*args)
            events.append("load_wcn")
            return graph

        def run_pair(first, second):
            events.append("fork")
            return first(), second()

        real_load_model, real_load_wcn = cli.load_model, cli.load_wcn
        record_vocabulary_builds(monkeypatch, events)
        monkeypatch.setattr(cli, "load_model", load_model)
        monkeypatch.setattr(cli, "load_wcn", load_wcn)
        monkeypatch.setattr(forking, "run_pair", run_pair)
        out = tmp_path / "final.tsv"
        assert run(capsys, *induce_args(paths, projected, models, out, **flags))[0] == 0
        assert out.read_bytes() == expected.read_bytes()
        return events

    @pytest.mark.parametrize("uniform", [False, True])
    def test_ec_model_read_before_network(self, trained_world, tmp_path, capsys, monkeypatch,
                                          uniform):
        # The ec model file is parsed first. Each model's vocabulary is built
        # in this process once the network is loaded, by the first title it
        # vectorizes, and only once; under --uniform never. Each kind has
        # fewer search edges than `_FORK_EDGES`, so nothing forks.
        flags = {"uniform": None} if uniform else {}
        events = self.induce_events(trained_world, tmp_path, capsys, monkeypatch, flags)
        if uniform:
            assert events == ["model.ec.json", "load_wcn", "model.cc.json"]
        else:
            assert events == ["model.ec.json", "load_wcn", "vocabulary",
                              "model.cc.json", "vocabulary"]

    def test_vocabulary_built_before_the_fork(self, trained_world, tmp_path, capsys, monkeypatch):
        # Every list forks with the constant lowered, and each model's
        # vocabulary is built right before its fork, so the child inherits it.
        monkeypatch.setattr(induction, "_FORK_EDGES", 1)
        events = self.induce_events(trained_world, tmp_path, capsys, monkeypatch, {})
        assert events == ["model.ec.json", "load_wcn", "vocabulary", "fork",
                          "model.cc.json", "vocabulary", "fork"]

    def test_k2_output_superset_of_k1(self, trained_world, tmp_path, capsys):
        _, paths, projected, models = trained_world
        out1, out2 = tmp_path / "k1.tsv", tmp_path / "k2.tsv"
        assert run(capsys, *induce_args(paths, projected, models, out1, k=1))[0] == 0
        assert run(capsys, *induce_args(paths, projected, models, out2, k=2))[0] == 0
        assert load_taxonomy(out1).edge_pairs() <= load_taxonomy(out2).edge_pairs()


@pytest.mark.parametrize("name", ["model.ec.json", "model.cc.json"])
def test_model_file_round_trip_bytes(trained_world, tmp_path, monkeypatch, name):
    # Written from the lines the features were parsed into: no vocabulary is built.
    _, _, _, out_dir = trained_world
    events = []
    record_vocabulary_builds(monkeypatch, events)
    model = load_model(out_dir / name)
    save_model(model, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (out_dir / name).read_bytes()
    assert events == []


@pytest.mark.parametrize("name", ["model.ec.json", "model.cc.json"])
def test_model_file_writer_equals_one_dumps(trained_world, tmp_path, name):
    _, _, _, out_dir = trained_world
    model = load_model(out_dir / name)
    save_model(model, tmp_path / name)
    assert (tmp_path / name).read_bytes() == reference_model_text(model).encode("utf-8")


def reencoded(data, i, edit):
    """Apply `edit` to the list of weights a model's i-th weight string
    holds, and encode it again."""
    raw = base64.b64decode(data["weights"][i], validate=True)
    weights = list(struct.unpack("<%dd" % (len(raw) // 8), raw))
    edit(weights)
    data["weights"][i] = base64.b64encode(struct.pack("<%dd" % len(weights), *weights)).decode()


def relined(tfidf, edit):
    """Apply `edit` to the list of a `tfidf` object's feature lines, whose
    first `_line_blocks` block it gets as a second argument; join them again."""
    lines = tfidf["features"].split("\n")
    edit(lines, len(next(features._line_blocks(tfidf["features"]))))
    tfidf["features"] = "\n".join(lines)


def add_line(tfidf, line="\uffff"):
    """Append a feature line to a `tfidf` object: by default one that sorts
    after every feature `train` writes, which are lowercase n-grams."""
    tfidf["features"] += "\n" + line


class TestBadInput:
    @pytest.mark.parametrize("name", ["nodes", "edges"])
    def test_crlf_line_ends_rejected(self, world_files, tmp_path, capsys, name):
        _, paths = world_files
        bad = tmp_path / f"{name}.tsv"
        bad.write_bytes(paths[name].read_bytes().replace(b"\n", b"\r\n"))
        argv = project_args({**paths, name: bad}, tmp_path / "o.tsv")
        code, err = run_err(capsys, *argv)
        assert code == 2
        assert f"{bad}:1: line ends in CR" in err

    def test_byte_order_mark_rejected(self, world_files, tmp_path, capsys):
        _, paths = world_files
        bad = tmp_path / "langlinks.tsv"
        bad.write_bytes(b"\xef\xbb\xbf" + paths["langlinks"].read_bytes())
        argv = project_args({**paths, "langlinks": bad}, tmp_path / "o.tsv")
        code, err = run_err(capsys, *argv)
        assert code == 2
        assert f"{bad}:1: file starts with a UTF-8 byte order mark" in err

    # Lines on both sides of the text reader's first 8 KiB chunk; the
    # second bad byte on line 1,999 must not be the one reported.
    @pytest.mark.parametrize("line_no", [1, 3, 1500])
    def test_invalid_utf8_names_file_and_line(self, world_files, tmp_path, capsys, line_no):
        _, paths = world_files
        lines = [f"n{i}\tentity\tTitle {i}\n".encode() for i in range(1, 2001)]
        for bad_line in (line_no, 1999):
            lines[bad_line - 1] = lines[bad_line - 1].replace(b"\n", b"\xff\n")
        bad = tmp_path / "nodes.tsv"
        bad.write_bytes(b"".join(lines))
        code, err = run_err(capsys, *project_args({**paths, "nodes": bad}, tmp_path / "o.tsv"))
        assert (code, err) == (2, f"error: {bad}:{line_no}: invalid UTF-8\n")

    # A row that breaks a rule of the class that holds the file's contents
    # (`WcnGraph`, `InterlangMap`, `GoldEdgeSet`) is named by file and line.
    @pytest.mark.parametrize("name, row, message", [
        ("edges", "Rome\tRome", "self-loop on node: 'Rome'"),
        ("edges", "Rome\tLatium", "edge references unknown node: 'Rome' -> 'Latium'"),
        ("edges", "Rome\tAuguste", "forbidden edge kind (category->entity): 'Rome' -> 'Auguste'"),
        ("nodes", "Empereur\tcategory\tKaiser", "duplicate node id: 'Empereur'"),
        ("langlinks", "Rome\tPeople",
         "node appears in more than one interlanguage link: 'People'"),
        ("gold", "Rome\tEmpereur\tnotisa", "judged edge child 'Rome' not in sampled nodes"),
    ], ids=["self-loop", "unknown-node", "forbidden-kind", "duplicate-node", "two-links",
            "unsampled-child"])
    def test_broken_rule_names_file_and_line(self, fig1, tmp_path, capsys, name, row, message):
        (tmp_path / "nodes.txt").write_text("Auguste\n", encoding="utf-8")
        fig1["gold"] = tmp_path / "gold.tsv"
        fig1["gold"].write_text("Auguste\tEmpereur romain\tisa\n", encoding="utf-8")
        with open(fig1[name], "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        line_no = len(fig1[name].read_text(encoding="utf-8").splitlines())
        if name == "gold":
            argv = ["evaluate", "edges", "--taxonomy", str(fig1["source_taxonomy"]),
                    "--gold", str(fig1["gold"]), "--nodes-file", str(tmp_path / "nodes.txt")]
        else:
            argv = project_args(fig1, tmp_path / "o.tsv")
        code, err = run_err(capsys, *argv)
        assert (code, err) == (2, f"error: {fig1[name]}:{line_no}: {message}\n")

    @staticmethod
    def induce_with_edited_model(trained_world, tmp_path, capsys, edit):
        """Run `induce` with `edit` applied to the ec model file's JSON;
        it must exit 2 naming that file. Returns standard error."""
        _, paths, projected, models = trained_world
        data = json.loads((models / "model.ec.json").read_text(encoding="utf-8"))
        edit(data)
        (tmp_path / "model.cc.json").write_bytes((models / "model.cc.json").read_bytes())
        (tmp_path / "model.ec.json").write_text(json.dumps(data), encoding="utf-8")
        code, err = run_err(capsys, *induce_args(paths, projected, tmp_path, tmp_path / "o.tsv"))
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'model.ec.json'}: bad model file")
        return err

    # Explicit ids, so a case keeps its name when another is added or removed.
    # They are the positional ids these cases had before; a new case takes a
    # name that says what it breaks.
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda d: d.pop("tfidf"), id="<lambda>0"),
        pytest.param(lambda d: d.update(bias="high"), id="<lambda>1"),
        pytest.param(lambda d: d.update(weights=7), id="<lambda>2"),
        pytest.param(lambda d: d["config"].update(momentum=0.9), id="<lambda>3"),
        pytest.param(lambda d: d.pop("kind"), id="<lambda>4"),
        pytest.param(lambda d: d.update(kind="ce"), id="<lambda>5"),
        # 8 bytes, one weight, more or fewer.
        pytest.param(lambda d: reencoded(d, 0, lambda ws: ws.append(0.0)), id="<lambda>6"),
        pytest.param(lambda d: reencoded(d, 1, list.pop), id="<lambda>7"),
        pytest.param(lambda d: d["weights"].append(d["weights"][1]), id="<lambda>8"),  # three strings
        # A weight's text: "." is no base64 digit.
        pytest.param(lambda d: d["weights"].__setitem__(0, "1.5" + d["weights"][0][3:]),
                     id="<lambda>9"),
        pytest.param(lambda d: d["weights"].__setitem__(0, True), id="<lambda>10"),
        pytest.param(lambda d: d.update(bias="0.5"), id="<lambda>11"),
        pytest.param(lambda d: d.update(bias=float("nan")), id="<lambda>12"),
        pytest.param(lambda d: d.update(bias=10**400), id="<lambda>13"),  # overflows a float
        pytest.param(lambda d: reencoded(d, 1, lambda ws: ws.__setitem__(0, float("nan"))),
                     id="<lambda>14"),
        pytest.param(lambda d: reencoded(d, 1, lambda ws: ws.__setitem__(0, float("inf"))),
                     id="<lambda>15"),
        pytest.param(lambda d: reencoded(d, 1, lambda ws: ws.__setitem__(-1, float("-inf"))),
                     id="<lambda>16"),
        pytest.param(lambda d: d.update(bias=True), id="<lambda>18"),
        pytest.param(lambda d: d["weights"].pop(), id="<lambda>19"),  # one string
        pytest.param(lambda d: d["weights"].__setitem__(1, "ab"), id="<lambda>20"),  # unpadded
        pytest.param(lambda d: d.update(weights={"0": 1.0}), id="<lambda>21"),
        pytest.param(lambda d: d.update(bias=float("-inf")), id="<lambda>22"),
        pytest.param(lambda d: d["weights"].__setitem__(0, {}), id="<lambda>23"),
        # Mistyped config values that `--config` rejects loaded and were written back.
        pytest.param(lambda d: d["config"].update(epochs=10.5), id="config-epochs-float"),
        pytest.param(lambda d: d["config"].update(epochs=True), id="config-epochs-bool"),
        pytest.param(lambda d: d["config"].update(seed=True), id="config-seed-bool"),
        # Missing keys loaded as TrainConfig's defaults, and were written back.
        pytest.param(lambda d: [d["config"].pop(k) for k in ("epochs", "seed")],
                     id="config-missing-keys"),
        # Features out of ascending order loaded, each with another column.
        pytest.param(lambda d: relined(d["tfidf"], lambda ls, _: ls.insert(1, ls.pop(0))),
                     id="features-out-of-order"),
        # A newline separates two features, so one more gives one line more than df.
        pytest.param(lambda d: add_line(d["tfidf"], ""), id="feature-holds-newline"),
        # A space, which a decoder that skips what is no base64 digit would drop.
        pytest.param(lambda d: d["weights"].__setitem__(
            0, d["weights"][0][:8] + " " + d["weights"][0][8:]), id="weights-space-in-base64"),
        pytest.param(lambda d: d["weights"].__setitem__(1, d["weights"][1][:-1]),
                     id="weights-bad-base64-padding"),
        pytest.param(lambda d: d["weights"].__setitem__(0, "é" + d["weights"][0][1:]),
                     id="weights-non-ascii"),
        # 8 * V - 1 bytes.
        pytest.param(lambda d: d["weights"].__setitem__(
            0, base64.b64encode(base64.b64decode(d["weights"][0])[:-1]).decode()),
                     id="weights-not-whole-doubles"),
    ])
    def test_broken_model_file(self, trained_world, tmp_path, capsys, edit):
        self.induce_with_edited_model(trained_world, tmp_path, capsys, edit)

    # Features are checked block by block, each block's first line against
    # the line before it; with 256-character blocks, the file's fill several.
    # The first line after the first block becomes a proper prefix of the line
    # before it (out of order) or that line itself (repeated).
    @pytest.mark.parametrize("cut", [1, 0], ids=["out-of-order", "repeated"])
    def test_features_fault_at_block_border(self, trained_world, tmp_path, capsys, monkeypatch,
                                            cut):
        monkeypatch.setattr(features, "_BLOCK", 256)
        border = []

        def edit(lines, k):
            assert 1 < k < len(lines)
            lines[k] = lines[k - 1][: len(lines[k - 1]) - cut]
            border.append((k, lines[k - 1], lines[k]))

        err = self.induce_with_edited_model(
            trained_world, tmp_path, capsys, lambda d: relined(d["tfidf"], edit))
        ((k, before, after),) = border
        assert err.endswith(f": features must be unique and ascending: {after!r} "
                            f"follows {before!r} at column {k}\n")

    def test_weights_fault_reported_before_tfidf_fault(self, trained_world, tmp_path, capsys):
        # The weights are decoded before the `tfidf` object is checked.
        def edit(data):
            reencoded(data, 0, lambda ws: ws.__setitem__(0, float("nan")))
            data["tfidf"]["features"] += "\nzz"
        err = self.induce_with_edited_model(trained_world, tmp_path, capsys, edit)
        assert err.endswith(": bad model file: ValueError: weight must be finite, got nan\n")

    def test_model_file_in_the_earlier_layout(self, trained_world, tmp_path, capsys):
        # Weights as lists of numbers and features as a list: the layout
        # written before weights were base64 and features one string.
        def edit(data):
            for i, encoded in enumerate(data["weights"]):
                raw = base64.b64decode(encoded)
                data["weights"][i] = list(struct.unpack("<%dd" % (len(raw) // 8), raw))
            data["tfidf"]["features"] = data["tfidf"]["features"].split("\n")
        err = self.induce_with_edited_model(trained_world, tmp_path, capsys, edit)
        assert err == (f"error: {tmp_path / 'model.ec.json'}: bad model file: it predates the "
                       "current format (weights as lists of numbers, features as a list); "
                       "retrain it with `taxonet train`\n")

    # Explicit ids, as in `test_broken_model_file`.
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda d: d.pop("n_docs"), id="<lambda>0"),
        pytest.param(lambda d: d["spec"].update(mode="phoneme"), id="<lambda>1"),
        pytest.param(lambda d: d.update(features=[["ab"]]), id="<lambda>2"),
        pytest.param(lambda d: d["df"].__setitem__(0, -1), id="<lambda>3"),  # idf divides by 1 + df
        pytest.param(lambda d: d["spec"].update(lowercase="no"), id="<lambda>4"),
        pytest.param(lambda d: d["spec"].update(ngram_sizes=[2, 2.5]), id="<lambda>5"),
        pytest.param(lambda d: d.update(n_docs=1.5), id="<lambda>6"),
        pytest.param(lambda d: d.update(n_docs=10**400), id="<lambda>7"),  # idf overflows a float
        # Falsy sizes are not the default sizes.
        pytest.param(lambda d: d["spec"].update(ngram_sizes=[]), id="<lambda>8"),
        pytest.param(lambda d: d["spec"].update(ngram_sizes=False), id="<lambda>9"),
        pytest.param(lambda d: d["spec"].update(ngram_sizes=0), id="<lambda>10"),
        pytest.param(lambda d: d["spec"].update(ngram_sizes=""), id="<lambda>11"),
        pytest.param(lambda d: d["spec"].update(ngram_sizes={}), id="<lambda>12"),
        pytest.param(lambda d: d["spec"].update(ngram_sizes=None), id="<lambda>13"),
        pytest.param(lambda d: d["spec"].update(ngram_sizes=[0, 2]), id="<lambda>14"),
        pytest.param(lambda d: d["spec"].update(mode="word"), id="<lambda>15"),  # word mode writes null sizes
        pytest.param(lambda d: d.update(features=5), id="<lambda>16"),
        pytest.param(lambda d: (add_line(d), d["df"].append(1.5)), id="<lambda>17"),
        pytest.param(lambda d: (add_line(d), d["df"].append(True)), id="<lambda>18"),
        pytest.param(lambda d: (add_line(d), d["df"].append(0)), id="<lambda>19"),
        # One feature line more than df entries; one fewer, by a df entry more or a line less.
        pytest.param(add_line, id="<lambda>20"),
        pytest.param(lambda d: d["df"].append(1), id="<lambda>21"),
        pytest.param(lambda d: d.update(features=d["features"].rsplit("\n", 1)[0]),
                     id="features-one-line-fewer"),
        # A repeated feature: the vocabulary still has V columns, like the weights.
        pytest.param(lambda d: (add_line(d, d["features"].rsplit("\n", 1)[1]), d["df"].append(1)),
                     id="<lambda>22"),
        # n_docs below a df turns idf negative for df >= 2 and exited 0.
        pytest.param(lambda d: d.update(n_docs=0), id="<lambda>23"),
        pytest.param(lambda d: d.update(n_docs=max(d["df"]) - 1), id="<lambda>24"),
        pytest.param(lambda d: d.pop("features"), id="<lambda>25"),
        pytest.param(lambda d: d.pop("df"), id="<lambda>26"),
        pytest.param(lambda d: d.update(df={}), id="<lambda>27"),
        pytest.param(lambda d: d.update(features="zz"), id="<lambda>28"),
    ])
    def test_broken_tfidf_file(self, trained_world, tmp_path, capsys, edit):
        # The TFIDF model is the model file's "tfidf" object.
        self.induce_with_edited_model(trained_world, tmp_path, capsys, lambda d: edit(d["tfidf"]))

    def test_model_file_reported_before_network(self, trained_world, tmp_path, capsys):
        # `induce` reads the ec model file before the network, so with both
        # broken, the model file is the one reported.
        _, paths, projected, models = trained_world
        nodes = tmp_path / "nodes.tsv"
        nodes.write_text("Rome\tcategory\n", encoding="utf-8")
        (tmp_path / "model.ec.json").write_text("{", encoding="utf-8")
        (tmp_path / "model.cc.json").write_bytes((models / "model.cc.json").read_bytes())
        argv = induce_args({**paths, "nodes": nodes}, projected, tmp_path, tmp_path / "o.tsv")
        code, err = run_err(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'model.ec.json'}: bad model file")
        (tmp_path / "model.ec.json").write_bytes((models / "model.ec.json").read_bytes())
        code, err = run_err(capsys, *argv)
        assert code == 2 and err.startswith(f"error: {nodes}:1: ")

    def test_swapped_models_rejected(self, trained_world, tmp_path, capsys):
        _, paths, projected, models = trained_world
        argv = induce_args(paths, projected, models, tmp_path / "o.tsv")
        ec, cc = argv.index("--model-ec") + 1, argv.index("--model-cc") + 1
        argv[ec], argv[cc] = argv[cc], argv[ec]
        code, err = run_err(capsys, *argv)
        assert code == 2
        assert err.startswith(
            f"error: {models / 'model.cc.json'}: bad model file: kind is 'cc', expected 'ec'"
        )
        assert not (tmp_path / "o.tsv").exists()

    @pytest.mark.parametrize("command, text, key", [
        ("induce", '{"uniform": "no"}', "uniform"),
        ("induce", '{"k": "3"}', "k"),
        ("train", '{"epochs": "10"}', "epochs"),
        ("train", '{"ngram_sizes": 3}', "ngram_sizes"),
        ("train", '{"seed": 1.5}', "seed"),
        ("train", '{"val_fraction": "0.2"}', "val_fraction"),
        ("project", '{"epsilon": true}', "epsilon"),  # checked, though project ignores it
        ("project", "[1, 2]", None),
        ("project", '{"k1": 14,', None),
        ("induce", '{"kk": 1}', None),  # an unknown key
    ])
    def test_mistyped_config_rejected(self, trained_world, tmp_path, capsys, command, text, key):
        _, paths, projected, models = trained_world
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        argv = {
            "project": project_args(paths, out),
            "train": train_args(paths, projected, out),
            "induce": induce_args(paths, projected, models, out),
        }[command]
        code, err = run_err(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert err.startswith(f"error: {cfg}: ")
        if key is not None:
            assert f"config key {key!r} must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, key", [
        ("project", '{"k1": 0}', "k1"),  # ProjectionConfig
        ("train", '{"ngram_sizes": [0, 2]}', "ngram_sizes"),  # FeatureSpec
        ("train", '{"mode": "phoneme"}', "mode"),
        ("train", '{"learning_rate": NaN}', "learning_rate"),  # TrainConfig
        ("induce", '{"epsilon": 1.5}', "epsilon"),  # InductionConfig
        ("induce", '{"epsilon": 0.5}', "epsilon"),  # the clamp would invert
        ("induce", '{"epsilon": 0.7}', "epsilon"),
        ("project", '{"k": 0}', "k"),  # checked, though project ignores it
        ("train", '{"val_fraction": 1.5}', "val_fraction"),
        ("train", '{"val_fraction": -0.1}', "val_fraction"),
        ("train", '{"min_df": -3}', "min_df"),  # ran as if it were 1
        ("train", '{"min_df": 0}', "min_df"),
        ("induce", '{"min_df": 0}', "min_df"),
    ])
    def test_config_value_out_of_range_names_file(
        self, trained_world, tmp_path, capsys, command, text, key
    ):
        _, paths, projected, models = trained_world
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        argv = {
            "project": project_args(paths, out),
            "train": train_args(paths, projected, out),
            "induce": induce_args(paths, projected, models, out),
        }[command]
        code, err = run_err(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert err.startswith(f"error: {cfg}: config key {key!r}: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags, config", [
        (["--learning-rate", "nan"], None),
        (["--learning-rate", "inf"], None),
        (["--l2-lambda", "nan"], None),
        (["--l2-lambda", "inf"], None),
        ([], '{"learning_rate": NaN}'),
        ([], '{"l2_lambda": Infinity}'),
    ])
    def test_non_finite_sgd_setting_rejected(self, trained_world, tmp_path, capsys, flags, config):
        _, paths, projected, _ = trained_world
        if config is not None:
            (tmp_path / "cfg.json").write_text(config, encoding="utf-8")
            flags = ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "out"
        code, err = run_err(capsys, *train_args(paths, projected, out), *flags)
        assert code == 2
        assert err.startswith("error: ") and "must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--min-df", "-3"], "min_df must be >= 1, got -3"),  # ran as if it were 1
        (["--min-df", "0"], "min_df must be >= 1, got 0"),
        (["--val-fraction", "1.5"], "val_fraction must be in [0, 1), got 1.5"),
    ])
    def test_train_flag_out_of_range(self, trained_world, tmp_path, capsys, flags, message):
        _, paths, projected, _ = trained_world
        out = tmp_path / "out"
        code, err = run_err(capsys, *train_args(paths, projected, out), *flags)
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, message", [
        ("train", ["--min-df", "0"], "min_df must be >= 1, got 0"),
        ("induce", ["--k", "0"], "k must be >= 1"),
    ])
    def test_bad_flag_rejected_before_any_input_is_read(
        self, tmp_path, capsys, command, flag, message
    ):
        missing = {key: tmp_path / key for key in ("nodes", "edges")}
        argv = {
            "train": train_args(missing, tmp_path / "p.tsv", tmp_path / "out"),
            "induce": induce_args(missing, tmp_path / "p.tsv", tmp_path, tmp_path / "out"),
        }[command]
        code, err = run_err(capsys, *argv, *flag)
        assert (code, err) == (2, f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, min_df, message", [
        # A bad file value names the file, though the flag overrides it.
        ('{"min_df": 0}', 2, "{cfg}: config key 'min_df': min_df must be >= 1, got 0"),
        # A bad flag over a valid file gives the flag's bare message.
        ('{"min_df": 2, "epochs": 3}', 0, "min_df must be >= 1, got 0"),
    ])
    def test_config_file_and_flag_for_one_key(
        self, trained_world, tmp_path, capsys, text, min_df, message
    ):
        _, paths, projected, _ = trained_world
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code, err = run_err(capsys, *train_args(paths, projected, out, min_df=min_df, config=cfg))
        assert (code, err) == (2, f"error: {message.format(cfg=cfg)}\n")
        assert not out.exists()

    # From 0.5 on the clamp [epsilon, 1 - epsilon] inverts: 0.7 exited 0
    # with every edge scored 0.3.
    @pytest.mark.parametrize("epsilon", ["0.5", "0.7"])
    def test_induce_epsilon_out_of_range(self, trained_world, tmp_path, capsys, epsilon):
        _, paths, projected, models = trained_world
        out = tmp_path / "out.tsv"
        code, err = run_err(capsys, *induce_args(paths, projected, models, out, epsilon=epsilon))
        assert (code, err) == (2, f"error: epsilon must be in (0, 0.5), got {epsilon}\n")
        assert not out.exists()

    def test_non_ascii_score_rejected(self, tmp_path, capsys):
        # `float` reads fullwidth digits; saving would write `0.500000`.
        (tmp_path / "t.tsv").write_text("a\tb\t\uff10.\uff15\n", encoding="utf-8")
        code, err = run_err(capsys, "stats", "--taxonomy", str(tmp_path / "t.tsv"))
        assert (code, err) == (2, f"error: {tmp_path / 't.tsv'}:1: bad score '\uff10.\uff15'\n")

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_stats_sample_below_one(self, tmp_path, capsys, sample):
        # -1 sampled every covered node but the last, 0 reported depth 0.
        (tmp_path / "t.tsv").write_text("a\tb\nb\tc\n", encoding="utf-8")
        code = main(["stats", "--taxonomy", str(tmp_path / "t.tsv"), "--sample", sample])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, f"error: sample must be >= 1, got {sample}\n")
        assert captured.out == ""

    def test_crlf_sampled_nodes_rejected(self, tmp_path, capsys):
        (tmp_path / "taxo.tsv").write_text("x\ta\n", encoding="utf-8")
        (tmp_path / "gold.tsv").write_text("x\ta\tisa\n", encoding="utf-8")
        (tmp_path / "nodes.txt").write_bytes(b"x\r\n")
        code, err = run_err(
            capsys, "evaluate", "edges",
            "--taxonomy", str(tmp_path / "taxo.tsv"),
            "--gold", str(tmp_path / "gold.tsv"),
            "--nodes-file", str(tmp_path / "nodes.txt"),
        )
        assert code == 2
        assert f"{tmp_path / 'nodes.txt'}:1: line ends in CR" in err


class TestDefaults:
    # `bench/replay.py` calls the library with its defaults and relies on
    # the CLI's defaults being the same.
    BARE = {
        "project": ["project", "--nodes", "n", "--edges", "e", "--langlinks", "l",
                    "--source-taxonomy", "s", "--out", "o"],
        "train": ["train", "--nodes", "n", "--edges", "e", "--projected", "p", "--out-dir", "d"],
        "induce": ["induce", "--nodes", "n", "--edges", "e", "--projected", "p",
                   "--model-ec", "a", "--model-cc", "b", "--out", "o"],
    }

    @pytest.mark.parametrize("command, name, expected", [
        ("project", "projection", ProjectionConfig()),
        ("train", "train", TrainConfig()),
        ("train", "spec", FeatureSpec(FeatureMode.CHAR_NGRAM)),
        ("induce", "induction", InductionConfig()),
    ])
    def test_bare_command_uses_library_defaults(self, command, name, expected):
        settings = cli._settings(cli.build_parser().parse_args(self.BARE[command]))
        assert getattr(settings, name) == expected

    def test_setting_flag_help_shows_its_default(self):
        subparsers = next(a for a in cli.build_parser()._actions if a.choices)
        seen = set()
        for command in self.BARE:  # the commands that read settings
            for action in subparsers.choices[command]._actions:
                if action.dest not in cli.CONFIG_DEFAULTS or action.dest == "uniform":
                    continue  # argparse writes --uniform/--no-uniform's help itself
                default = cli.CONFIG_DEFAULTS[action.dest]
                shown = ",".join(map(str, default)) if isinstance(default, list) else str(default)
                assert action.help.endswith(f" (default: {shown})"), action.option_strings
                seen.add(action.dest)
        assert seen == set(cli.CONFIG_DEFAULTS) - {"uniform"}


class TestEvaluate:
    def test_paths_worked_example(self, tmp_path, capsys):
        paths_file = tmp_path / "paths.jsonl"
        paths_file.write_text(
            json.dumps(
                {"nodes": ["apple", "fruit", "farmer", "human", "animal"],
                 "first_wrong_index": 2}
            ) + "\n",
            encoding="utf-8",
        )
        code, out = run(capsys, "evaluate", "paths", "--paths", str(paths_file))
        assert code == 0
        assert json.loads(out) == {"AL": 5.0, "ACPP": 2.0, "ARCPP": 0.4}

    # Each was misread, and scored with exit 0.
    @pytest.mark.parametrize("row, message", [
        pytest.param('{"nodes": "abc", "first_wrong_index": 1.5}',
                     "nodes must be a list of nonempty strings, got 'abc'", id="nodes-string"),
        pytest.param('{"nodes": [1, 2], "first_wrong_index": true}',
                     "nodes must be a list of nonempty strings, got [1, 2]", id="nodes-ints"),
        pytest.param('{"nodes": ["a", ""]}',
                     "nodes must be a list of nonempty strings, got ['a', '']", id="nodes-empty-id"),
        pytest.param('{"nodes": ["a", "b"], "first_wrong_index": true}',
                     "first_wrong_index must be an integer or null, got True", id="index-bool"),
        pytest.param('{"nodes": ["a", "b"], "first_wrong_index": 1.0}',
                     "first_wrong_index must be an integer or null, got 1.0", id="index-float"),
    ])
    def test_mistyped_paths_rejected(self, tmp_path, capsys, row, message):
        paths_file = tmp_path / "paths.jsonl"
        paths_file.write_text('{"nodes": ["a", "b"]}\n' + row + "\n", encoding="utf-8")
        code, err = run_err(capsys, "evaluate", "paths", "--paths", str(paths_file))
        assert (code, err) == (2, f"error: {paths_file}:2: {message}\n")

    def test_paths_row_without_nodes_names_the_key(self, tmp_path, capsys):
        paths_file = tmp_path / "p2.jsonl"
        paths_file.write_text("{}\n", encoding="utf-8")
        code, err = run_err(capsys, "evaluate", "paths", "--paths", str(paths_file))
        assert (code, err) == (2, f"error: {paths_file}:1: missing key 'nodes'\n")

    def test_edges_worked_example(self, tmp_path, capsys):
        (tmp_path / "taxo.tsv").write_text("x\ta\nx\tb\ny\tc\n", encoding="utf-8")
        (tmp_path / "gold.tsv").write_text(
            "x\ta\tisa\nx\tb\tnotisa\ny\tc\tisa\n", encoding="utf-8"
        )
        (tmp_path / "nodes.txt").write_text("x\ny\n", encoding="utf-8")
        code, out = run(
            capsys, "evaluate", "edges",
            "--taxonomy", str(tmp_path / "taxo.tsv"),
            "--gold", str(tmp_path / "gold.tsv"),
            "--nodes-file", str(tmp_path / "nodes.txt"),
        )
        assert code == 0
        assert json.loads(out) == {"P": 0.75, "R": 1.0, "C": 1.0}

    # Two rows that judge one edge differently must not leave the last one
    # to decide P and R; a repeated identical row is harmless.
    @pytest.mark.parametrize("first, second", [("isa", "notisa"), ("notisa", "isa")])
    def test_contradicting_gold_rows_rejected(self, tmp_path, capsys, first, second):
        gold = tmp_path / "gold.tsv"
        gold.write_text(f"x\ta\t{first}\ny\tc\tisa\nx\ta\t{second}\n", encoding="utf-8")
        (tmp_path / "taxo.tsv").write_text("x\ta\ny\tc\n", encoding="utf-8")
        (tmp_path / "nodes.txt").write_text("x\ny\n", encoding="utf-8")
        code, err = run_err(
            capsys, "evaluate", "edges",
            "--taxonomy", str(tmp_path / "taxo.tsv"),
            "--gold", str(gold),
            "--nodes-file", str(tmp_path / "nodes.txt"),
        )
        message = f"'x' -> 'a' judged {second!r} here, {first!r} earlier"
        assert (code, err) == (2, f"error: {gold}:3: {message}\n")

    def test_repeated_gold_row_accepted(self, tmp_path, capsys):
        (tmp_path / "taxo.tsv").write_text("x\ta\nx\tb\ny\tc\n", encoding="utf-8")
        (tmp_path / "gold.tsv").write_text(
            "x\tb\tnotisa\nx\ta\tisa\nx\tb\tnotisa\ny\tc\tisa\n", encoding="utf-8"
        )
        (tmp_path / "nodes.txt").write_text("x\ny\n", encoding="utf-8")
        code, out = run(
            capsys, "evaluate", "edges",
            "--taxonomy", str(tmp_path / "taxo.tsv"),
            "--gold", str(tmp_path / "gold.tsv"),
            "--nodes-file", str(tmp_path / "nodes.txt"),
        )
        assert code == 0
        assert json.loads(out) == {"P": 0.75, "R": 1.0, "C": 1.0}

    def test_all_correct_p_equals_r_equals_c(self, tmp_path, capsys):
        (tmp_path / "taxo.tsv").write_text("x\ta\ny\tc\n", encoding="utf-8")
        (tmp_path / "gold.tsv").write_text("x\ta\tisa\ny\tc\tisa\n", encoding="utf-8")
        (tmp_path / "nodes.txt").write_text("x\ny\n", encoding="utf-8")
        code, out = run(
            capsys, "evaluate", "edges",
            "--taxonomy", str(tmp_path / "taxo.tsv"),
            "--gold", str(tmp_path / "gold.tsv"),
            "--nodes-file", str(tmp_path / "nodes.txt"),
        )
        data = json.loads(out)
        assert data["P"] == data["R"] == data["C"] == 1.0

    def test_empty_gold_fails(self, tmp_path, capsys):
        (tmp_path / "taxo.tsv").write_text("x\ta\n", encoding="utf-8")
        (tmp_path / "gold.tsv").write_text("", encoding="utf-8")
        (tmp_path / "nodes.txt").write_text("", encoding="utf-8")
        code, _ = run(
            capsys, "evaluate", "edges",
            "--taxonomy", str(tmp_path / "taxo.tsv"),
            "--gold", str(tmp_path / "gold.tsv"),
            "--nodes-file", str(tmp_path / "nodes.txt"),
        )
        assert code == 2

    def test_invalid_utf8_paths(self, tmp_path, capsys):
        path = tmp_path / "p.jsonl"
        path.write_bytes(b'{"nodes": ["a", "b"]}\n{"nodes": ["\xff"]}\n')
        code, err = run_err(capsys, "evaluate", "paths", "--paths", str(path))
        assert (code, err) == (2, f"error: {path}:2: invalid UTF-8\n")

    def test_empty_paths_fails(self, tmp_path, capsys):
        (tmp_path / "p.jsonl").write_text("", encoding="utf-8")
        code, _ = run(capsys, "evaluate", "paths", "--paths", str(tmp_path / "p.jsonl"))
        assert code == 2


class TestStats:
    def test_single_parent_tree(self, tmp_path, capsys):
        (tmp_path / "t.tsv").write_text("a\tb\nb\tc\n", encoding="utf-8")
        code, out = run(capsys, "stats", "--taxonomy", str(tmp_path / "t.tsv"))
        assert code == 0
        data = json.loads(out)
        assert data["branching_factor"] == 1.0
        assert data["nodes"] == 3 and data["edges"] == 2
        assert data["max_depth_sampled"] == 3  # a -> b -> c

    def test_known_out_degrees(self, tmp_path, capsys):
        (tmp_path / "t.tsv").write_text("a\tp1\nb\tp1\nb\tp2\nb\tp3\n", encoding="utf-8")
        code, out = run(capsys, "stats", "--taxonomy", str(tmp_path / "t.tsv"))
        assert json.loads(out)["branching_factor"] == 2.0

    def test_empty_taxonomy_fails(self, tmp_path, capsys):
        (tmp_path / "t.tsv").write_text("", encoding="utf-8")
        code, _ = run(capsys, "stats", "--taxonomy", str(tmp_path / "t.tsv"))
        assert code == 2


def run_process(*argv):
    """`python -m taxonet` in a fresh interpreter: (exit code, standard error).
    No test harness handler stands between a warning and the stream."""
    env = {**os.environ, "PYTHONPATH": str(Path(taxonet.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-m", "taxonet", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stderr


class TestWarnings:
    # A repeated row is dropped with a warning, one plain line on stderr,
    # and the command goes on.
    def test_repeated_edge_row(self, tmp_path):
        (tmp_path / "nodes.tsv").write_text("a\tentity\tA\nb\tcategory\tB\n", encoding="utf-8")
        (tmp_path / "edges.tsv").write_text("a\tb\na\tb\n", encoding="utf-8")
        (tmp_path / "links.tsv").write_text("a\tsa\nb\tsb\n", encoding="utf-8")
        (tmp_path / "source.tsv").write_text("sa\tsb\n", encoding="utf-8")
        paths = {"nodes": tmp_path / "nodes.tsv", "edges": tmp_path / "edges.tsv",
                 "langlinks": tmp_path / "links.tsv", "source_taxonomy": tmp_path / "source.tsv"}
        code, err = run_process(*project_args(paths, tmp_path / "o.tsv"))
        assert (code, err) == (0, "duplicate edge dropped: a -> b\n")

    def test_repeated_taxonomy_row(self, tmp_path):
        (tmp_path / "t.tsv").write_text("a\tb\t0.5\na\tb\t0.75\n", encoding="utf-8")
        code, err = run_process("stats", "--taxonomy", str(tmp_path / "t.tsv"))
        assert (code, err) == (0, "duplicate taxonomy edge ('a', 'b'), keeping max score\n")
