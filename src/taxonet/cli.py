"""Command-line interface wiring the pipeline end to end.

Subcommands: project, train, induce, evaluate (edges|paths), stats.
Exit codes: 0 success, 2 bad input or usage, 1 internal error. Given the
same flags, seed, and input files, every command writes byte-identical
outputs; all randomness flows from --seed and is echoed in the reports.
The `project` and `induce` reports are the library's records as they are,
which carry their settings (k1, k2; k, uniform).

`train` and `induce` use two processes. `train` checks both edge kinds for
two label classes (ec, then cc), then trains, saves and scores the cc
model in a forked child (`forking.run_pair`) while this process does the
same for ec; `induce` scores the edges its path search can read, the
parent edges of uncovered nodes, one edge kind at a time (ec, then cc),
half of a kind's edges in a child when they are many (see `induction`).
The two models share nothing but their read-only inputs, which the child
inherits, and each seeds its own SGD, so every byte written is what one
process running ec then cc would write. An error in ec wins over one in
cc; a child's error re-raises here unchanged, so it exits 2 with the same
message. The fork makes these commands POSIX-only, and `main` must be
called from a single-threaded process.

Both commands let go of what they are done with, since a command's peak
memory is what it holds at one time. `train` keeps the projected taxonomy
and the labeled edge list only until the edges are split by kind, so
neither is held through training nor inherited by the forked child. It
frees the category network too, before the fork: each job keeps only the
titles of its own train and validation edges' nodes (`_Titles`), the one
thing training and validation read of a graph. Right after fitting its
TFIDF model, a job caches those titles' vectors and releases the
vocabulary (`TfidfModel.release`), which SGD never reads. `induce` holds
one model at a time: the ec model weighs the ec search edges and is
freed before the cc model loads, so the cc model and the path search
reuse its memory. It reads the ec model file first, before the network,
so the file's parse tops an almost empty heap instead of the network and
the projected taxonomy. That parse is no longer the command's largest
transient: with base64 weights and one features string, loading the ec
model peaks 0.6 MiB above what it keeps on a 4,801-node world (RSS 19.9,
high-water 20.5 MiB) and 2.8 MiB on a 48,001-node one, where loading the
network peaks 22 MiB above what it keeps. A broken ec model file is
reported before a broken network file. Under `--uniform` both files are
still loaded and checked, one at a time.

Each command runs in a fresh process and pays for what it imports.
Loading this module imports `classifier`, `features`, `graph`,
`induction`, `labeling`, `projection`, `rng` and `errors`, which
`project`, `train` and `induce` run; `CONFIG_DEFAULTS` reads the config
classes of three of them, so every command loads these. `train` also
imports `forking` (and `pickle`), as does `induce` when it forks, and
`evaluate` and `stats` import `metrics`, each inside the function that
needs it. No command imports
`dataclasses`, `logging` or `inspect`, whose imports would add to every
start: the library's records are named tuples, its warnings are plain stderr
lines, and `_CONFIG_CLASSES` names the keys each setting is built from.

A command's settings come in three layers: `CONFIG_DEFAULTS`, then the
optional `--config` file, then the flags, each overriding the one before.
`CONFIG_DEFAULTS` reads each default from the library: the field defaults
of `ProjectionConfig`, `TrainConfig` and `InductionConfig`, and
`features.DEFAULT_NGRAM_SIZES`; only `mode`, `val_fraction` and `min_df`,
which no library class defaults, are written here. Each flag's help shows
its default from `CONFIG_DEFAULTS`.
The file must hold one JSON object whose keys are those of
`CONFIG_DEFAULTS`, each with its default's JSON type. After the file and
again after the flags, every config class (and the checks of
`val_fraction` and `min_df`) is built from the merged values, so a value
out of range exits 2 before the command reads any of its input files. A
bad file value names the file, even where a flag overrides it or the
command does not read it; a bad flag value gives its check's bare message.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .classifier import TrainConfig, load_model, save_model, train_linear, validation_accuracy
from .errors import MalformedFile, TaxonetError
from .features import (
    DEFAULT_NGRAM_SIZES, FeatureMode, FeatureSpec, check_json_types, check_min_df, fit_tfidf,
)
from .graph import (
    EdgeKind, _write_lines, load_interlang, load_taxonomy, load_wcn, save_taxonomy,
)
from .induction import InductionConfig, WeightedGraph, induce, search_edges, weigh_edges
from .labeling import EdgeDataset, check_val_fraction, label_edges, split_by_kind, train_val_split
from .projection import ProjectionConfig, project

CONFIG_DEFAULTS = {
    **ProjectionConfig._field_defaults, **TrainConfig._field_defaults,
    **InductionConfig._field_defaults,
    "ngram_sizes": sorted(DEFAULT_NGRAM_SIZES),
    "mode": "char", "val_fraction": 0.25, "min_df": 1,
}


# Each setting a command reads, by name: what builds it, a config class or
# a key's own check, and the keys it is called with, by name.
_CONFIG_CLASSES = {
    "projection": (ProjectionConfig, ProjectionConfig._fields),
    "spec": (lambda mode, ngram_sizes: FeatureSpec(FeatureMode(mode), frozenset(ngram_sizes)),
             ("mode", "ngram_sizes")),
    "train": (TrainConfig, TrainConfig._fields),
    "induction": (InductionConfig, InductionConfig._fields),
    "val_fraction": (check_val_fraction, ("val_fraction",)),
    "min_df": (check_min_df, ("min_df",)),
}


def _read_config(path: str) -> dict:
    """The JSON object in a `--config` file, each key known and typed."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise MalformedFile(path, f"bad config file: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedFile(path, f"config must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(CONFIG_DEFAULTS))
    if unknown:
        raise MalformedFile(path, f"unknown config keys: {', '.join(unknown)}")
    try:
        check_json_types(CONFIG_DEFAULTS, data)
    except TypeError as exc:
        raise MalformedFile(path, str(exc)) from None
    return data


def _settings(args: argparse.Namespace) -> SimpleNamespace:
    """The settings of `_CONFIG_CLASSES` by name, and `seed`. Each is built
    once the `--config` file is merged, so a bad file value names the file,
    and again once the flags are."""
    values = dict(CONFIG_DEFAULTS)
    layers = [(args.config, _read_config(args.config))] if args.config is not None else []
    flags = {k: v for k in CONFIG_DEFAULTS if (v := getattr(args, k, None)) is not None}
    layers.append((None, flags))
    for path, layer in layers:
        values.update(layer)
        built = {}
        for name, (build, keys) in _CONFIG_CLASSES.items():
            try:
                built[name] = build(**{key: values[key] for key in keys})
            except ValueError as exc:
                if path is None:
                    raise
                named = ", ".join(repr(key) for key in keys if key in layer)
                raise MalformedFile(path, f"config key {named}: {exc}") from None
    return SimpleNamespace(seed=values["seed"], **built)


def _write_json(path: str | Path, obj: dict) -> None:
    _write_lines(path, [json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"])


def _save_result(args: argparse.Namespace, taxonomy, report) -> int:
    """Save the taxonomy to `--out` and its report, settings included, to `--report`."""
    save_taxonomy(taxonomy, args.out)
    _write_json(args.report or args.out + ".report.json", report.to_dict())
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    cfg = _settings(args).projection
    graph = load_wcn(args.nodes, args.edges)
    links = load_interlang(args.langlinks)
    source = load_taxonomy(args.source_taxonomy)
    return _save_result(args, *project(source, graph, links, cfg))


class _Titles(dict):
    """Node titles by id. `title` is all that training and validation read
    of a graph, so a job holds its own edges' titles instead of the network."""

    __slots__ = ()
    title = dict.__getitem__


def _cmd_train(args: argparse.Namespace) -> int:
    settings = _settings(args)
    graph = load_wcn(args.nodes, args.edges)
    # The projected taxonomy and the labeled list are freed here, before the fork.
    by_kind = split_by_kind(label_edges(graph, load_taxonomy(args.projected)), graph)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = []
    for kind, edges in zip(EdgeKind, by_kind):
        train_edges, val_edges = train_val_split(edges, settings.val_fraction, settings.seed)
        if len({e.label for e in train_edges}) < 2:
            raise TaxonetError(f"{kind.value}: need both labels to train; check the projected taxonomy")
        titles = _Titles({n: graph.title(n) for e in edges for n in (e.child, e.parent)})
        jobs.append((kind, train_edges, val_edges, titles))
    del graph  # each job reads only its own titles, so the network is freed before the fork

    def fit(kind: EdgeKind, train_edges, val_edges, titles: _Titles) -> None:
        dataset = EdgeDataset(kind, train_edges, val_edges)
        node_ids = sorted({n for e in train_edges for n in (e.child, e.parent)})
        tfidf = fit_tfidf([titles[n] for n in node_ids], settings.spec, settings.min_df)
        tfidf.release(titles.values())  # SGD and scoring read only these titles' vectors
        model = train_linear(dataset, tfidf, settings.train, titles)
        save_model(model, out_dir / f"model.{kind.value}.json")
        _write_json(
            out_dir / f"metrics.{kind.value}.json",
            {
                "train_acc": validation_accuracy(model, train_edges, titles),
                "val_acc": validation_accuracy(model, val_edges, titles) if val_edges else None,
                "n_train": len(train_edges),
                "n_val": len(val_edges),
                "mode": settings.spec.mode.value,
                "seed": settings.seed,
            },
        )

    from .forking import run_pair  # here, so commands that never fork skip pickle

    ec_job, cc_job = jobs
    run_pair(lambda: fit(*ec_job), lambda: fit(*cc_job))
    return 0


def _cmd_induce(args: argparse.Namespace) -> int:
    cfg = _settings(args).induction
    paths = dict(zip(EdgeKind, (args.model_ec, args.model_cc)))

    def read(kind: EdgeKind):
        # Under --uniform no edge is scored, so a swapped pair of models is harmless.
        return load_model(paths[kind], None if cfg.uniform else kind)

    model = read(EdgeKind.ENTITY_TO_CATEGORY)  # before the network, whose memory it would top
    graph = load_wcn(args.nodes, args.edges)
    projected = load_taxonomy(args.projected)
    search = search_edges(graph, projected)
    prob = {}
    for kind, edges in zip(EdgeKind, split_by_kind(search, graph)):
        model = model or read(kind)
        prob.update(weigh_edges(graph, model, model, cfg, edges).prob)
        model = None  # freed before the next model loads
    weighted = WeightedGraph(graph, {edge: prob[edge] for edge in search})
    return _save_result(args, *induce(projected, weighted, cfg))


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .metrics import edge_metrics, load_gold, load_paths, path_metrics

    if args.what == "edges":
        taxonomy = load_taxonomy(args.taxonomy)
        gold = load_gold(args.gold, args.nodes_file)
        m = edge_metrics(taxonomy, gold)
        out = {"P": round(m.macro_precision, 4), "R": round(m.recall, 4), "C": round(m.coverage, 4)}
        if not m.precision_defined:
            out["precision_defined"] = False
        if m.unjudged_returned:
            out["unjudged_returned"] = m.unjudged_returned
    else:
        m = path_metrics(load_paths(args.paths))
        out = {
            "AL": round(m.avg_length, 4),
            "ACPP": round(m.avg_cpp, 4),
            "ARCPP": round(m.avg_ratio_cpp, 4),
        }
    print(json.dumps(out, ensure_ascii=False))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .metrics import branching_factor, max_depth_sampled

    taxonomy = load_taxonomy(args.taxonomy)
    bf = branching_factor(taxonomy)  # raises TaxonetError on no edges -> exit 2
    print(
        json.dumps(
            {
                "nodes": len(taxonomy.node_ids()),
                "edges": len(taxonomy),
                "branching_factor": round(bf, 4),
                "max_depth_sampled": max_depth_sampled(taxonomy, args.sample, args.seed),
            }
        )
    )
    return 0


def int_list(text: str) -> list[int]:
    """The `--ngram-sizes` value: integers separated by commas."""
    return [int(part) for part in text.split(",") if part]


def _setting(parser: argparse.ArgumentParser, key: str, text: str, **kwargs) -> None:
    """Add the flag of a `CONFIG_DEFAULTS` key; its help ends in the default."""
    default = CONFIG_DEFAULTS[key]
    shown = ",".join(map(str, default)) if isinstance(default, list) else default
    parser.add_argument("--" + key.replace("_", "-"), help=f"{text} (default: {shown})", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxonet",
        description="Induce a target-language taxonomy from a category network.",
    )
    parser.add_argument("--version", action="version", version=f"taxonet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="project a source taxonomy over interlanguage links")
    p.add_argument("--nodes", required=True, help="target nodes.tsv")
    p.add_argument("--edges", required=True, help="target edges.tsv")
    p.add_argument("--langlinks", required=True, help="langlinks.tsv (target_id, source_id)")
    p.add_argument("--source-taxonomy", required=True, help="source-language taxonomy.tsv")
    p.add_argument("--out", required=True, help="output taxonomy.tsv")
    p.add_argument("--report", help="report JSON path (default: <out>.report.json)")
    _setting(p, "k1", "max ancestor height in the source taxonomy", type=int)
    _setting(p, "k2", "max projection path length in hops", type=int)
    p.add_argument("--config", help="optional JSON config file; flags override it")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("train", help="build edge datasets and train both classifiers")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--projected", required=True, help="projected taxonomy.tsv")
    _setting(p, "mode", "feature mode", choices=["word", "char"])
    p.add_argument("--out-dir", required=True, help="directory for model and metrics files")
    _setting(p, "seed", "seed for the split and SGD shuffles", type=int)
    _setting(p, "val_fraction", "validation fraction per label class", type=float)
    _setting(p, "min_df", "minimum document frequency for features", type=int)
    _setting(p, "ngram_sizes", "char n-gram sizes, comma-separated", type=int_list)
    _setting(p, "epochs", "SGD epochs", type=int)
    _setting(p, "learning_rate", "initial SGD learning rate", type=float)
    _setting(p, "l2_lambda", "L2 regularization strength", type=float)
    p.add_argument("--config", help="optional JSON config file; flags override it")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("induce", help="extend the projected taxonomy by best-path search")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--projected", required=True)
    p.add_argument("--model-ec", required=True, dest="model_ec", help="entity-edge model JSON")
    p.add_argument("--model-cc", required=True, dest="model_cc", help="category-edge model JSON")
    p.add_argument("--out", required=True, help="output taxonomy.tsv")
    p.add_argument("--report", help="report JSON path (default: <out>.report.json)")
    _setting(p, "k", "paths per uncovered node", type=int)
    _setting(p, "epsilon", "probability clamp floor, in (0, 0.5)", type=float)
    p.add_argument("--uniform", action=argparse.BooleanOptionalAction,
                   help="set every edge weight to 1 instead of classifier scores")
    p.add_argument("--config", help="optional JSON config file; flags override it")
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("evaluate", help="score a taxonomy against gold annotations")
    esub = p.add_subparsers(dest="what", required=True)
    pe = esub.add_parser("edges", help="macro-precision / recall / coverage")
    pe.add_argument("--taxonomy", required=True)
    pe.add_argument("--gold", required=True, help="gold_edges.tsv")
    pe.add_argument("--nodes-file", required=True, dest="nodes_file", help="sampled_nodes.txt")
    pe.set_defaults(func=_cmd_evaluate, what="edges")
    pp = esub.add_parser("paths", help="average path length / correct prefix stats")
    pp.add_argument("--paths", required=True, help="paths.jsonl")
    pp.set_defaults(func=_cmd_evaluate, what="paths")

    p = sub.add_parser("stats", help="structural statistics of a taxonomy")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for depth sampling (default: %(default)s)")
    p.add_argument("--sample", type=int, default=100,
                   help="number of nodes sampled for max depth (default: %(default)s)")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TaxonetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
