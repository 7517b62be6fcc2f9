import base64
import json
import struct
import tempfile
from array import array
from itertools import chain, cycle, islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from taxonet import Node, NodeKind, WcnGraph, features
from taxonet.classifier import (
    _PIECE,
    _SLICE,
    LinearEdgeModel,
    TrainConfig,
    load_model,
    predict_proba,
    save_model,
    train_linear,
    validation_accuracy,
)
from taxonet.features import DEFAULT_NGRAM_SIZES, FeatureMode, FeatureSpec, TfidfModel, fit_tfidf
from taxonet.graph import EdgeKind, edge_kind
from taxonet.induction import InductionConfig, weigh_edges
from taxonet.labeling import (
    EdgeDataset, Label, LabeledEdge, label_edges, split_by_kind, train_val_split,
)
from taxonet.projection import ProjectionConfig, project

from conftest import raises_error
from oracles import (
    reference_model_text, reference_proba, reference_train_linear, reference_vectorize_title,
)
from worldgen import build_world

WORD = FeatureSpec(FeatureMode.WORD)
CHAR = FeatureSpec(FeatureMode.CHAR_NGRAM)


def separable_world(n=12):
    """Positive parents carry the token 'aaa', negatives 'bbb'."""
    nodes, edges, labeled = [], [], []
    for i in range(n):
        child, pos, neg = f"c{i:02d}", f"p{i:02d}", f"n{i:02d}"
        nodes += [
            Node(child, NodeKind.ENTITY, f"kid {i}"),
            Node(pos, NodeKind.CATEGORY, f"aaa group {i}"),
            Node(neg, NodeKind.CATEGORY, f"bbb place {i}"),
        ]
        edges += [(child, pos), (child, neg)]
        labeled += [
            LabeledEdge(child, pos, Label.ISA),
            LabeledEdge(child, neg, Label.NOT_ISA),
        ]
    return WcnGraph(nodes, edges), labeled


def zero_weights(tfidf):
    """A model's (child, parent) weight lists with every weight 0."""
    return [0.0] * tfidf.n_features, [0.0] * tfidf.n_features


def fitted(graph, train_edges, spec=WORD):
    ids = sorted({n for e in train_edges for n in (e.child, e.parent)})
    return fit_tfidf([graph.title(n) for n in ids], spec)


def trained(seed=0, n=12, holdout=2, epochs=30):
    graph, labeled = separable_world(n)
    train_edges = labeled[: len(labeled) - 2 * holdout]
    val_edges = labeled[len(labeled) - 2 * holdout :]
    tfidf = fitted(graph, train_edges)
    dataset = EdgeDataset(EdgeKind.ENTITY_TO_CATEGORY, train_edges, val_edges)
    model = train_linear(dataset, tfidf, TrainConfig(epochs=epochs, seed=seed), graph)
    return graph, model, dataset


class TestTrainLinear:
    def test_separable_reaches_perfect_train_accuracy(self):
        graph, model, dataset = trained()
        assert validation_accuracy(model, dataset.train, graph) == 1.0

    def test_heldout_margin(self):
        graph, model, dataset = trained()
        assert validation_accuracy(model, dataset.validation, graph) == 1.0
        assert predict_proba(model, "kid 99", "aaa fresh") > 0.9
        assert predict_proba(model, "kid 99", "bbb fresh") < 0.1

    def test_identical_features_balanced_is_uncertain(self):
        nodes = [
            Node("c", NodeKind.ENTITY, "same"),
            Node("p", NodeKind.CATEGORY, "same"),
            Node("q", NodeKind.CATEGORY, "same"),
        ]
        graph = WcnGraph(nodes, [("c", "p"), ("c", "q")])
        train = [LabeledEdge("c", "p", Label.ISA), LabeledEdge("c", "q", Label.NOT_ISA)]
        tfidf = fitted(graph, train)
        model = train_linear(
            EdgeDataset(EdgeKind.ENTITY_TO_CATEGORY, train, []), tfidf, TrainConfig(), graph
        )
        assert abs(predict_proba(model, "same", "same") - 0.5) < 0.05

    def test_single_class_rejected(self):
        graph, labeled = separable_world(4)
        positives = [e for e in labeled if e.label is Label.ISA]
        tfidf = fitted(graph, positives)
        with raises_error("training split needs both labels, got ['isa']"):
            train_linear(
                EdgeDataset(EdgeKind.ENTITY_TO_CATEGORY, positives, []),
                tfidf,
                TrainConfig(),
                graph,
            )

    def test_bit_identical_given_seed(self):
        _, model_a, _ = trained(seed=7)
        _, model_b, _ = trained(seed=7)
        assert model_a.dense == model_b.dense
        assert model_a.bias == model_b.bias
        _, model_c, _ = trained(seed=8)
        assert model_c.dense != model_a.dense

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(l2_lambda=-1.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="must be finite"):
                TrainConfig(learning_rate=bad)
            with pytest.raises(ValueError, match="must be finite"):
                TrainConfig(l2_lambda=bad)


@pytest.fixture(scope="module")
def world_datasets():
    """The seed-21 world's ec and cc datasets, split as `train` splits them."""
    world = build_world(seed=21, families=4)
    graph = world.graph
    projected, _ = project(world.source, graph, world.links, ProjectionConfig())
    kinds = (EdgeKind.ENTITY_TO_CATEGORY, EdgeKind.CATEGORY_TO_CATEGORY)
    datasets = {}
    for kind, edges in zip(kinds, split_by_kind(label_edges(graph, projected), graph)):
        train, val = train_val_split(edges, 0.25, 5)
        datasets[kind] = EdgeDataset(kind, train, val)
    return graph, datasets


def train_as_reference(graph, dataset, spec, cfg):
    """Train with the library, assert it equals the reference SGD bit for bit."""
    tfidf = fitted(graph, dataset.train, spec)
    model = train_linear(dataset, tfidf, cfg, graph)
    weights, bias = reference_train_linear(dataset, tfidf, cfg, graph)
    columns = range(2 * tfidf.n_features)
    assert [w.hex() for w in chain(*model.dense)] == [weights.get(c, 0.0).hex() for c in columns]
    assert model.bias.hex() == bias.hex()
    return model


class TestReferenceSgd:
    # With learning_rate * l2_lambda = 1 the scale drops to 0 on step 0,
    # when every weight is still 0. With 1e10 it drops to 0 on step 0 and
    # below 1e-9 again on step 1, after step 0 wrote nonzero weights, so the
    # weights gathered before that rescale are stale.
    @pytest.mark.parametrize(
        "cfg",
        [
            TrainConfig(seed=5),
            TrainConfig(learning_rate=1.0, l2_lambda=1.0, seed=5),
            TrainConfig(learning_rate=1.0, l2_lambda=1e10, seed=5),
        ],
        ids=["default", "rescale-at-step-0", "rescale-after-updates"],
    )
    @pytest.mark.parametrize("kind", list(EdgeKind), ids=lambda kind: kind.name)
    def test_equals_dict_based_reference(self, world_datasets, kind, cfg):
        graph, datasets = world_datasets
        model = train_as_reference(graph, datasets[kind], CHAR, cfg)
        assert any(chain(*model.dense))


def test_cached_halves_hold_reference_values(world_datasets):
    """After training and validation every cached half's values are an
    `array('d')` of the reference vector's values, to the last bit."""
    graph, datasets = world_datasets
    dataset = datasets[EdgeKind.ENTITY_TO_CATEGORY]
    tfidf = fitted(graph, dataset.train, CHAR)
    model = train_linear(dataset, tfidf, TrainConfig(epochs=1, seed=5), graph)
    validation_accuracy(model, dataset.validation, graph)
    edges = dataset.train + dataset.validation
    assert set(tfidf._halves) == {graph.title(n) for e in edges for n in (e.child, e.parent)}
    for title, (cols, vals, _) in tfidf._halves.items():
        assert type(vals) is array and vals.typecode == "d"
        expected = reference_vectorize_title(tfidf, title)
        assert [(c, v.hex()) for c, v in zip(cols, vals)] == [(c, v.hex()) for c, v in expected]


class TestGatherEdgeCases:
    """Titles with no in-vocabulary column and with exactly one, where a bare
    `itemgetter` would raise or return an item instead of a tuple."""

    @staticmethod
    def world():
        nodes = [
            Node("e0", NodeKind.ENTITY, "x"),  # no n-gram of 2 or more characters
            Node("e1", NodeKind.ENTITY, "ab"),  # one: "ab"
            Node("e2", NodeKind.ENTITY, "abc de"),
            Node("c0", NodeKind.CATEGORY, "y"),
            Node("c1", NodeKind.CATEGORY, "cd"),
            Node("c2", NodeKind.CATEGORY, "cd ef"),
        ]
        ec = [(e, c) for e in ("e0", "e1", "e2") for c in ("c0", "c1", "c2")]
        cc = [("c0", "c1"), ("c0", "c2"), ("c1", "c2")]
        graph = WcnGraph(nodes, ec + cc)
        isa = {("e0", "c2"), ("e1", "c1"), ("e2", "c0"), ("c0", "c1"), ("c1", "c2")}
        datasets = {
            kind: EdgeDataset(kind, [
                LabeledEdge(c, p, Label.ISA if (c, p) in isa else Label.NOT_ISA)
                for c, p in edges
            ], [])
            for kind, edges in (
                (EdgeKind.ENTITY_TO_CATEGORY, ec), (EdgeKind.CATEGORY_TO_CATEGORY, cc),
            )
        }
        return graph, datasets

    @pytest.mark.parametrize("sizes", [DEFAULT_NGRAM_SIZES, frozenset({2})], ids=["2-6", "2"])
    def test_equal_references(self, sizes):
        graph, datasets = self.world()
        spec = FeatureSpec(FeatureMode.CHAR_NGRAM, sizes)
        models = {
            kind: train_as_reference(graph, dataset, spec, TrainConfig(seed=3))
            for kind, dataset in datasets.items()
        }
        assert len(models[EdgeKind.ENTITY_TO_CATEGORY].tfidf.half("ab")[0]) == 1
        for model in models.values():
            assert model.tfidf.half("x")[0] == model.tfidf.half("y")[0] == ()
            assert len(model.tfidf.half("cd")[0]) == 1
        cfg = InductionConfig(epsilon=0.01)
        weighted = weigh_edges(
            graph,
            models[EdgeKind.ENTITY_TO_CATEGORY],
            models[EdgeKind.CATEGORY_TO_CATEGORY],
            cfg,
        )
        for child, parent in graph.edges():
            model = models[edge_kind(graph, child)]
            titles = graph.title(child), graph.title(parent)
            expected = reference_proba(model, *titles)
            assert predict_proba(model, *titles).hex() == expected.hex()
            clamped = min(max(expected, cfg.epsilon), 1.0 - cfg.epsilon)
            assert weighted.prob[(child, parent)].hex() == clamped.hex()


class TestPredictProba:
    def test_zero_model_is_half(self):
        tfidf = fit_tfidf(["aa"], WORD)
        model = LinearEdgeModel(
            tfidf, zero_weights(tfidf), 0.0, TrainConfig(), EdgeKind.ENTITY_TO_CATEGORY
        )
        assert predict_proba(model, "aa", "aa") == 0.5
        assert predict_proba(model, "zz", "zz") == 0.5

    def test_monotone_in_positive_feature(self):
        tfidf = fit_tfidf(["aa bb"], WORD)
        child, parent = zero_weights(tfidf)
        parent[tfidf.vocabulary["aa"]] = 2.0
        model = LinearEdgeModel(
            tfidf, (child, parent), 0.0, TrainConfig(), EdgeKind.ENTITY_TO_CATEGORY
        )
        assert predict_proba(model, "x", "aa") > predict_proba(model, "x", "bb")

    def test_strictly_inside_unit_interval(self):
        graph, model, dataset = trained()
        for e in dataset.train:
            p = predict_proba(model, graph.title(e.child), graph.title(e.parent))
            assert 0.0 < p < 1.0

    def test_scaling_keeps_decisions(self):
        graph, model, dataset = trained()
        scaled = LinearEdgeModel(
            model.tfidf,
            tuple([3.0 * w for w in half] for half in model.dense),
            3.0 * model.bias,
            model.hyper,
            model.kind,
        )
        for e in dataset.train + dataset.validation:
            a = predict_proba(model, graph.title(e.child), graph.title(e.parent)) >= 0.5
            b = predict_proba(scaled, graph.title(e.child), graph.title(e.parent)) >= 0.5
            assert a == b


class TestValidationAccuracy:
    def test_three_of_four(self):
        graph, labeled = separable_world(4)
        train = labeled[:4]
        tfidf = fitted(graph, train)
        model = train_linear(
            EdgeDataset(EdgeKind.ENTITY_TO_CATEGORY, train, []), tfidf, TrainConfig(), graph
        )
        # flip one validation label so exactly 3 of 4 match
        val = labeled[4:7] + [LabeledEdge(labeled[7].child, labeled[7].parent, Label.ISA)]
        assert validation_accuracy(model, val, graph) == 0.75

    def test_tie_counts_as_positive(self):
        tfidf = fit_tfidf(["aa"], WORD)
        model = LinearEdgeModel(  # always 0.5
            tfidf, zero_weights(tfidf), 0.0, TrainConfig(), EdgeKind.ENTITY_TO_CATEGORY
        )
        nodes = [Node("c", NodeKind.ENTITY, "aa"), Node("p", NodeKind.CATEGORY, "aa")]
        graph = WcnGraph(nodes, [("c", "p")])
        edges = [LabeledEdge("c", "p", Label.ISA), LabeledEdge("c", "p", Label.NOT_ISA)]
        assert validation_accuracy(model, edges, graph) == 0.5  # positive fraction

    def test_perfect(self):
        graph, model, dataset = trained()
        assert validation_accuracy(model, dataset.validation, graph) == 1.0

    def test_empty_validation(self):
        graph, model, _ = trained()
        with raises_error("no validation edges"):
            validation_accuracy(model, [], graph)


def test_model_file_roundtrip(tmp_path):
    graph, model, dataset = trained()
    save_model(model, tmp_path / "model.ec.json")
    assert [p.name for p in tmp_path.iterdir()] == ["model.ec.json"]
    data = json.loads((tmp_path / "model.ec.json").read_text(encoding="utf-8"))
    assert set(data) == {"kind", "tfidf", "weights", "bias", "config"}
    again = load_model(tmp_path / "model.ec.json")
    assert again.dense == model.dense
    # Trained and loaded weights alike are two `array('d')`.
    assert [(type(ws), ws.typecode) for ws in model.dense + again.dense] == [(array, "d")] * 4
    assert again.bias == model.bias
    assert again.tfidf.vocabulary == model.tfidf.vocabulary
    for e in dataset.train:
        assert predict_proba(again, graph.title(e.child), graph.title(e.parent)) == predict_proba(
            model, graph.title(e.child), graph.title(e.parent)
        )


def test_weights_are_arrays_of_sgds_values(world_datasets, tmp_path):
    """The weights a model keeps, trained or loaded, are two `array('d')`
    holding the reference SGD's values to the last bit."""
    graph, datasets = world_datasets
    dataset = datasets[EdgeKind.ENTITY_TO_CATEGORY]
    model = train_as_reference(graph, dataset, CHAR, TrainConfig(seed=5))
    save_model(model, tmp_path / "model.ec.json")
    again = load_model(tmp_path / "model.ec.json")
    for loaded in (model, again):
        assert [(type(ws), ws.typecode, len(ws)) for ws in loaded.dense] == [
            (array, "d", model.tfidf.n_features)
        ] * 2
    assert [w.hex() for w in chain(*again.dense)] == [w.hex() for w in chain(*model.dense)]


def test_weights_are_little_endian_doubles(tmp_path):
    """Each weight string is the base64 of V little-endian binary64 values,
    bit for bit the model's weights."""
    _, model, _ = trained()
    save_model(model, tmp_path / "model.ec.json")
    data = json.loads((tmp_path / "model.ec.json").read_text(encoding="utf-8"))
    n = model.tfidf.n_features
    for encoded, weights in zip(data["weights"], model.dense, strict=True):
        unpacked = struct.unpack("<%dd" % n, base64.b64decode(encoded, validate=True))
        assert [w.hex() for w in unpacked] == [w.hex() for w in weights]


def test_negative_zero_weight_round_trips_and_scores_as_zero(tmp_path):
    """A `-0.0` weight loads with its bits and saves them back, and every
    edge scores as with `0.0`: a logit's partial sums are never `-0.0`."""
    graph, model, dataset = trained()
    child_cols, _, _ = model.tfidf.half(graph.title(dataset.train[0].child))
    col = child_cols[0]
    child = array("d", model.dense[0])
    child[col] = 0.0
    zero = model._replace(dense=(child, model.dense[1]))
    save_model(zero, tmp_path / "zero.json")
    data = json.loads((tmp_path / "zero.json").read_text(encoding="utf-8"))
    child[col] = -0.0
    data["weights"][0] = base64.b64encode(struct.pack("<%dd" % len(child), *child)).decode()
    edited = tmp_path / "negative.json"
    edited.write_text(json.dumps(data, ensure_ascii=False) + "\n", encoding="utf-8")
    negative = load_model(edited)
    assert negative.dense[0][col].hex() == "-0x0.0p+0"
    save_model(negative, tmp_path / "saved.json")
    assert (tmp_path / "saved.json").read_bytes() == edited.read_bytes()
    for e in dataset.train + dataset.validation:
        titles = graph.title(e.child), graph.title(e.parent)
        assert predict_proba(negative, *titles).hex() == predict_proba(zero, *titles).hex()


# Feature strings rich in what JSON escapes ('"', '\\', control characters)
# or, with ensure_ascii=False, writes raw (non-ASCII, U+2028); no newline,
# which separates the features in a model file.
FEATURE_TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\r\t\u2028é日'),
              st.characters(codec="utf-8", exclude_characters="\n")),
    min_size=1, max_size=6,
)
# One token that is its own lowercase, for a released model's features:
# '"', '\\', control characters that are not whitespace, and non-ASCII.
RELEASED_TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1b\x7fé日'), st.characters(codec="utf-8"))
    .filter(lambda c: not c.isspace() and c.lower() == c),
    min_size=1, max_size=6,
)
# Any finite float, extremes and a repeating binary fraction included.
FLOATS = st.one_of(
    st.sampled_from([5e-324, -5e-324, 1e308, -1e308, 1 / 3, 0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestSavedBytes:
    """`save_model` writes the long values in pieces; the file must hold
    the bytes of one `json.dumps` over the whole model."""

    # V around a base64 piece of `_PIECE` weights; from `_SLICE` features on,
    # the features string is longer than one piece of `_PIECE` characters.
    @given(
        texts=st.lists(FEATURE_TEXT, min_size=1, max_size=8),
        n=st.sampled_from([0, 1, 2, _SLICE, _SLICE + 1, _PIECE - 1, _PIECE, _PIECE + 1]),
        weights=st.lists(FLOATS, min_size=1, max_size=8),
        bias=FLOATS,
        learning_rate=st.sampled_from([0.1, 5e-324, 1e308, 1 / 3]),
        spec=st.sampled_from([CHAR, WORD, FeatureSpec(FeatureMode.CHAR_NGRAM, frozenset({3}))]),
        kind=st.sampled_from(list(EdgeKind)),
    )
    @example(
        texts=['a"b\\c\x00é'], n=1, weights=[5e-324, -1e308, 1 / 3], bias=1 / 3,
        learning_rate=1e308, spec=CHAR, kind=EdgeKind.ENTITY_TO_CATEGORY,
    )
    @example(
        texts=['a"b\\c\x00é\u2028'], n=_PIECE + 1, weights=[-0.0, 1 / 3], bias=0.0,
        learning_rate=0.1, spec=CHAR, kind=EdgeKind.CATEGORY_TO_CATEGORY,
    )
    def test_equals_one_dumps(self, texts, n, weights, bias, learning_rate, spec, kind):
        # A suffix of digits after "\x01" keeps the n features unique.
        features = [f"{texts[i % len(texts)]}\x01{i}" for i in range(n)]
        assert n < _SLICE or len("\n".join(features)) > _PIECE
        tfidf = TfidfModel(spec, dict(zip(features, range(n))), [1 + i % 3 for i in range(n)], 3)
        values = list(islice(cycle(weights), 2 * n))
        hyper = TrainConfig(learning_rate=learning_rate, seed=2**64 - 1)
        model = LinearEdgeModel(tfidf, (values[:n], values[n:]), bias, hyper, kind)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(model, path)
            assert path.read_bytes() == reference_model_text(model).encode("utf-8")

    @settings(max_examples=20, deadline=None)
    @given(
        texts=st.lists(RELEASED_TEXT, min_size=1, max_size=4),
        n=st.sampled_from([1, _SLICE, _SLICE + 1]),
        mode=st.sampled_from(list(FeatureMode)),
        weights=st.lists(FLOATS, min_size=1, max_size=4),
    )
    @example(texts=['a"b\\c\x00é'], n=_SLICE + 1, mode=FeatureMode.CHAR_NGRAM, weights=[1 / 3])
    def test_released_model_saves_the_same_bytes(self, texts, n, mode, weights):
        # Every title is one feature in either mode: it holds no whitespace,
        # it is its own lowercase, and all titles are as long as the one
        # char n-gram size. The digits after "\x01" keep the n titles unique.
        width = max(map(len, texts))
        titles = [f"{texts[i % len(texts)].ljust(width, '~')}\x01{i:05d}" for i in range(n)]
        sizes = frozenset({len(titles[0])})
        spec = FeatureSpec(mode, sizes) if mode is FeatureMode.CHAR_NGRAM else WORD
        kept, released = fit_tfidf(titles, spec), fit_tfidf(titles, spec)
        released.release(titles)
        # Released, the model holds lines, which `to_dict` hands out as they are.
        assert released.to_dict()["features"] == "\n".join(sorted(titles))
        assert released.n_features == n
        values = list(islice(cycle(weights), 2 * n))
        saved = []
        with tempfile.TemporaryDirectory() as tmp:
            for i, tfidf in enumerate((kept, released)):
                model = LinearEdgeModel(tfidf, (values[:n], values[n:]), 0.5, TrainConfig(),
                                        EdgeKind.ENTITY_TO_CATEGORY)
                save_model(model, Path(tmp) / f"{i}.json")
                saved.append((Path(tmp) / f"{i}.json").read_bytes())
        assert saved[1] == saved[0] == reference_model_text(model).encode("utf-8")
        assert json.loads(saved[1])["tfidf"]["features"].split("\n") == sorted(titles)

    def test_release_rejects_a_feature_with_a_newline(self, monkeypatch):
        # Nothing changes: no title is cached, and the vocabulary stays.
        tfidf = TfidfModel(WORD, {"a\nb": 0}, [1], 1)
        calls = []
        monkeypatch.setattr(features, "_vectorize", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="a feature holds a newline"):
            tfidf.release(["a"])
        assert calls == [] and list(tfidf.features()) == ["a\nb"]
        assert tfidf.vocabulary == {"a\nb": 0}
