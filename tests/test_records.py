"""The contract of the library's records: how each is built, its defaults,
its checks and their messages, that no field can be assigned, equality
and hashing, and the key order of what a record writes out.

The records are named tuples, so they compare and hash as tuples of
their fields; these tests pin what the rest of the library reads of them.
"""

import json
import math
import re

import pytest

from taxonet import cli
from taxonet.classifier import LinearEdgeModel, TrainConfig, load_model, save_model
from taxonet.errors import MalformedFile
from taxonet.features import DEFAULT_NGRAM_SIZES, FeatureMode, FeatureSpec, fit_tfidf
from taxonet.graph import EdgeKind, Node, NodeKind, Provenance, TaxoEdge
from taxonet.induction import InductionConfig, InductionReport, ScoredPath
from taxonet.labeling import EdgeDataset, Label, LabeledEdge
from taxonet.metrics import AnnotatedPath, EdgeMetrics, GoldEdgeSet, PathMetrics
from taxonet.projection import ProjectionConfig, ProjectionReport

# Each record: its class, one value per field in field order, and its defaults.
RECORDS = [
    (Node, ("a", NodeKind.ENTITY, "A"), {}),
    (TaxoEdge, ("a", "b", 0.5, Provenance.INDUCED),
     {"score": 1.0, "provenance": Provenance.PROJECTED}),
    (FeatureSpec, (FeatureMode.CHAR_NGRAM, frozenset({3})), {"ngram_sizes": DEFAULT_NGRAM_SIZES}),
    (TrainConfig, (3, 0.5, 0.0, 7),
     {"epochs": 10, "learning_rate": 0.1, "l2_lambda": 1e-6, "seed": 0}),
    (LabeledEdge, ("a", "b", Label.ISA), {}),
    (EdgeDataset, (EdgeKind.ENTITY_TO_CATEGORY, [], []), {}),
    (ProjectionConfig, (2, 1), {"k1": 14, "k2": 3}),
    (ProjectionReport, (0.5, 0.25, 1, 2, 3, 14, 3), {}),
    (InductionConfig, (2, 0.25, True), {"k": 1, "epsilon": 1e-6, "uniform": False}),
    (ScoredPath, (("a", "b"), 0.5, 1), {}),
    (InductionReport, (0.5, 0.25, ["c"], 4, 2, False), {}),
    (GoldEdgeSet, (frozenset({"a"}), {("a", "b"): Label.ISA}), {}),
    (AnnotatedPath, (("a", "b", "c"), 2), {"first_wrong_index": None}),
    (EdgeMetrics, (0.5, 0.75, 1.0, False, 2), {"precision_defined": True, "unjudged_returned": 0}),
    (PathMetrics, (3.0, 2.0, 0.5), {}),
    (LinearEdgeModel, (fit_tfidf(["ab"], FeatureSpec(FeatureMode.WORD)), ((0.5,), (0.25,)), 0.0,
                       TrainConfig(), EdgeKind.CATEGORY_TO_CATEGORY), {}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, values, defaults):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert by_position == by_keyword
    assert [getattr(by_keyword, name) for name in cls._fields] == list(values)
    assert repr(by_position).startswith(f"{cls.__name__}({cls._fields[0]}=")


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_defaults(cls, values, defaults):
    assert cls._field_defaults == defaults
    required = values[: len(values) - len(defaults)]
    record = cls(*required)
    assert {name: getattr(record, name) for name in defaults} == defaults
    if required:
        with pytest.raises(TypeError):
            cls(*required[:-1])


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, values, defaults):
    record = cls(*values)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict
    assert list(record) == list(values)


@pytest.mark.parametrize("cls, kwargs, message", [
    (TaxoEdge, {"child": "a", "parent": "b", "score": 1.5}, "edge score out of [0,1]: 1.5"),
    (TaxoEdge, {"child": "a", "parent": "b", "score": -0.25}, "edge score out of [0,1]: -0.25"),
    (FeatureSpec, {"mode": FeatureMode.CHAR_NGRAM, "ngram_sizes": frozenset()},
     "ngram_sizes must be nonempty with sizes >= 1"),
    (FeatureSpec, {"mode": FeatureMode.CHAR_NGRAM, "ngram_sizes": frozenset({0, 2})},
     "ngram_sizes must be nonempty with sizes >= 1"),
    (TrainConfig, {"epochs": 0}, "epochs must be >= 1"),
    (TrainConfig, {"learning_rate": 0.0}, "learning_rate must be finite and > 0, got 0.0"),
    (TrainConfig, {"learning_rate": math.inf}, "learning_rate must be finite and > 0, got inf"),
    (TrainConfig, {"l2_lambda": -1.0}, "l2_lambda must be finite and >= 0, got -1.0"),
    (TrainConfig, {"l2_lambda": math.nan}, "l2_lambda must be finite and >= 0, got nan"),
    (ProjectionConfig, {"k1": 0}, "k1 and k2 must be >= 1"),
    (ProjectionConfig, {"k2": 0}, "k1 and k2 must be >= 1"),
    (InductionConfig, {"k": 0}, "k must be >= 1"),
    (InductionConfig, {"epsilon": 0.0}, "epsilon must be in (0, 0.5), got 0.0"),
    (InductionConfig, {"epsilon": 0.5}, "epsilon must be in (0, 0.5), got 0.5"),
    (GoldEdgeSet, {"sampled_nodes": frozenset({"a"}), "judgments": {("x", "b"): Label.ISA}},
     "judged edge child 'x' not in sampled nodes"),
    (AnnotatedPath, {"nodes": ()}, "empty path"),
    (AnnotatedPath, {"nodes": ("a", "b"), "first_wrong_index": 0},
     "first_wrong_index out of range: 0"),
    (AnnotatedPath, {"nodes": ("a", "b"), "first_wrong_index": 2},
     "first_wrong_index out of range: 2"),
])
def test_check_message(cls, kwargs, message):
    exact = pytest.raises(ValueError, match=f"^{re.escape(message)}$")
    with exact:
        cls(**kwargs)
    with exact:  # a check runs however the record is built
        cls(*(kwargs.get(name, cls._field_defaults.get(name)) for name in cls._fields))


def test_word_mode_spec_skips_the_size_check():
    assert FeatureSpec(FeatureMode.WORD, frozenset()).ngram_sizes == frozenset()


def test_equal_records_hash_alike():
    # `LabeledEdge`s go into sets, and `Node`s and `TaxoEdge`s into dicts.
    isa, notisa = LabeledEdge("a", "b", Label.ISA), LabeledEdge("a", "b", Label.NOT_ISA)
    assert {isa, LabeledEdge("a", "b", Label.ISA), notisa} == {isa, notisa}
    assert {Node("a", NodeKind.ENTITY, "A"): 1}[Node("a", NodeKind.ENTITY, "A")] == 1
    assert {TaxoEdge("a", "b"): 1}[TaxoEdge("a", "b", 1.0, Provenance.PROJECTED)] == 1
    assert TaxoEdge("a", "b") != TaxoEdge("a", "b", 0.5)
    assert TaxoEdge("a", "b") != TaxoEdge("a", "b", provenance=Provenance.INDUCED)
    assert Node("a", NodeKind.ENTITY, "A") != Node("a", NodeKind.CATEGORY, "A")


def test_to_dict_key_order():
    projection = ProjectionReport(0.5, 0.25, 1, 2, 3, 14, 3).to_dict()
    assert list(projection) == ["entity_coverage", "category_coverage", "skipped_no_equivalent",
                                "skipped_no_path", "edges_added", "k1", "k2"]
    induction = InductionReport(0.5, 0.25, ["c"], 4, 2, False).to_dict()
    assert list(induction) == ["entity_coverage", "category_coverage", "uncovered",
                               "edges_added", "k", "uniform"]
    model = tiny_model()
    assert list(model.to_dict()["config"].items()) == [
        ("epochs", 3), ("learning_rate", 0.5), ("l2_lambda", 0.0), ("seed", 7),
    ]


def test_config_defaults_read_the_library():
    assert list(cli.CONFIG_DEFAULTS.items()) == [
        ("k1", 14), ("k2", 3),
        ("epochs", 10), ("learning_rate", 0.1), ("l2_lambda", 1e-6), ("seed", 0),
        ("k", 1), ("epsilon", 1e-6), ("uniform", False),
        ("ngram_sizes", [2, 3, 4, 5, 6]), ("mode", "char"), ("val_fraction", 0.25), ("min_df", 1),
    ]


def tiny_model() -> LinearEdgeModel:
    tfidf = fit_tfidf(["ab", "bc"], FeatureSpec(FeatureMode.CHAR_NGRAM, frozenset({2})))
    zeros = [0.0] * tfidf.n_features
    return LinearEdgeModel(tfidf, (zeros, list(zeros)), 0.0, TrainConfig(3, 0.5, 0.0, 7),
                           EdgeKind.ENTITY_TO_CATEGORY)


KEYS = "config must hold exactly the keys epochs, learning_rate, l2_lambda, seed"


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda c: c.pop("seed"), f"ValueError: {KEYS}", id="missing"),
    pytest.param(lambda c: c.update(momentum=0.9), f"ValueError: {KEYS}", id="extra"),
    pytest.param(lambda c: c.update(epochs=3.0),
                 "TypeError: config key 'epochs' must be an integer, got 3.0", id="mistyped"),
    pytest.param(lambda c: c.update(learning_rate=0),
                 "ValueError: learning_rate must be finite and > 0, got 0", id="out-of-range"),
])
def test_load_model_checks_config(tmp_path, edit, message):
    path = tmp_path / "model.json"
    save_model(tiny_model(), path)
    assert load_model(path).hyper == TrainConfig(3, 0.5, 0.0, 7)
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data["config"])
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(MalformedFile, match=f"^{re.escape(f'{path}: bad model file: {message}')}$"):
        load_model(path)
