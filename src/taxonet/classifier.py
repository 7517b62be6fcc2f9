"""Phase 2b: linear is-a edge classifiers over TFIDF features.

The model is logistic-loss linear, trained by seeded SGD, so it emits
calibrated probabilities directly - the induction phase multiplies them
along paths. Two independent models are trained per run, one for
entity->category edges and one for category->category edges, each with
its own TFIDF vocabulary. A model is a named tuple, like the library's
other records.

Training, validation and edge weighing read each title's vector from its
TFIDF model's cache (see `TfidfModel`). Weights live in two dense vectors
of V floats, one for the child's columns [0, V) and one for the parent's
[V, 2V), both indexed from 0. During training they are two lists, SGD's
state: SGD writes each step back with a plain store loop over the
entries, and CPython specialises a list store by int index, where a `map`
over `list.__setitem__` calls a method-wrapper per element. A model keeps
them as two `array('d')`, 8 bytes a weight and no float object each: at
the end of training the final L2 scale is applied as each list is copied
into its array, and `load_model` builds the arrays straight from the
file's bytes. A title's cached `gather` reads its weights from either
vector, list or array, in one C call, so one getter per title serves both
sides of an edge; the gathers feed every dot product, in SGD and in
scoring.

A logit is one `sum` of weight * value over the child's entries, then
the parent's entries, each in column order, with `0.0` for every column
without a weight; it is never regrouped into per-title partial sums,
which can differ in the last bit. The same floats summed in the same
order give the same bits on any one interpreter, but not across Python
versions: from 3.12 the builtin `sum` compensates its rounding, so
trained weights differ from 3.11's in their last bits (`tests/golden.py`
pins both).

A model file is one JSON object on one line, the model as it is held in
memory:

    {"kind": "ec" | "cc",
     "tfidf": {"spec": {"mode", "ngram_sizes", "lowercase"}, "n_docs",
               "features": "the vocabulary in column order, a line each",
               "df": [the document frequency of each feature]},
     "weights": ["V child weights", "V parent weights"],
     "bias": float,
     "config": {"epochs", "learning_rate", "l2_lambda", "seed"}}

idf is not stored: `TfidfModel` computes it from `n_docs` and `df`. The
features are one string, the lines a loaded model keeps (see `features`).
Each weight vector is the base64 of its bytes, V little-endian IEEE-754
binary64 values, so a weight loads with its bits, `-0.0` included, and
with no number to parse. The file is the bytes of
`json.dumps(model.to_dict(), ensure_ascii=False)`, each weight vector
written as that base64 string, and a newline, but `save_model` writes the
four long values in pieces of `_PIECE` characters, entries or weights, so
neither the whole file's text nor a whole vector's base64 is ever held in
memory, and encodes each weight piece from a view of its array, not a
copy. `save_model(load_model(p))` rewrites `p` byte for byte.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import sys
from array import array
from collections import namedtuple
from itertools import chain, repeat
from operator import add, mul
from pathlib import Path
from typing import Iterable, Iterator

from .errors import MalformedFile, TaxonetError
from .features import TfidfModel, check_json_types
from .graph import EdgeKind, WcnGraph, _write_lines
from .labeling import EdgeDataset, Label, LabeledEdge
from .rng import SplitMix64


class TrainConfig(namedtuple("TrainConfig", "epochs learning_rate l2_lambda seed",
                             defaults=(10, 0.1, 1e-6, 0))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ValueError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda!r}")
        return self


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


class LinearEdgeModel(namedtuple("LinearEdgeModel", "tfidf dense bias hyper kind")):
    """Linear model over concatenated child/parent TFIDF vectors, trained
    for one edge kind.

    `dense` is (child, parent): two `array('d')` of V weights, one per half
    of the [child | parent] vector, that `predict_proba` reads and `to_dict`
    returns as they are.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "tfidf": self.tfidf.to_dict(),
            "weights": self.dense,
            "bias": self.bias,
            "config": self.hyper._asdict(),  # fields in the written key order
        }


def train_linear(
    dataset: EdgeDataset, tfidf: TfidfModel, cfg: TrainConfig, graph: WcnGraph
) -> LinearEdgeModel:
    """Train by SGD on logistic loss; bit-identical given data order + seed.

    Learning rate decays as lr0 / (1 + l2 * lr0 * t) over global steps.
    L2 decay is applied through a scale factor so each step stays O(nnz);
    the bias is unregularized. `graph` is read only through `title`.
    """
    labels = {e.label for e in dataset.train}
    if len(labels) < 2:
        raise TaxonetError(f"training split needs both labels, got {[l.value for l in labels]}")
    # A sample is the child's half, the parent's half and the label.
    samples = [
        (
            *tfidf.half(graph.title(e.child)),
            *tfidf.half(graph.title(e.parent)),
            1.0 if e.label is Label.ISA else 0.0,
        )
        for e in dataset.train
    ]

    child_values = [0.0] * tfidf.n_features
    parent_values = [0.0] * tfidf.n_features
    scale = 1.0
    bias = 0.0
    step = 0
    lr0 = cfg.learning_rate
    for epoch in range(cfg.epochs):
        order = list(range(len(samples)))
        SplitMix64.keyed(cfg.seed, "sgd", epoch).shuffle(order)
        for i in order:
            child_cols, child_vals, child_get, parent_cols, parent_vals, parent_get, y = samples[i]
            child_w, parent_w = child_get(child_values), parent_get(parent_values)
            dot = sum(map(mul, chain(child_w, parent_w), chain(child_vals, parent_vals)))
            z = scale * dot + bias
            grad = _sigmoid(z) - y
            lr = lr0 / (1.0 + cfg.l2_lambda * lr0 * step)
            scale *= max(0.0, 1.0 - lr * cfg.l2_lambda)
            if scale < 1e-9:
                child_values = [v * scale for v in child_values]
                parent_values = [v * scale for v in parent_values]
                scale = 1.0
            # values[c] -= (lr * grad) * v / scale per entry. No column repeats
            # in a half, so each store reads what the gather read, or rescaled.
            g = lr * grad
            for c, v in zip(child_cols, child_vals):
                child_values[c] -= g * v / scale
            for c, v in zip(parent_cols, parent_vals):
                parent_values[c] -= g * v / scale
            bias -= g
            step += 1

    # Each weight is w * scale, then + 0.0, which turns -0.0 into 0.0 and
    # leaves every other float as it is, so a zero saves as `0.0`.
    dense = tuple(
        array("d", map(add, map(mul, values, repeat(scale)), repeat(0.0)))
        for values in (child_values, parent_values)
    )
    return LinearEdgeModel(tfidf, dense, bias, cfg, dataset.kind)


def predict_proba(model: LinearEdgeModel, child_title: str, parent_title: str) -> float:
    """Probability that the edge is is-a.

    The logit is the bias plus one `sum` of weight * value over the child
    title's entries, then the parent title's, each in column order.
    """
    _, child_vals, child_get = model.tfidf.half(child_title)
    _, parent_vals, parent_get = model.tfidf.half(parent_title)
    child_w, parent_w = model.dense
    weights = chain(child_get(child_w), parent_get(parent_w))
    return _sigmoid(sum(map(mul, weights, chain(child_vals, parent_vals))) + model.bias)


def validation_accuracy(
    model: LinearEdgeModel, validation: list[LabeledEdge], graph: WcnGraph
) -> float:
    """Fraction of edges where the 0.5-thresholded prediction matches.

    Probability exactly 0.5 counts as a positive prediction. `graph` is
    read only through `title`.
    """
    if not validation:
        raise TaxonetError("no validation edges")
    correct = 0
    for edge in validation:
        p = predict_proba(model, graph.title(edge.child), graph.title(edge.parent))
        if (p >= 0.5) == (edge.label is Label.ISA):
            correct += 1
    return correct / len(validation)


# Characters of the features string, entries of `df` or weights per piece
# `save_model` writes. A multiple of 3 weights is a multiple of 3 bytes, so
# no piece but the last is padded, and the pieces' base64 joins into the
# whole vector's.
_PIECE = 12288
# Stands in for each long value in the text `save_model` writes around them;
# no key or short value of a model file is this string.
_HOLE = "\0"


def save_model(model: LinearEdgeModel, path: str | Path) -> None:
    """Write the model file (see the module docstring). The rest is dumped
    once with `_HOLE` in each long value's place, and `_filled` puts each
    value's pieces into its hole; `json.dumps`, since `json.dump` never uses
    the C encoder."""
    data = model.to_dict()
    tfidf = data["tfidf"]
    pieces = [_string_pieces(tfidf["features"]), _list_pieces(tfidf["df"]),
              *map(_base64_pieces, data["weights"])]
    tfidf["features"] = tfidf["df"] = _HOLE
    data["weights"] = [_HOLE, _HOLE]
    head, *tails = json.dumps(data, ensure_ascii=False).split(json.dumps(_HOLE))
    _write_lines(path, _filled(head, zip(pieces, tails, strict=True)))


def _filled(head: str, holes: Iterator[tuple[Iterable[str], str]]) -> Iterator[str]:
    """`head`; each long value's pieces and the text after its hole; LF."""
    yield head
    for pieces, tail in holes:
        yield from pieces
        yield tail
    yield "\n"


def _string_pieces(text: str) -> Iterator[str]:
    """`text` as a JSON string, `_PIECE` characters escaped at a time; JSON
    escapes each character on its own, so the pieces join to one escape."""
    yield '"'
    for start in range(0, len(text), _PIECE):
        yield json.dumps(text[start : start + _PIECE], ensure_ascii=False)[1:-1]
    yield '"'


def _list_pieces(values: list[int]) -> Iterator[str]:
    """`values` as a JSON list, `_PIECE` entries at a time."""
    yield "["
    for start in range(0, len(values), _PIECE):
        yield ", " * (start > 0) + json.dumps(values[start : start + _PIECE])[1:-1]
    yield "]"


def _base64_pieces(weights: array) -> Iterator[str]:
    """The weights' little-endian bytes as a base64 JSON string, `_PIECE`
    weights at a time, each encoded from a view of the array, or on a
    big-endian host from a byte-swapped copy; a list raises TypeError."""
    yield '"'
    with memoryview(weights) as view:
        for start in range(0, len(view), _PIECE):
            piece = view[start : start + _PIECE]
            if sys.byteorder == "big":
                piece = array("d", piece)
                piece.byteswap()
            yield base64.b64encode(piece).decode("ascii")
    yield '"'


def _doubles(text: str) -> array:
    """The weights a base64 string holds, 8 little-endian bytes each; every
    one must be finite."""
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"weights must be base64: {exc}") from None
    if len(raw) % 8:
        raise ValueError(f"weights must be 8 bytes each, got {len(raw)} bytes")
    weights = array("d", raw)
    if sys.byteorder == "big":
        weights.byteswap()
    # A sum is finite only if every weight is, though finite ones can overflow it.
    if not (math.isfinite(sum(weights)) or all(map(math.isfinite, weights))):
        bad = next(w for w in weights if not math.isfinite(w))
        raise ValueError(f"weight must be finite, got {bad!r}")
    return weights


def _predates_format(data) -> bool:
    """Whether parsed JSON is a model file written before weights were
    base64 and features one string: weights as lists of numbers, features
    as a list."""
    if type(data) is not dict:
        return False
    weights, tfidf = data.get("weights"), data.get("tfidf")
    return (type(weights) is list and weights != [] and all(type(w) is list for w in weights)
            and type(tfidf) is dict and type(tfidf.get("features")) is list)


def load_model(path: str | Path, kind: EdgeKind | None = None) -> LinearEdgeModel:
    """Read a model written by `save_model`.

    The file must name its edge kind, and with `kind` given it must be that
    one, so a model cannot score the other kind's edges. `weights` must be
    two base64 strings of 8 * V bytes each, V being the vocabulary size,
    every weight finite, and the bias a finite JSON number. `config` holds
    exactly `TrainConfig`'s keys, each with the JSON type of its default,
    since `save_model` writes them back. A `-0.0` weight, which
    `train_linear` never writes, scores as `0.0`, since the partial sums of
    a logit are never `-0.0`. The weights are decoded before
    `TfidfModel.from_dict` checks the `tfidf` object, so a file with faults
    in both its weights and its `tfidf` reports the weights' fault; their
    count is checked against V once V is known. A file in the layout
    written before this one is reported as such, to be retrained.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
            if _predates_format(data):
                raise MalformedFile(path, "bad model file: it predates the current format "
                                    "(weights as lists of numbers, features as a list); "
                                    "retrain it with `taxonet train`")
            found = EdgeKind(data["kind"])
            defaults = TrainConfig._field_defaults
            config = data["config"]
            if not (type(config) is dict and config.keys() == defaults.keys()):
                raise ValueError(f"config must hold exactly the keys {', '.join(defaults)}")
            check_json_types(defaults, config)
            cfg = TrainConfig(**config)
            # Each string leaves the list, and memory, as it is decoded.
            encoded = data.pop("weights")
            if not (type(encoded) is list and len(encoded) == 2
                    and set(map(type, encoded)) == {str}):
                raise TypeError("weights must be a list of two base64 strings")
            dense = tuple(_doubles(encoded.pop(0)) for _ in range(2))
            tfidf = TfidfModel.from_dict(data.pop("tfidf"))
            n = tfidf.n_features
            if any(len(ws) != n for ws in dense):
                sizes = [8 * len(ws) for ws in dense]
                raise ValueError(f"weights must be two strings of {8 * n} bytes, got {sizes} bytes")
            bias = data["bias"]
            # JSON decodes to exact types, and `bool` is not `int`.
            if type(bias) not in (int, float):
                raise TypeError(f"bias must be a number, got {bias!r}")
            if not math.isfinite(bias):  # OverflowError for an int too large for a float
                raise ValueError(f"bias must be finite, got {bias!r}")
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise MalformedFile(path, f"bad model file: {type(exc).__name__}: {exc}") from None
    if kind is not None and found is not kind:
        raise MalformedFile(
            path, f"bad model file: kind is {found.value!r}, expected {kind.value!r}"
        )
    return LinearEdgeModel(tfidf, dense, float(bias), cfg, found)
