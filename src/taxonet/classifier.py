"""Phase 2b: linear is-a edge classifiers over TFIDF features.

The model is logistic-loss linear, trained by seeded SGD, so it emits
calibrated probabilities directly - the induction phase multiplies them
along paths. Two independent models are trained per run, one for
entity->category edges and one for category->category edges, each with
its own TFIDF vocabulary.

Training, validation and edge weighing read each title's vector from its
TFIDF model's cache (`TfidfModel.half`), so a title is vectorized once per
model, not once per edge. A logit still sums `w.get(c, 0.0) * v` over the
child entries, then the parent entries: the sequence `decision` sums for
`vectorize_edge`. It is never regrouped into per-title partial sums, which
can differ in the last bit. The same floats summed in the same order give
the same bits as `decision` on any one interpreter, but not across Python
versions: from 3.12 the builtin `sum` compensates its rounding, so trained
weights differ from 3.11's in their last bits (`tests/golden.py` pins
both).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, mul, sub, truediv
from pathlib import Path

from .errors import EmptyValidation, MalformedFile, SingleClassDataset
from .features import SparseVector, TfidfModel, _is_int, load_tfidf, save_tfidf
from .graph import EdgeKind, WcnGraph
from .labeling import EdgeDataset, Label, LabeledEdge
from .rng import SplitMix64


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 0.1
    l2_lambda: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be >= 0")


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _dot(weights: dict[int, float], cols, vals) -> float:
    """sum(weights.get(c, 0.0) * v) over the entries, in their order."""
    return sum(map(mul, map(weights.get, cols, repeat(0.0)), vals))


class LinearEdgeModel:
    """Sparse linear model over concatenated child/parent TFIDF vectors,
    trained for one edge kind."""

    def __init__(
        self,
        tfidf: TfidfModel,
        weights: dict[int, float],
        bias: float,
        hyper: TrainConfig,
        kind: EdgeKind,
    ):
        self.tfidf = tfidf
        self.weights = weights
        self.bias = bias
        self.hyper = hyper
        self.kind = kind

    def decision(self, x: SparseVector) -> float:
        w = self.weights
        return sum(w.get(c, 0.0) * v for c, v in x.entries) + self.bias

    def to_dict(self, tfidf_ref: str) -> dict:
        return {
            "kind": self.kind.value,
            "tfidf_ref": tfidf_ref,
            "weights": [[c, self.weights[c]] for c in sorted(self.weights)],
            "bias": self.bias,
            "config": {
                "epochs": self.hyper.epochs,
                "learning_rate": self.hyper.learning_rate,
                "l2_lambda": self.hyper.l2_lambda,
                "seed": self.hyper.seed,
            },
        }


def train_linear(
    dataset: EdgeDataset, tfidf: TfidfModel, cfg: TrainConfig, graph: WcnGraph
) -> LinearEdgeModel:
    """Train by SGD on logistic loss; bit-identical given data order + seed.

    Learning rate decays as lr0 / (1 + l2 * lr0 * t) over global steps.
    L2 decay is applied through a scale factor so each step stays O(nnz);
    the bias is unregularized.
    """
    labels = {e.label for e in dataset.train}
    if len(labels) < 2:
        raise SingleClassDataset(
            f"training split needs both labels, got {[l.value for l in labels]}"
        )
    # A sample is the child half, the parent half with its columns moved to
    # [V, 2V) (once per parent title), and the label.
    offset = tfidf.n_features
    shifted: dict[str, tuple[tuple[int, ...], tuple[float, ...]]] = {}
    samples = []
    for e in dataset.train:
        title = graph.title(e.parent)
        if title not in shifted:
            cols, vals = tfidf.half(title)
            shifted[title] = (tuple(map(add, cols, repeat(offset))), vals)
        y = 1.0 if e.label is Label.ISA else 0.0
        samples.append((tfidf.half(graph.title(e.child)), shifted[title], y))

    values: dict[int, float] = {}
    scale = 1.0
    bias = 0.0
    step = 0
    lr0 = cfg.learning_rate
    for epoch in range(cfg.epochs):
        order = list(range(len(samples)))
        SplitMix64.keyed(cfg.seed, "sgd", epoch).shuffle(order)
        for i in order:
            (child_cols, child_vals), (parent_cols, parent_vals), y = samples[i]
            dot = _dot(values, chain(child_cols, parent_cols), chain(child_vals, parent_vals))
            z = scale * dot + bias
            grad = _sigmoid(z) - y
            lr = lr0 / (1.0 + cfg.l2_lambda * lr0 * step)
            scale *= max(0.0, 1.0 - lr * cfg.l2_lambda)
            if scale < 1e-9:
                values = {c: v * scale for c, v in values.items()}
                scale = 1.0
            # values[c] = values.get(c, 0.0) - (lr * grad) * v / scale for each
            # entry; no column repeats within a sample, so one update per half
            # reads the same old values a loop over the entries would.
            g = lr * grad
            for cols, vals in ((child_cols, child_vals), (parent_cols, parent_vals)):
                steps = map(truediv, map(mul, repeat(g), vals), repeat(scale))
                values.update(zip(cols, map(sub, map(values.get, cols, repeat(0.0)), steps)))
            bias -= g
            step += 1

    weights = {c: scale * v for c, v in values.items() if scale * v != 0.0}
    return LinearEdgeModel(tfidf, weights, bias, cfg, dataset.kind)


def predict_proba(model: LinearEdgeModel, child_title: str, parent_title: str) -> float:
    """Probability that the edge is is-a.

    Equal, bit for bit, to
    `_sigmoid(model.decision(vectorize_edge(model.tfidf, child_title, parent_title)))`.
    """
    tfidf = model.tfidf
    child_cols, child_vals = tfidf.half(child_title)
    parent_cols, parent_vals = tfidf.half(parent_title)
    cols = chain(child_cols, map(add, parent_cols, repeat(tfidf.n_features)))
    return _sigmoid(_dot(model.weights, cols, chain(child_vals, parent_vals)) + model.bias)


def validation_accuracy(
    model: LinearEdgeModel, validation: list[LabeledEdge], graph: WcnGraph
) -> float:
    """Fraction of edges where the 0.5-thresholded prediction matches.

    Probability exactly 0.5 counts as a positive prediction.
    """
    if not validation:
        raise EmptyValidation("no validation edges")
    correct = 0
    for edge in validation:
        p = predict_proba(model, graph.title(edge.child), graph.title(edge.parent))
        if (p >= 0.5) == (edge.label is Label.ISA):
            correct += 1
    return correct / len(validation)


def save_model(model: LinearEdgeModel, path: str | Path) -> None:
    """Write the model JSON plus its TFIDF model at `<stem>.tfidf.json`."""
    path = Path(path)
    tfidf_ref = path.name.removesuffix(".json") + ".tfidf.json"
    save_tfidf(model.tfidf, path.with_name(tfidf_ref))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # One dumps call: json.dump never uses the C encoder.
        fh.write(json.dumps(model.to_dict(tfidf_ref), ensure_ascii=False))
        fh.write("\n")


def _column(value) -> int:
    if not _is_int(value):
        raise TypeError(f"weight column must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """A JSON number as a float; a bool, NaN or an infinity is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return float(value)


def load_model(path: str | Path, kind: EdgeKind | None = None) -> LinearEdgeModel:
    """Read a model written by `save_model`, and its TFIDF model.

    The file must name its edge kind, and with `kind` given it must be that
    one, so a model cannot score the other kind's edges. Every weight
    column must be a JSON integer indexing the [child | parent] feature
    vector, [0, 2V), and every weight value and the bias a finite JSON
    number.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
            found = EdgeKind(data["kind"])
            tfidf_path = path.with_name(data["tfidf_ref"])
            cfg = TrainConfig(**data["config"])
            weights = {_column(c): _number(v, "weight") for c, v in data["weights"]}
            bias = _number(data["bias"], "bias")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedFile(path, f"bad model file: {type(exc).__name__}: {exc}") from None
    if kind is not None and found is not kind:
        raise MalformedFile(
            path, f"bad model file: kind is {found.value!r}, expected {kind.value!r}"
        )
    tfidf = load_tfidf(tfidf_path)
    columns = 2 * tfidf.n_features
    outside = sorted(c for c in weights if not 0 <= c < columns)
    if outside:
        raise MalformedFile(
            path, f"bad model file: weight column {outside[0]} outside [0, {columns})"
        )
    return LinearEdgeModel(tfidf, weights, bias, cfg, found)
