"""Phase 2b: linear is-a edge classifiers over TFIDF features.

The model is logistic-loss linear, trained by seeded SGD, so it emits
calibrated probabilities directly - the induction phase multiplies them
along paths. Two independent models are trained per run, one for
entity->category edges and one for category->category edges, each with
its own TFIDF vocabulary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyValidation, MalformedFile, SingleClassDataset
from .features import SparseVector, TfidfModel, load_tfidf, save_tfidf, vectorize_edge
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
    samples = [
        (
            vectorize_edge(tfidf, graph.title(e.child), graph.title(e.parent)),
            1.0 if e.label is Label.ISA else 0.0,
        )
        for e in dataset.train
    ]

    values: dict[int, float] = {}
    scale = 1.0
    bias = 0.0
    step = 0
    lr0 = cfg.learning_rate
    for epoch in range(cfg.epochs):
        order = list(range(len(samples)))
        SplitMix64.keyed(cfg.seed, "sgd", epoch).shuffle(order)
        for i in order:
            x, y = samples[i]
            z = scale * sum(values.get(c, 0.0) * v for c, v in x.entries) + bias
            grad = _sigmoid(z) - y
            lr = lr0 / (1.0 + cfg.l2_lambda * lr0 * step)
            scale *= max(0.0, 1.0 - lr * cfg.l2_lambda)
            if scale < 1e-9:
                values = {c: v * scale for c, v in values.items()}
                scale = 1.0
            for c, v in x.entries:
                values[c] = values.get(c, 0.0) - lr * grad * v / scale
            bias -= lr * grad
            step += 1

    weights = {c: scale * v for c, v in values.items() if scale * v != 0.0}
    return LinearEdgeModel(tfidf, weights, bias, cfg, dataset.kind)


def predict_proba(model: LinearEdgeModel, child_title: str, parent_title: str) -> float:
    """Probability that the edge is is-a."""
    x = vectorize_edge(model.tfidf, child_title, parent_title)
    return _sigmoid(model.decision(x))


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
        json.dump(model.to_dict(tfidf_ref), fh, ensure_ascii=False)
        fh.write("\n")


def load_model(path: str | Path, kind: EdgeKind | None = None) -> LinearEdgeModel:
    """Read a model written by `save_model`, and its TFIDF model.

    The file must name its edge kind, and with `kind` given it must be that
    one, so a model cannot score the other kind's edges. Every weight
    column must index the [child | parent] feature vector, [0, 2V).
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
            found = EdgeKind(data["kind"])
            tfidf_path = path.with_name(data["tfidf_ref"])
            cfg = TrainConfig(**data["config"])
            weights = {int(c): float(v) for c, v in data["weights"]}
            bias = float(data["bias"])
        except (KeyError, TypeError, ValueError) as exc:
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
