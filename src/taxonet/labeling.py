"""Phase 2a: build labeled edge datasets from the projected taxonomy.

Projected edges become is-a positives; every other network edge whose
child already has a hypernym in the projected taxonomy becomes a
not-is-a negative. Edges from uncovered children stay unlabeled - nothing
is known about them yet.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from enum import Enum

from .graph import EdgeKind, Taxonomy, WcnGraph, check_projected, edge_kind
from .rng import SplitMix64


class Label(Enum):
    ISA = "isa"
    NOT_ISA = "notisa"


LabeledEdge = namedtuple("LabeledEdge", "child parent label")
EdgeDataset = namedtuple("EdgeDataset", "kind train validation")  # lists of LabeledEdge


def label_edges(graph: WcnGraph, projected: Taxonomy) -> list[LabeledEdge]:
    """Label network edges against the projected taxonomy.

    Returns edges sorted by (child, parent) for determinism.
    """
    check_projected(graph, projected)
    positives = projected.edge_pairs()
    labeled = []
    for child, parent in graph.edges():
        if (child, parent) in positives:
            labeled.append(LabeledEdge(child, parent, Label.ISA))
        elif projected.covered(child):
            labeled.append(LabeledEdge(child, parent, Label.NOT_ISA))
    labeled.sort(key=lambda e: (e.child, e.parent))
    return labeled


def split_by_kind(edges: list[tuple], graph: WcnGraph) -> tuple[list[tuple], list[tuple]]:
    """Partition edges, each a tuple that begins (child, parent), into
    (entity->category, category->category), order kept."""
    entity_edges = []
    category_edges = []
    for edge in edges:
        if edge_kind(graph, edge[0]) is EdgeKind.ENTITY_TO_CATEGORY:
            entity_edges.append(edge)
        else:
            category_edges.append(edge)
    return entity_edges, category_edges


def check_val_fraction(val_fraction: float) -> float:
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction!r}")
    return val_fraction


def train_val_split(
    edges: list[LabeledEdge], val_fraction: float, seed: int
) -> tuple[list[LabeledEdge], list[LabeledEdge]]:
    """Stratified split: floor(val_fraction * class size) per label class.

    Each class is sorted, shuffled by a stream keyed on (seed, label), and
    its prefix goes to validation; identical seeds give identical splits on
    any platform.
    """
    check_val_fraction(val_fraction)
    train: list[LabeledEdge] = []
    validation: list[LabeledEdge] = []
    for label in Label:
        group = sorted(
            (e for e in edges if e.label is label), key=lambda e: (e.child, e.parent)
        )
        if not group:
            print(f"no {label.value} edges to split; validation may miss the class",
                  file=sys.stderr)
            continue
        rng = SplitMix64.keyed(seed, "split", label.value)
        rng.shuffle(group)
        n_val = int(val_fraction * len(group))
        validation.extend(group[:n_val])
        train.extend(group[n_val:])
    return train, validation
