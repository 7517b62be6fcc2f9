"""Evaluation: edge-level precision/recall/coverage, path prefixes, structure.

Edge metrics are computed per sampled node against human judgments:
coverage asks whether any hypernym came back, recall whether a correct
one did, and precision averages the per-node ratio of correct to returned
hypernyms over the nodes that returned anything. Path metrics measure how
far a generalization chain climbs before its first wrong hop; lengths are
counted in nodes.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import chain
from operator import attrgetter
from pathlib import Path

from .errors import MalformedFile, MalformedRow, TaxonetError
from .graph import (NodeKind, Taxonomy, WcnGraph, _first_fault, _gc_paused, _rows, _text,
                    _write_lines)
from .labeling import Label
from .rng import SplitMix64


class GoldEdgeSet(namedtuple("GoldEdgeSet", "sampled_nodes judgments")):
    """A frozenset of sampled node ids, and a dict of (child, parent) -> Label."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for child, _ in self.judgments:
            if child not in self.sampled_nodes:
                raise ValueError(f"judged edge child {child!r} not in sampled nodes")
        return self


class AnnotatedPath(namedtuple("AnnotatedPath", "nodes first_wrong_index", defaults=(None,))):
    """A generalization chain; first_wrong_index marks the first node
    reached via a not-is-a hop (0-based), absent when fully correct."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.nodes:
            raise ValueError("empty path")
        if self.first_wrong_index is not None and not (
            1 <= self.first_wrong_index < len(self.nodes)
        ):
            raise ValueError(f"first_wrong_index out of range: {self.first_wrong_index}")
        return self


EdgeMetrics = namedtuple("EdgeMetrics", "macro_precision recall coverage precision_defined "
                         "unjudged_returned", defaults=(True, 0))
PathMetrics = namedtuple("PathMetrics", "avg_length avg_cpp avg_ratio_cpp")


def edge_metrics(taxonomy: Taxonomy, gold: GoldEdgeSet) -> EdgeMetrics:
    """Macro-P / R / C over the gold sample.

    A returned hypernym with no judgment counts as not-is-a (and is
    tallied in unjudged_returned). With nothing returned for any node,
    precision is undefined and reported as 0 with the flag cleared.
    """
    if not gold.sampled_nodes:
        raise TaxonetError("no sampled nodes")
    answered = 0
    hit = 0
    precisions = []
    unjudged = 0
    for node in sorted(gold.sampled_nodes):
        returned = taxonomy.hypernyms(node)
        if not returned:
            continue
        answered += 1
        correct = 0
        for parent in returned:
            judgment = gold.judgments.get((node, parent))
            if judgment is None:
                unjudged += 1
            elif judgment is Label.ISA:
                correct += 1
        if correct:
            hit += 1
        precisions.append(correct / len(returned))
    n = len(gold.sampled_nodes)
    return EdgeMetrics(
        macro_precision=sum(precisions) / answered if answered else 0.0,
        recall=hit / n,
        coverage=answered / n,
        precision_defined=answered > 0,
        unjudged_returned=unjudged,
    )


def path_metrics(paths: list[AnnotatedPath]) -> PathMetrics:
    """Average length, correct-prefix length, and prefix ratio (in nodes)."""
    if not paths:
        raise TaxonetError("no annotated paths")
    lengths = []
    cpps = []
    ratios = []
    for path in paths:
        length = len(path.nodes)
        cpp = path.first_wrong_index if path.first_wrong_index is not None else length
        lengths.append(length)
        cpps.append(cpp)
        ratios.append(cpp / length)
    n = len(paths)
    return PathMetrics(sum(lengths) / n, sum(cpps) / n, sum(ratios) / n)


def branching_factor(taxonomy: Taxonomy) -> float:
    """Mean hypernym count over nodes that have at least one."""
    if len(taxonomy) == 0:
        raise TaxonetError("no edges")
    return len(taxonomy) / len(taxonomy.covered_nodes())


def max_depth_sampled(taxonomy: Taxonomy, sample: int, seed: int) -> int:
    """Longest strongest-edge chain, in nodes, over a seeded sample of covered nodes.

    From each sampled node the walk climbs its highest-scoring hypernym,
    ties taking the smaller id, until a node has no hypernym or repeats.
    A sample below 1 is an error.
    """
    if sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")
    covered = sorted(taxonomy.covered_nodes())
    SplitMix64.keyed(seed, "stats-depth").shuffle(covered)
    max_depth = 0
    for start in covered[:sample]:
        depth = 1
        seen = {start}
        node = start
        while stored := taxonomy.parent_edges(node):
            node = max(stored, key=attrgetter("score")).parent  # first best: the smaller id
            if node in seen:
                break
            seen.add(node)
            depth += 1
        max_depth = max(max_depth, depth)
    return max_depth


def sample_eval_nodes(
    graph: WcnGraph, n_entities: int, n_categories: int, seed: int
) -> set[str]:
    """Seeded uniform sample without replacement, per node kind."""
    sample: set[str] = set()
    for kind, count in ((NodeKind.ENTITY, n_entities), (NodeKind.CATEGORY, n_categories)):
        ids = graph.node_ids(kind)
        if count > len(ids):
            raise TaxonetError(f"requested {count} {kind.value} nodes, only {len(ids)} available")
        SplitMix64.keyed(seed, "sample", kind.value).shuffle(ids)
        sample.update(ids[:count])
    return sample


@_gc_paused
def load_gold(edges_path: str | Path, nodes_path: str | Path) -> GoldEdgeSet:
    """Read gold_edges.tsv (child, parent, isa|notisa) + sampled node list."""
    sampled = frozenset(chain.from_iterable(_rows(Path(nodes_path), 1)))
    rows = _rows(Path(edges_path), 3)
    judgments: dict[tuple[str, str], Label] = {}

    def judge(row: list[str]) -> None:
        child, parent, label = row
        try:
            judged = judgments.setdefault((child, parent), Label(label))
        except ValueError:
            raise ValueError(f"bad label {label!r}") from None
        if judged.value != label:
            raise ValueError(f"{child!r} -> {parent!r} judged {label!r} here, {judged.value!r} earlier")

    _first_fault(rows, judge)
    if not judgments:
        raise MalformedFile(rows.path, "no judged edges")
    try:
        return GoldEdgeSet(sampled, judgments)
    except ValueError:  # blame the first row whose judgment alone breaks a rule
        _first_fault(rows, lambda row: GoldEdgeSet(sampled, {(row[0], row[1]): None}))
        raise


def save_gold(gold: GoldEdgeSet, edges_path: str | Path, nodes_path: str | Path) -> None:
    _write_lines(nodes_path, (node + "\n" for node in sorted(gold.sampled_nodes)))
    judgments = sorted(gold.judgments.items())
    _write_lines(edges_path, (f"{c}\t{p}\t{label.value}\n" for (c, p), label in judgments))


def load_paths(path: str | Path) -> list[AnnotatedPath]:
    """Read paths.jsonl: {"nodes": [nonempty ids], "first_wrong_index": int|null}."""
    path = Path(path)
    paths = []
    for line_no, line in enumerate(_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            if type(data) is not dict:
                raise TypeError(f"expected a JSON object, got {data!r}")
            if "nodes" not in data:
                raise ValueError("missing key 'nodes'")
            nodes, index = data["nodes"], data.get("first_wrong_index")
            if not (type(nodes) is list and all(type(n) is str and n for n in nodes)):
                raise TypeError(f"nodes must be a list of nonempty strings, got {nodes!r}")
            if index is not None and type(index) is not int:  # JSON types are exact
                raise TypeError(f"first_wrong_index must be an integer or null, got {index!r}")
            paths.append(AnnotatedPath(tuple(nodes), index))
        except (TypeError, ValueError) as exc:  # a JSONDecodeError is a ValueError
            raise MalformedRow(path, line_no, str(exc)) from None
    return paths


def save_paths(paths: list[AnnotatedPath], path: str | Path) -> None:
    rows = ({"nodes": list(p.nodes), "first_wrong_index": p.first_wrong_index} for p in paths)
    _write_lines(path, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))
