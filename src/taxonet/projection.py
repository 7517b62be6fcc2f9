"""Phase 1: project a source-language taxonomy onto the target network.

For every target node that has a source-language equivalent and no
hypernym yet, the source taxonomy's ancestors (up to k1 levels) are mapped
back through the interlanguage links, and the shortest category-network
path (at most k2 hops) from the node to any mapped ancestor is added to
the output taxonomy. The result is high-precision and low-coverage; the
induction phase fills in the rest.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Iterator

from .graph import (
    InterlangMap, NodeKind, TaxoEdge, Taxonomy, WcnGraph, coverage,
)


_PARENT = TaxoEdge._fields.index("parent")


class ProjectionConfig(namedtuple("ProjectionConfig", "k1 k2", defaults=(14, 3))):
    """k1: max ancestor height in the source taxonomy; k2: max path length
    (hops) in the target network."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError("k1 and k2 must be >= 1")
        return self


class ProjectionReport(namedtuple("ProjectionReport", "entity_coverage category_coverage "
                                  "skipped_no_equivalent skipped_no_path edges_added k1 k2")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def _reach(parents: Callable, start: str, max_hops: int, prev: dict,
           parent_at: int | None = None) -> Iterator[str]:
    """Yield each node but `start` within `max_hops` child->parent hops, breadth
    first in `parents` order, once `prev` maps it to its source (`start`: None).

    `parents(child)` gives the child's parents, or with `parent_at` its
    stored edges, each holding its parent at that index, so no list of
    parents is built per child.
    """
    prev[start] = None
    level = [start]
    while level and max_hops:
        max_hops -= 1
        reached = []
        for child in level:
            for parent in parents(child):
                if parent_at is not None:
                    parent = parent[parent_at]
                if parent not in prev:
                    prev[parent] = child
                    yield parent
                    reached.append(parent)
        level = reached


def collect_ancestors(taxonomy: Taxonomy, node: str, k1: int) -> set[str]:
    """All nodes reachable from `node` by 1..k1 child->parent hops, `node`
    itself excluded; cycles are fine."""
    return set(_reach(taxonomy.parent_edges, node, k1, {}, _PARENT))


def map_equivalents(ancestors: set[str], links: InterlangMap) -> set[str]:
    """Target-language equivalents of the given source-language nodes."""
    return {t for s in ancestors if (t := links.to_target(s)) is not None}


def bounded_shortest_path(
    graph: WcnGraph, start: str, targets: set[str], k2: int
) -> list[str] | None:
    """Shortest child->parent path from start to any target, <= k2 edges.

    BFS explores parents in stored edge order, so with equal-length
    options the first target reached wins deterministically. Returns the
    node sequence start..target, or None when no target is within reach.
    A start that is itself a target yields the single-node path [start].
    """
    if start in targets:
        return [start]
    prev: dict[str, str | None] = {}
    for node in _reach(graph.parents, start, k2, prev):
        if node in targets:
            path = [node]
            while (node := prev[node]) is not None:
                path.append(node)
            return path[::-1]
    return None


def project(
    source_taxo: Taxonomy,
    target_graph: WcnGraph,
    links: InterlangMap,
    cfg: ProjectionConfig = ProjectionConfig(),
) -> tuple[Taxonomy, ProjectionReport]:
    """Build the projected taxonomy plus a coverage report.

    Nodes are processed in ascending id order; a node already covered by an
    earlier node's path is skipped, which makes the output deterministic.
    Path edges always come from the target graph, never invented.
    """
    edges: list[TaxoEdge] = []
    covered: set[str] = set()
    skipped_no_equivalent = 0
    skipped_no_path = 0

    for node_id in target_graph.node_ids():
        if node_id in covered:
            continue
        source_id = links.to_source(node_id)
        if source_id is None:
            skipped_no_equivalent += 1
            continue
        ancestors = collect_ancestors(source_taxo, source_id, cfg.k1)
        targets = map_equivalents(ancestors, links)
        path = bounded_shortest_path(target_graph, node_id, targets, cfg.k2)
        if path is None:
            skipped_no_path += 1
            continue
        # A length-0 path (node already equivalent to an ancestor) adds no
        # edges and leaves the node uncovered.
        edges.extend(TaxoEdge(child, parent) for child, parent in zip(path, path[1:]))
        covered.update(path[:-1])

    taxonomy = Taxonomy(edges)
    report = ProjectionReport(
        entity_coverage=coverage(target_graph, taxonomy, NodeKind.ENTITY),
        category_coverage=coverage(target_graph, taxonomy, NodeKind.CATEGORY),
        skipped_no_equivalent=skipped_no_equivalent,
        skipped_no_path=skipped_no_path,
        edges_added=len(taxonomy),
        k1=cfg.k1,
        k2=cfg.k2,
    )
    return taxonomy, report

