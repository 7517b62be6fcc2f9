"""Phase 1: project a source-language taxonomy onto the target network.

For every target node that has a source-language equivalent and no
hypernym yet, the source taxonomy's ancestors (up to k1 levels) are mapped
back through the interlanguage links, and the shortest category-network
path (at most k2 hops) from the node to any mapped ancestor is added to
the output taxonomy. The result is high-precision and low-coverage; the
induction phase fills in the rest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass

from .graph import (
    InterlangMap, NodeKind, Provenance, TaxoEdge, Taxonomy, WcnGraph, coverage,
)


@dataclass(frozen=True)
class ProjectionConfig:
    k1: int = 14  # max ancestor height in the source taxonomy
    k2: int = 3   # max path length (hops) in the target network

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError("k1 and k2 must be >= 1")


@dataclass(frozen=True)
class ProjectionReport:
    entity_coverage: float
    category_coverage: float
    skipped_no_equivalent: int
    skipped_no_path: int
    edges_added: int

    def to_dict(self) -> dict:
        return asdict(self)


def collect_ancestors(taxonomy: Taxonomy, node: str, k1: int) -> set[str]:
    """All nodes reachable from `node` by 1..k1 child->parent hops.

    Excludes the node itself; tolerates cycles.
    """
    ancestors: set[str] = set()
    frontier = [node]
    visited = {node}
    for _ in range(k1):
        next_frontier = []
        for current in frontier:
            for parent in taxonomy.hypernyms(current):
                if parent not in visited:
                    visited.add(parent)
                    ancestors.add(parent)
                    next_frontier.append(parent)
        if not next_frontier:
            break
        frontier = next_frontier
    return ancestors


def map_equivalents(ancestors: set[str], links: InterlangMap) -> set[str]:
    """Target-language equivalents of the given source-language nodes."""
    out = set()
    for source_id in ancestors:
        target_id = links.to_target(source_id)
        if target_id is not None:
            out.add(target_id)
    return out


def bounded_shortest_path(
    graph: WcnGraph, start: str, targets: set[str], k2: int
) -> list[str] | None:
    """Shortest child->parent path from start to any target, <= k2 edges.

    BFS explores parents in stored edge order, so with equal-length
    options the first target dequeued wins deterministically. Returns the
    node sequence start..target, or None when no target is within reach.
    A start that is itself a target yields the single-node path [start].
    """
    if start in targets:
        return [start]
    prev: dict[str, str] = {}
    depth = {start: 0}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        if depth[current] == k2:
            continue
        for parent in graph.parents(current):
            if parent in depth:
                continue
            depth[parent] = depth[current] + 1
            prev[parent] = current
            if parent in targets:
                path = [parent]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            queue.append(parent)
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
    edges: dict[tuple[str, str], TaxoEdge] = {}
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
        for child, parent in zip(path, path[1:]):
            pair = (child, parent)
            if pair not in edges:
                edges[pair] = TaxoEdge(child, parent, 1.0, Provenance.PROJECTED)
            covered.add(child)

    taxonomy = Taxonomy(edges.values())
    report = ProjectionReport(
        entity_coverage=coverage(target_graph, taxonomy, NodeKind.ENTITY),
        category_coverage=coverage(target_graph, taxonomy, NodeKind.CATEGORY),
        skipped_no_equivalent=skipped_no_equivalent,
        skipped_no_path=skipped_no_path,
        edges_added=len(taxonomy),
    )
    return taxonomy, report

