"""Phase 3: weigh network edges and extend the taxonomy by path search.

Each edge a search can read gets an is-a probability from the
kind-matched classifier (or 1.0 under the uniform baseline). For each
node still lacking a hypernym, the k most probable simple paths to the
projected taxonomy's node set are found, and their edges join the
output. A path's probability is the product of its edge probabilities;
ties break on fewer hops, then on the lexicographically smallest node
sequence, making results total-ordered.

Comparing float products (or summed -log costs) can invert genuinely equal
probabilities through rounding, so path comparisons here are exact: every
edge probability is converted once to a `Decimal`, which holds a float
exactly, and products are taken in a context that raises rather than
rounds. A path's cost is the tuple (-probability, hops), so the built-in
ordering puts the best path first, and the tie rules fire exactly when
values are mathematically equal. Maximizing the product is then provably
identical to minimizing the -log sum.

The k-best search is a deviation (spur) search over loopless paths, and
one finder serves every start of an `induce` call. Its 1-best subroutine
works inside the start's ancestor cone: the nodes reachable from the start
through parent edges, stopping at targets, which absorb (no path passes
through one target on the way to another). A value-only Dijkstra runs over
the cone's reversed edges from the targets it contains, then the
lexicographically smallest optimal path is reconstructed greedily forward.
Every path from a cone node to a target stays inside the cone, so the cone
distances are the whole graph's, and each search costs the size of the
cone, not of the graph.

Edge weighing scores only the edges a search can read: the parent edges
of the nodes the projected taxonomy leaves uncovered (`search_edges`).
That set is exact. Every covered node is a child in the projected
taxonomy, so it is a target, and a search expands only its start and
non-target nodes: `_dist` walks the parents of those alone, the greedy
walk of `_best_path` steps only out of them, and a Yen prefix is made of
edges of accepted paths, whose tails are the start or non-targets. So
every edge a search weighs leaves an uncovered node, and no other edge is
scored. On a 4,801-node world with 90% of its nodes linked, that is 774
of 10,056 edges. `induce` checks that each of them has a probability
before any search starts.

Weighing uses both cores: a forked child (`forking.run_pair`) scores the
second half of the edge list while this process scores the first. An
edge's probability depends only on its model and its two titles, and the
child runs the same `predict_proba` and clamp on an inherited copy of the
same graph and models, so every weight is bit-for-bit what a single
process computes, and the weights are assembled in the list's order.
Each process vectorizes only the titles of its own half. The fork makes
this POSIX-only and assumes a single-threaded caller; under the uniform
baseline nothing is scored and nothing forks.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass
from itertools import accumulate

from .classifier import LinearEdgeModel, predict_proba
from .errors import TaxonetError
from .graph import (
    EdgeKind, NodeKind, Provenance, TaxoEdge, Taxonomy, WcnGraph, check_projected, coverage,
    edge_kind,
)


@dataclass(frozen=True)
class InductionConfig:
    k: int = 1               # paths per uncovered node
    epsilon: float = 1e-6    # probabilities are clamped to [epsilon, 1 - epsilon]
    uniform: bool = False    # baseline: every edge weight 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        # From 0.5 on, the clamp's floor is not below its ceiling.
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon!r}")


@dataclass(frozen=True)
class ScoredPath:
    nodes: tuple[str, ...]
    probability: float
    hops: int

    def edges(self) -> list[tuple[str, str]]:
        return list(zip(self.nodes, self.nodes[1:]))


class WeightedGraph:
    """A category network plus is-a probabilities, at least for its `search_edges`."""

    def __init__(self, graph: WcnGraph, prob: dict[tuple[str, str], float]):
        for p in prob.values():
            if not 0.0 < p <= 1.0:
                raise ValueError(f"edge probability out of (0, 1]: {p}")
        self.graph = graph
        self.prob = prob

    def parents(self, node: str) -> list[str]:
        return self.graph.parents(node)


def search_edges(graph: WcnGraph, projected: Taxonomy) -> list[tuple[str, str]]:
    """The edges the searches of `induce` can read: every parent edge of
    each node that `projected` leaves uncovered, nodes in `node_ids()`
    order and parents in stored order (see the module docstring)."""
    return [
        (node, parent)
        for node in graph.node_ids()
        if not projected.covered(node)
        for parent in graph.parents(node)
    ]


def weigh_edges(
    graph: WcnGraph,
    model_ec: LinearEdgeModel,
    model_cc: LinearEdgeModel,
    cfg: InductionConfig = InductionConfig(),
    edges: list[tuple[str, str]] | None = None,
) -> WeightedGraph:
    """Score `edges` (default: every graph edge) with their kind's
    classifier, clamped to [eps, 1-eps].

    With cfg.uniform the classifiers are ignored and every edge gets 1.0.
    Otherwise a forked child scores the second half of the edge list while
    this process scores the first (see the module docstring).
    """
    if edges is None:
        edges = list(graph.edges())
    if cfg.uniform:
        return WeightedGraph(graph, dict.fromkeys(edges, 1.0))

    def score(part: list[tuple[str, str]]) -> list[float]:
        probs = []
        for child, parent in part:
            kind = edge_kind(graph, child, parent)
            model = model_ec if kind is EdgeKind.ENTITY_TO_CATEGORY else model_cc
            raw = predict_proba(model, graph.title(child), graph.title(parent))
            probs.append(min(max(raw, cfg.epsilon), 1.0 - cfg.epsilon))
        return probs

    from .forking import run_pair  # here, so `import taxonet` does not load pickle

    half = len(edges) // 2
    first, second = run_pair(lambda: score(edges[:half]), lambda: score(edges[half:]))
    return WeightedGraph(graph, dict(zip(edges, first + second)))


class _PathFinder:
    """k-best simple paths from any start to one shared absorbing target set.

    Edge probabilities are converted to exact `Decimal`s once and shared by
    every search. A cost is (-probability, hops). Each search, the first
    path and every Yen spur alike, computes distances only over its
    start's ancestor cone. A start that is itself a target searches the
    rest of the set instead, in this same finder.
    """

    def __init__(self, weighted: WeightedGraph, targets: frozenset[str]):
        # here, so that only a search loads `decimal`
        from decimal import MAX_PREC, Context, Decimal, Inexact

        self.weighted = weighted
        self.targets = targets
        self._prob = {e: Decimal(p) for e, p in weighted.prob.items()}
        self._mul = Context(prec=MAX_PREC, traps=[Inexact]).multiply

    def _dist(
        self,
        start: str,
        targets: frozenset[str],
        banned_nodes: frozenset[str],
        banned_edges: frozenset[tuple[str, str]],
    ) -> dict[str, tuple]:
        """Best cost to the target set from each node of start's cone.

        The cone is every node reachable from start through unbanned parent
        edges without passing through a target. Any path from a cone node to
        a target stays inside it, so these are whole-graph distances. A
        forward walk collects the cone and its reversed edges, then Dijkstra
        runs over them from the cone's targets; values only, so the pop
        order among equal costs does not matter. Dropping a node into a
        cycle always costs hops, so walk-optima equal simple-path optima
        and no simplicity bookkeeping is needed here.
        """
        children: dict[str, list[str]] = {start: []}
        stack = [start]
        while stack:
            node = stack.pop()
            if node in targets:  # targets absorb: a path never continues through one
                continue
            for parent in self.weighted.parents(node):
                if parent in banned_nodes or (node, parent) in banned_edges:
                    continue
                if parent in children:
                    children[parent].append(node)
                else:
                    children[parent] = [node]
                    stack.append(parent)
        heap = [(-1, 0, t) for t in children if t in targets]  # each target's empty path
        heapq.heapify(heap)
        dist: dict[str, tuple] = {}
        while heap:
            neg, hops, node = heapq.heappop(heap)
            if node in dist:
                continue
            dist[node] = (neg, hops)
            for child in children[node]:
                if child not in dist:
                    neg_child = self._mul(self._prob[(child, node)], neg)
                    heapq.heappush(heap, (neg_child, hops + 1, child))
        return dist

    def _best_path(
        self,
        start: str,
        targets: frozenset[str],
        banned_nodes: frozenset[str] = frozenset(),
        banned_edges: frozenset[tuple[str, str]] = frozenset(),
    ) -> tuple[tuple, tuple[str, ...]] | None:
        """Total-order minimum path from start, or None if unreachable.

        Walks forward from start along cost-tight edges, picking the
        smallest node id at each step; that yields the lexicographic
        minimum among the cost-optimal paths, and any tight walk is
        automatically simple. Every unbanned parent of a node on the walk
        lies in start's cone, so `_dist` covers it, and no banned node is
        in `dist`.
        """
        dist = self._dist(start, targets, banned_nodes, banned_edges)
        total = dist.get(start)
        if total is None:
            return None
        nodes = [start]
        neg, hops = total
        while nodes[-1] not in targets:
            current = nodes[-1]
            step = None
            for parent in self.weighted.parents(current):
                d = dist.get(parent)
                if d is None or d[1] != hops - 1 or (current, parent) in banned_edges:
                    continue
                if step is None or parent < step:
                    if self._mul(self._prob[(current, parent)], d[0]) == neg:
                        step = parent
            if step is None:  # cannot happen when dist[start] is finite
                raise RuntimeError(f"no cost-tight edge out of {current!r}")
            nodes.append(step)
            neg, hops = dist[step]
        return total, tuple(nodes)

    def top_k(self, start: str, k: int) -> list[ScoredPath]:
        """The k most probable simple paths from start to a target, best first:
        probability descending, hops ascending, node sequence ascending.
        Fewer (possibly none) when the graph runs out of alternatives."""
        targets = self.targets
        if start in targets:
            # A node can appear in the taxonomy only as a parent and still
            # lack a hypernym of its own; it must not be its own target.
            targets = targets - {start}
        first = self._best_path(start, targets)
        if first is None:
            return []
        accepted = [first]
        candidates: list[tuple[tuple, tuple[str, ...]]] = []  # a heap
        seen = {first[1]}
        while len(accepted) < k:
            _, base_nodes = accepted[-1]
            # prefix[j]: the probability of base_nodes[: j + 1]
            prefix = list(accumulate(
                (self._prob[e] for e in zip(base_nodes, base_nodes[1:])), self._mul, initial=1
            ))
            for j in range(len(base_nodes) - 1):
                root = base_nodes[: j + 1]
                banned_nodes = frozenset(base_nodes[:j])
                banned_edges = frozenset(
                    (p[j], p[j + 1]) for _, p in accepted if p[: j + 1] == root
                )
                spur = self._best_path(base_nodes[j], targets, banned_nodes, banned_edges)
                if spur is None:
                    continue
                (neg, hops), spur_nodes = spur
                cand_nodes = root[:-1] + spur_nodes
                if cand_nodes in seen:
                    continue
                seen.add(cand_nodes)
                heapq.heappush(candidates, ((self._mul(prefix[j], neg), j + hops), cand_nodes))
            if not candidates:
                break
            accepted.append(heapq.heappop(candidates))
        # float() of a Decimal rounds correctly
        return [ScoredPath(nodes, -float(neg), hops) for (neg, hops), nodes in accepted]


@dataclass(frozen=True)
class InductionReport:
    entity_coverage: float
    category_coverage: float
    uncovered: list[str]
    edges_added: int
    k: int
    uniform: bool

    def to_dict(self) -> dict:
        return asdict(self)


def induce(
    projected: Taxonomy,
    weighted: WeightedGraph,
    cfg: InductionConfig = InductionConfig(),
) -> tuple[Taxonomy, InductionReport]:
    """Extend the projected taxonomy with best-path edges per uncovered node.

    The target set (all nodes touched by the projected taxonomy) is frozen
    before iteration, and one path finder serves every start, so per-node
    searches are independent and the result does not depend on node order.
    An edge found by several paths keeps its maximum score. Every edge of
    `search_edges(graph, projected)` must have a probability in `weighted`.
    """
    if len(projected) == 0:
        raise TaxonetError("projected taxonomy has no edges")
    graph = weighted.graph
    check_projected(graph, projected)
    for child, parent in search_edges(graph, projected):
        if (child, parent) not in weighted.prob:
            raise ValueError(f"edge without probability: {child!r} -> {parent!r}")

    finder = _PathFinder(weighted, frozenset(projected.node_ids()))
    edges: dict[tuple[str, str], TaxoEdge] = {
        (e.child, e.parent): e for e in projected.edges()
    }
    for start in graph.node_ids():
        if projected.covered(start):
            continue
        for path in finder.top_k(start, cfg.k):
            for child, parent in path.edges():
                pair = (child, parent)
                existing = edges.get(pair)
                if existing is None or path.probability > existing.score:
                    edges[pair] = TaxoEdge(child, parent, path.probability, Provenance.INDUCED)

    final = Taxonomy(edges.values())
    report = InductionReport(
        entity_coverage=coverage(graph, final, NodeKind.ENTITY),
        category_coverage=coverage(graph, final, NodeKind.CATEGORY),
        uncovered=[n for n in graph.node_ids() if not final.covered(n)],
        edges_added=len(final) - len(projected),
        k=cfg.k,
        uniform=cfg.uniform,
    )
    return final, report


def wcn_baseline(graph: WcnGraph) -> Taxonomy:
    """The unfiltered network itself, as a taxonomy (score 1, induced)."""
    return Taxonomy(
        TaxoEdge(child, parent, 1.0, Provenance.INDUCED) for child, parent in graph.edges()
    )
