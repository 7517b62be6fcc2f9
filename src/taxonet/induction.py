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
rounds. A path's key is the tuple (-probability, hops, nodes), so the
built-in ordering puts the best path first, and the tie rules fire
exactly when values are mathematically equal. Maximizing the product is
then provably identical to minimizing the -log sum.

The k-best search is a deviation (spur) search over loopless paths, and
one finder serves every start of an `induce` call. Its 1-best subroutine
is one forward Dijkstra from the start whose heap holds the keys of
whole paths, so the first target it pops ends the total-order minimum.
Targets absorb (no path passes through one target on the way to
another), so a search stays inside its start's cone, the nodes reachable
from the start without passing through a target, and costs the size of
that cone, not of the graph.

Edge weighing scores only the edges a search can read: the parent edges
of the nodes the projected taxonomy leaves uncovered (`search_edges`).
That set is exact. Every covered node is a child in the projected
taxonomy, so it is a target. A search reads only the edges out of the
nodes it pops, and it pops only its start and non-targets; a Yen prefix
is made of edges of accepted paths, whose tails are the start or
non-targets. So every edge a search weighs leaves an uncovered node, and
no other edge is scored. On a 4,801-node world with 90% of its nodes
linked, that is 774 of 10,056 edges. `induce` checks that each of them
has a probability before any search starts.

A list of `_FORK_EDGES` edges or more is weighed on both cores: a forked
child (`forking.run_pair`) scores the second half of the edge list while
this process scores the first. An edge's probability depends only on its
model and its two titles, and the child runs the same `predict_proba` and
clamp on an inherited copy of the same graph and models, so every weight
is bit-for-bit what a single process computes, and the weights are
assembled in the list's order. Each model's vocabulary is read before the
fork, so the child inherits it rather than building its own (see
`features`). The fork makes this POSIX-only and assumes a single-threaded
caller. A shorter list is scored in this process, with no fork and no
`pickle`. The break-even rests on the host. On a 2-core host whose
second core had been idle, two processes ran at half speed each for
their first seconds, so in a fresh `induce` forking cost 9-36% more
weighing time at every list from 765 to 8,626 edges; with both cores
busy for seconds before, it paid from about 1,000 edges (fork/serial time
0.87 at 1,000 and 0.74 at 4,000, a 16,001-node world's ec search edges
in one process). At 15,198 and 46,178 ec edges (16,001 and 48,001 nodes),
forking made `induce` 23% and 34% faster. Under the uniform baseline, or with no edge to score, nothing is
scored and nothing forks.

Each process vectorizes the titles of its part (its half, or the whole
list), each once, and keeps a title's vector only while a later edge of
that part reads it. Parent vectors stay cached, since many children share
a parent. A child's vector is dropped after the child's last edge, unless
its title is also a parent in that part: `search_edges` lists a child's
edges together, so one vector serves its run of edges, and an entity,
which is never a parent, keeps none.
"""

from __future__ import annotations

import heapq
from collections import namedtuple

from .classifier import LinearEdgeModel, predict_proba
from .errors import TaxonetError
from .graph import (
    EdgeKind, NodeKind, Provenance, TaxoEdge, Taxonomy, WcnGraph, check_projected, coverage,
    edge_kind,
)


class InductionConfig(namedtuple("InductionConfig", "k epsilon uniform",
                                 defaults=(1, 1e-6, False))):
    """k: paths per uncovered node; probabilities are clamped to
    [epsilon, 1 - epsilon]; uniform: the baseline, every edge weight 1."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        # From 0.5 on, the clamp's floor is not below its ceiling.
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon!r}")
        return self


class ScoredPath(namedtuple("ScoredPath", "nodes probability hops")):
    __slots__ = ()

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


# The fewest edges `weigh_edges` splits between two processes; a shorter
# list is scored in this one. Between the measured break-evens (see the
# module docstring): the benchmark worlds weigh at most 1,006 edges a
# call, and worlds of 16,001 and 48,001 nodes, with 15,198 and 46,178 ec
# search edges, fork.
_FORK_EDGES = 4000


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
    Otherwise a list of `_FORK_EDGES` edges or more is split in two: a
    forked child scores its second half while this process scores the
    first; a shorter one is scored here (see the module docstring).
    """
    if edges is None:
        edges = list(graph.edges())
    if cfg.uniform or not edges:
        return WeightedGraph(graph, dict.fromkeys(edges, 1.0))

    def score(part: list[tuple[str, str]]) -> list[float]:
        parents = {graph.title(parent) for _, parent in part}
        last = {graph.title(child): i for i, (child, _) in enumerate(part)}
        probs = []
        for i, (child, parent) in enumerate(part):
            model = model_ec if edge_kind(graph, child) is EdgeKind.ENTITY_TO_CATEGORY else model_cc
            title = graph.title(child)
            raw = predict_proba(model, title, graph.title(parent))
            probs.append(min(max(raw, cfg.epsilon), 1.0 - cfg.epsilon))
            if last[title] == i and title not in parents:  # no later edge reads it
                model.tfidf.forget(title)
        return probs

    if len(edges) < _FORK_EDGES:
        return WeightedGraph(graph, dict(zip(edges, score(edges))))
    for model in (model_ec, model_cc):
        model.tfidf.vocabulary  # read here, so the child inherits it
    from .forking import run_pair  # here, so `import taxonet` does not load pickle

    half = len(edges) // 2
    first, second = run_pair(lambda: score(edges[:half]), lambda: score(edges[half:]))
    return WeightedGraph(graph, dict(zip(edges, first + second)))


class _PathFinder:
    """k-best simple paths from any start to one shared absorbing target set.

    Edge probabilities are converted to exact `Decimal`s once and shared by
    every search; each search, the first path and every Yen spur alike, is
    one `_best_path`. A start that is itself a target (a node that is only
    a parent in the taxonomy) searches the rest of the set.
    """

    def __init__(self, weighted: WeightedGraph, targets: frozenset[str]):
        # here, so that only a search loads `decimal`
        from decimal import MAX_PREC, Context, Decimal, Inexact

        self.weighted = weighted
        self.targets = targets
        self._prob = {e: Decimal(p) for e, p in weighted.prob.items()}
        self._mul = Context(prec=MAX_PREC, traps=[Inexact]).multiply

    def _best_path(
        self, root: tuple, banned_edges: frozenset[tuple[str, str]] = frozenset()
    ) -> tuple | None:
        """The key of the total-order minimum path that begins with the
        path keyed `root`, or None if it reaches no target.

        Dijkstra from root's last node, with whole keys on the heap. A
        probability lies in (0, 1], so extending a path never improves its
        key, and extending two paths to one node by the same edge keeps
        their order; so the first key popped for a node is its best path,
        and the first target popped ends the minimum. Root's and popped nodes are
        never entered again: paths are simple, and only the start's pop has 0 hops.
        """
        heap = [root]
        popped = set(root[2][:-1])
        while heap:
            neg, hops, nodes = heapq.heappop(heap)
            node = nodes[-1]
            if hops and node in self.targets:  # targets absorb: no path continues through one
                return neg, hops, nodes
            if node in popped:
                continue
            popped.add(node)
            for parent in self.weighted.parents(node):
                if parent not in popped and (node, parent) not in banned_edges:
                    neg_parent = self._mul(self._prob[(node, parent)], neg)
                    heapq.heappush(heap, (neg_parent, hops + 1, nodes + (parent,)))
        return None

    def top_k(self, start: str, k: int) -> list[ScoredPath]:
        """The k most probable simple paths from start to a target, best first:
        probability descending, hops ascending, node sequence ascending.
        Fewer (possibly none) when the graph runs out of alternatives."""
        first = self._best_path((-1, 0, (start,)))
        if first is None:
            return []
        accepted = [first]
        candidates: list[tuple] = []  # a heap
        seen = {first[2]}
        while len(accepted) < k:
            base = accepted[-1][2]
            neg = -1  # -probability of base[: j + 1]
            for j in range(len(base) - 1):
                root = base[: j + 1]
                banned_edges = frozenset(
                    (p[j], p[j + 1]) for _, _, p in accepted if p[: j + 1] == root
                )
                found = self._best_path((neg, j, root), banned_edges)
                if found is not None and found[2] not in seen:
                    seen.add(found[2])
                    heapq.heappush(candidates, found)
                neg = self._mul(self._prob[(base[j], base[j + 1])], neg)
            if not candidates:
                break
            accepted.append(heapq.heappop(candidates))
        # float() of a Decimal rounds correctly
        return [ScoredPath(nodes, -float(neg), hops) for neg, hops, nodes in accepted]


class InductionReport(namedtuple("InductionReport", "entity_coverage category_coverage "
                                 "uncovered edges_added k uniform")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def induce(
    projected: Taxonomy,
    weighted: WeightedGraph,
    cfg: InductionConfig = InductionConfig(),
) -> tuple[Taxonomy, InductionReport]:
    """Extend the projected taxonomy with best-path edges per uncovered node.

    The target set (all nodes touched by the projected taxonomy) is frozen
    before iteration, and one path finder serves every start, so per-node
    searches are independent and the result does not depend on node order.
    A repeated edge keeps its maximum score by `Taxonomy`'s rule. Every edge of
    `search_edges(graph, projected)` must have a probability in `weighted`.
    """
    if len(projected) == 0:
        raise TaxonetError("projected taxonomy has no edges")
    graph = weighted.graph
    check_projected(graph, projected)
    search = search_edges(graph, projected)
    for child, parent in search:
        if (child, parent) not in weighted.prob:
            raise ValueError(f"edge without probability: {child!r} -> {parent!r}")

    finder = _PathFinder(weighted, frozenset(projected.node_ids()))
    edges = projected.edges()
    # The uncovered nodes with a parent, ascending; a node without one has no path.
    for start in dict.fromkeys(child for child, _ in search):
        for path in finder.top_k(start, cfg.k):
            edges.extend(TaxoEdge(child, parent, path.probability, Provenance.INDUCED)
                         for child, parent in path.edges())

    final = Taxonomy(edges)
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
