import math
import os
import random
from array import array
from fractions import Fraction

import pytest

from taxonet import features, forking, induction
from taxonet import (
    EdgeDataset,
    Node,
    NodeKind,
    ProjectionConfig,
    TaxoEdge,
    Taxonomy,
    WcnGraph,
    label_edges,
    project,
    split_by_kind,
    train_linear,
    train_val_split,
)
from taxonet.classifier import LinearEdgeModel, TrainConfig
from taxonet.features import FeatureMode, FeatureSpec, TfidfModel, fit_tfidf
from taxonet.graph import EdgeKind, Provenance, edge_kind
from taxonet.induction import (
    InductionConfig,
    _PathFinder,
    WeightedGraph,
    induce,
    search_edges,
    wcn_baseline,
    weigh_edges,
)
from taxonet.metrics import branching_factor

from conftest import raises_error, record_vocabulary_builds
from oracles import bfs_min_hops, enumerate_paths, random_instance, reference_proba
from worldgen import build_world


def category_graph(edge_probs: dict[tuple[str, str], float]) -> WeightedGraph:
    names = sorted({n for e in edge_probs for n in e})
    graph = WcnGraph(
        [Node(n, NodeKind.CATEGORY, n) for n in names], list(edge_probs)
    )
    return WeightedGraph(graph, dict(edge_probs))


def top_k(weighted: WeightedGraph, start: str, targets: set[str], k: int):
    """The k best paths from start, by the finder that `induce` runs."""
    return _PathFinder(weighted, frozenset(targets)).top_k(start, k)


def constant_model(bias: float, kind: EdgeKind) -> LinearEdgeModel:
    tfidf = fit_tfidf(["stub"], FeatureSpec(FeatureMode.WORD))
    zeros = array("d", bytes(8 * tfidf.n_features)), array("d", bytes(8 * tfidf.n_features))
    return LinearEdgeModel(tfidf, zeros, bias, TrainConfig(), kind)


def constant_models(bias_ec: float, bias_cc: float) -> tuple[LinearEdgeModel, LinearEdgeModel]:
    return (constant_model(bias_ec, EdgeKind.ENTITY_TO_CATEGORY),
            constant_model(bias_cc, EdgeKind.CATEGORY_TO_CATEGORY))


@pytest.fixture(scope="module")
def world_models():
    """The seed-21 world and its models, trained as `train` trains them."""
    world = build_world(seed=21, families=4)
    graph = world.graph
    projected, _ = project(world.source, graph, world.links, ProjectionConfig())
    models = {}
    kinds = (EdgeKind.ENTITY_TO_CATEGORY, EdgeKind.CATEGORY_TO_CATEGORY)
    for kind, edges in zip(kinds, split_by_kind(label_edges(graph, projected), graph)):
        train, val = train_val_split(edges, 0.1, 5)
        titles = sorted({graph.title(n) for e in train for n in (e.child, e.parent)})
        tfidf = fit_tfidf(titles, FeatureSpec(FeatureMode.CHAR_NGRAM))
        dataset = EdgeDataset(kind, train, val)
        models[kind] = train_linear(dataset, tfidf, TrainConfig(seed=5), graph)
    return graph, models


class TestWeighEdges:
    def graph(self):
        nodes = [
            Node("e", NodeKind.ENTITY, "e"),
            Node("c1", NodeKind.CATEGORY, "c1"),
            Node("c2", NodeKind.CATEGORY, "c2"),
        ]
        return WcnGraph(nodes, [("e", "c1"), ("c1", "c2")])

    def test_uniform_sets_everything_to_one(self):
        weighted = weigh_edges(
            self.graph(), *constant_models(5.0, -5.0),
            InductionConfig(uniform=True),
        )
        assert set(weighted.prob.values()) == {1.0}

    def test_routing_by_edge_kind(self):
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        weighted = weigh_edges(
            self.graph(), *constant_models(1.0, -1.0), InductionConfig()
        )
        assert weighted.prob[("e", "c1")] == pytest.approx(sig(1.0))
        assert weighted.prob[("c1", "c2")] == pytest.approx(sig(-1.0))

    def test_degenerate_scores_clamped(self):
        weighted = weigh_edges(
            self.graph(), *constant_models(-1000.0, 1000.0),
            InductionConfig(epsilon=1e-6),
        )
        assert weighted.prob[("e", "c1")] == 1e-6
        assert weighted.prob[("c1", "c2")] == 1.0 - 1e-6

    def test_no_edges_builds_nothing_and_forks_not(self, world_models, monkeypatch):
        # A kind with no search edges: as under the uniform baseline, no
        # vocabulary is built and nothing forks.
        graph, trained = world_models
        # Copies as `load_model` gives them, holding lines.
        models = [m._replace(tfidf=TfidfModel.from_dict(m.tfidf.to_dict()))
                  for m in trained.values()]
        events = []
        record_vocabulary_builds(monkeypatch, events)
        monkeypatch.setattr(forking, "run_pair", lambda first, second: events.append("fork"))
        assert weigh_edges(graph, *models, InductionConfig(), []).prob == {}
        assert events == []

    @staticmethod
    def assert_equals_reference(graph, models, cfg):
        weighted = weigh_edges(
            graph, models[EdgeKind.ENTITY_TO_CATEGORY], models[EdgeKind.CATEGORY_TO_CATEGORY], cfg
        )
        edges = list(graph.edges())
        assert list(weighted.prob) == edges
        for child, parent in edges:
            model = models[edge_kind(graph, child)]
            raw = reference_proba(model, graph.title(child), graph.title(parent))
            expected = min(max(raw, cfg.epsilon), 1.0 - cfg.epsilon)
            assert weighted.prob[(child, parent)] == expected, (child, parent)

    def test_equals_per_edge_reference_bit_for_bit(self, world_models, monkeypatch):
        # Every edge's weight must equal the one `reference_proba` computes,
        # scored in this process, and split with a forked child.
        graph, models = world_models
        assert 100 < graph.n_edges < induction._FORK_EDGES
        self.assert_equals_reference(graph, models, InductionConfig())
        monkeypatch.setattr(induction, "_FORK_EDGES", 1)
        self.assert_equals_reference(graph, models, InductionConfig())

    @pytest.mark.parametrize("n_edges", [1, 2, 7])
    def test_split_equals_reference_on_few_edges(self, world_models, monkeypatch, n_edges):
        # The child scores edges[n // 2:], so a single edge goes to the child
        # alone and an odd count splits unevenly; the world's last seven
        # edges hold both kinds (the whole world has an odd count too).
        # Lists this short fork only with the constant lowered.
        monkeypatch.setattr(induction, "_FORK_EDGES", 1)
        graph, models = world_models
        edges = list(graph.edges())[-n_edges:]
        ids = {n for e in edges for n in e}
        small = WcnGraph([graph.nodes[n] for n in sorted(ids)], edges)
        assert small.n_edges == n_edges
        self.assert_equals_reference(small, models, InductionConfig())

    def test_keeps_no_entity_child_vector(self, world_models, monkeypatch):
        # Each part (the whole list in this process, or one half per process)
        # vectorizes each of its titles once and drops a child's vector after
        # the child's last edge, unless the title is also a parent there; so
        # no entity's vector is left cached.
        graph, trained = world_models
        expected = weigh_edges(graph, *(trained[kind] for kind in EdgeKind)).prob
        edges = list(graph.edges())

        def vectorize(tfidf, title):
            calls[-1].append((tfidf, title))
            return real_vectorize(tfidf, title)

        def run_pair(first, second):
            # In process, one part after the other, each a list of its own.
            here = first()
            calls.append([])
            return here, second()

        real_vectorize = features._vectorize
        monkeypatch.setattr(features, "_vectorize", vectorize)
        monkeypatch.setattr(forking, "run_pair", run_pair)
        half = len(edges) // 2
        for fork_edges, parts in ((len(edges) + 1, [edges]), (1, [edges[:half], edges[half:]])):
            monkeypatch.setattr(induction, "_FORK_EDGES", fork_edges)
            # Copies as `load_model` gives them: the trained models cache their training titles.
            models = {kind: m._replace(tfidf=TfidfModel.from_dict(m.tfidf.to_dict()))
                      for kind, m in trained.items()}
            calls = [[]]
            assert weigh_edges(graph, *(models[kind] for kind in EdgeKind)).prob == expected
            assert len(calls) == len(parts) and all(len(part) == len(set(part)) for part in calls)
            tfidf_of = {edge: models[edge_kind(graph, edge[0])].tfidf for edge in edges}
            # A second part runs here after the first, so it reuses the first's parents.
            assert set(calls[0]) == {(tfidf_of[e], graph.title(n)) for e in parts[0] for n in e}
            # Only titles that are parents somewhere stay cached, and no entity is one.
            parents = {graph.title(p) for _, p in edges}
            assert all(models[kind].tfidf._halves.keys() <= parents for kind in EdgeKind)
            assert models[EdgeKind.ENTITY_TO_CATEGORY].tfidf._halves
        entities = {graph.title(c) for c, _ in edges if edge_kind(graph, c) is EdgeKind.ENTITY_TO_CATEGORY}
        assert entities and not entities & parents

    def test_forks_from_the_constant_on(self, monkeypatch):
        # A list of `_FORK_EDGES` edges or more is split with a forked child,
        # a shorter one is scored here, to the same weights.
        n = induction._FORK_EDGES
        nodes = [Node("c", NodeKind.CATEGORY, "c")]
        nodes += [Node(f"e{i:05d}", NodeKind.ENTITY, f"e {i}") for i in range(n)]
        graph = WcnGraph(nodes, [(f"e{i:05d}", "c") for i in range(n)])
        edges = list(graph.edges())
        calls = []

        def run_pair(first, second):
            calls.append(len(edges))
            return real_run_pair(first, second)

        real_run_pair = forking.run_pair
        monkeypatch.setattr(forking, "run_pair", run_pair)
        below = weigh_edges(graph, *constant_models(1.0, -1.0), InductionConfig(), edges[1:])
        assert calls == []
        at = weigh_edges(graph, *constant_models(1.0, -1.0), InductionConfig(), edges)
        assert calls == [n]
        assert below.prob == {e: at.prob[e] for e in edges[1:]}

    def test_uniform_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        weighted = weigh_edges(
            self.graph(), *constant_models(5.0, -5.0), InductionConfig(uniform=True)
        )
        assert weighted.prob == {("e", "c1"): 1.0, ("c1", "c2"): 1.0}

    def test_weighted_graph_validation(self):
        # A missing edge is `induce`'s to reject (TestInduce).
        graph = self.graph()
        with pytest.raises(ValueError):
            WeightedGraph(graph, {("e", "c1"): 0.5, ("c1", "c2"): 0.0})

    def test_scores_only_the_given_edges(self, world_models):
        graph, models = world_models
        models = models[EdgeKind.ENTITY_TO_CATEGORY], models[EdgeKind.CATEGORY_TO_CATEGORY]
        edges = list(graph.edges())[1::3]
        full = weigh_edges(graph, *models)
        for cfg in (InductionConfig(), InductionConfig(uniform=True)):
            part = weigh_edges(graph, *models, cfg, edges)
            assert list(part.prob) == edges
            if not cfg.uniform:
                assert part.prob == {e: full.prob[e] for e in edges}

    def test_search_edges_leave_uncovered_nodes(self, world_models):
        graph, _ = world_models
        projected = Taxonomy(TaxoEdge(c, p) for c, p in list(graph.edges())[::4])
        got = search_edges(graph, projected)
        assert got == [(c, p) for c, p in graph.edges() if not projected.covered(c)]
        assert 0 < len(got) < graph.n_edges


class TestTopKPaths:
    def test_single_edge(self):
        w = category_graph({("s", "t"): 0.9})
        (path,) = top_k(w, "s", {"t"}, 1)
        assert path.nodes == ("s", "t")
        assert path.probability == 0.9
        assert path.hops == 1

    def test_diamond(self):
        w = category_graph(
            {("s", "a"): 0.9, ("a", "t"): 0.5, ("s", "b"): 0.6, ("b", "t"): 0.8}
        )
        (best,) = top_k(w, "s", {"t"}, 1)
        assert best.nodes == ("s", "b", "t")
        assert best.probability == pytest.approx(0.48)
        both = top_k(w, "s", {"t"}, 2)
        assert [p.nodes for p in both] == [("s", "b", "t"), ("s", "a", "t")]

    def test_equal_product_prefers_fewer_hops(self):
        w = category_graph(
            {("s", "x"): 0.5, ("x", "t"): 1.0,
             ("s", "a"): 1.0, ("a", "b"): 1.0, ("b", "t"): 0.5}
        )
        (best,) = top_k(w, "s", {"t"}, 1)
        assert best.nodes == ("s", "x", "t")

    def test_equal_product_equal_hops_prefers_lexicographic(self):
        w = category_graph({("s", "a"): 0.5, ("s", "b"): 0.5})
        (best,) = top_k(w, "s", {"a", "b"}, 1)
        assert best.nodes == ("s", "a")

    def test_exact_tie_vs_float_log_trap(self):
        # 0.4 * 1.0 and 0.8 * 0.5 are exactly equal as reals; summed float
        # logs would disagree, so the tie must fall to hops... here both
        # have 2 hops, so the node sequence decides.
        w = category_graph(
            {("s", "a"): 0.8, ("a", "t"): 0.5, ("s", "b"): 0.4, ("b", "t"): 1.0}
        )
        (best,) = top_k(w, "s", {"t"}, 1)
        assert best.nodes == ("s", "a", "t")

    def test_near_tie_that_rounding_would_flip(self):
        # (1 - 2**-53)**2 = 1 - 2**-52 + 2**-106 exceeds 1 - 2**-52 by
        # 2**-106; float products, or a 28-digit decimal context, round it
        # away and let the node sequence pick (s, a, t)
        w = category_graph(
            {("s", "a"): 1 - 2**-52, ("a", "t"): 1.0,
             ("s", "b"): 1 - 2**-53, ("b", "t"): 1 - 2**-53}
        )
        assert (1 - 2**-53) * (1 - 2**-53) == 1 - 2**-52
        assert [p.nodes for p in top_k(w, "s", {"t"}, 2)] == [("s", "b", "t"), ("s", "a", "t")]

    def test_targets_absorb(self):
        # the path through target m to the better target t is not allowed
        w = category_graph({("s", "m"): 0.9, ("m", "t"): 0.9, ("s", "t"): 0.1})
        paths = top_k(w, "s", {"m", "t"}, 3)
        assert [p.nodes for p in paths] == [("s", "m"), ("s", "t")]

    def test_unreachable_empty(self):
        w = category_graph({("a", "s"): 0.9})  # edge points the wrong way
        assert top_k(w, "s", {"t2", "a"}, 1) == []

    def test_fewer_than_k(self):
        w = category_graph({("s", "t"): 0.9})
        assert len(top_k(w, "s", {"t"}, 5)) == 1

    def test_k_best_against_bruteforce(self):
        rng = random.Random(1234)
        checked = 0
        for _ in range(40):
            weighted, start, targets = random_instance(rng)
            expected = enumerate_paths(weighted, start, targets)
            got = top_k(weighted, start, targets, 3)
            assert len(got) == min(3, len(expected))
            for path, (prob, hops, nodes) in zip(got, expected):
                assert path.nodes == nodes
                assert path.hops == hops
                assert Fraction(*path.probability.as_integer_ratio()) == _round_frac(prob)
                checked += 1
        assert checked > 30

    def test_start_inside_target_set_against_bruteforce(self):
        # induce's case: one finder serves every start, and a start that is
        # itself a target searches the rest of the set; uniform weights make
        # every path tie on probability, so hops and node order must decide
        rng = random.Random(4321)
        checked = 0
        for i in range(40):
            weighted, start, targets = random_instance(rng, uniform=i % 2 == 1)
            everything = frozenset(targets | {start})
            finder = _PathFinder(weighted, everything)
            for node in weighted.graph.node_ids():
                expected = enumerate_paths(weighted, node, everything - {node})[:3]
                got = finder.top_k(node, 3)
                assert [(p.nodes, p.hops) for p in got] == [(n, h) for _, h, n in expected]
                for path, (prob, _, _) in zip(got, expected):
                    assert Fraction(*path.probability.as_integer_ratio()) == _round_frac(prob)
                    checked += node in everything
        assert checked > 150

    def test_k5_every_start_of_sparse_graphs_against_bruteforce(self):
        # sparse graphs give each start a cone well short of the whole graph;
        # one finder serves every start, as in induce, and uniform weights
        # make candidates tie so hops and node order decide
        rng = random.Random(2468)
        checked = 0
        for i in range(60):
            weighted, _, targets = random_instance(
                rng, max_nodes=14, p_edge=rng.uniform(0.1, 0.15), uniform=i % 3 == 0
            )
            finder = _PathFinder(weighted, frozenset(targets))
            for node in weighted.graph.node_ids():
                expected = enumerate_paths(weighted, node, targets - {node})[:5]
                got = finder.top_k(node, 5)
                assert [(p.nodes, p.hops) for p in got] == [(n, h) for _, h, n in expected]
                for path, (prob, _, _) in zip(got, expected):
                    assert Fraction(*path.probability.as_integer_ratio()) == _round_frac(prob)
                checked += len(got)
        assert checked > 300

    def test_k4_exact_ties_against_bruteforce(self):
        # weights that are powers of two make products tie exactly across
        # hop counts (1/2 * 1/2 == 1/4) and across node orders, so the
        # hops and node-sequence tie-breaks decide many ranks here
        rng = random.Random(1357)
        checked = tied = 0
        for _ in range(300):
            weighted, _, targets = random_instance(
                rng, max_nodes=14, p_edge=rng.uniform(0.1, 0.2), weights=(1.0, 0.5, 0.25, 0.125)
            )
            finder = _PathFinder(weighted, frozenset(targets))
            for node in weighted.graph.node_ids():
                expected = enumerate_paths(weighted, node, targets - {node})[:4]
                got = finder.top_k(node, 4)
                assert [(p.nodes, p.hops) for p in got] == [(n, h) for _, h, n in expected]
                for path, (prob, _, _) in zip(got, expected):
                    assert Fraction(*path.probability.as_integer_ratio()) == prob
                checked += len(got)
                tied += sum(a[0] == b[0] for a, b in zip(expected, expected[1:]))
        assert checked > 3000 and tied > 500

    def test_search_touches_only_the_start_cone(self):
        # s climbs to target t through a and b; a long chain x00 -> ... ->
        # x39 hangs below a and t, where s cannot reach it
        probs = {("s", "a"): 0.9, ("s", "b"): 0.5, ("a", "t"): 0.6,
                 ("b", "t"): 0.9, ("a", "b"): 0.7, ("t", "u"): 0.9}
        for i in range(40):
            probs[(f"x{i:02d}", "a")] = 0.8
            probs[(f"x{i:02d}", "t")] = 0.3
            if i:
                probs[(f"x{i - 1:02d}", f"x{i:02d}")] = 0.9
        weighted = category_graph(probs)

        class Recording(WeightedGraph):
            def __init__(self, graph, prob):
                super().__init__(graph, prob)
                self.touched: set[str] = set()

            def parents(self, node):
                self.touched.add(node)
                return super().parents(node)

            def children_of(self, node):
                # a reverse search over the whole graph would walk down from
                # t through this; a forward search from s has no use for it
                self.touched.add(node)
                return [c for c, p in self.graph.edges() if p == node]

        recording = Recording(weighted.graph, weighted.prob)
        got = _PathFinder(recording, frozenset({"t"})).top_k("s", 3)
        assert [p.nodes for p in got] == [n for _, _, n in enumerate_paths(weighted, "s", {"t"})]
        assert len(got) == 3
        assert recording.touched <= {"s", "a", "b"}  # t absorbs, so u is never reached

        # As in `induce`: t is covered, and every other node searches. No
        # search may read the probability of an edge outside `search_edges`,
        # t -> u here, and weighing only those edges finds the same paths.
        projected = Taxonomy([TaxoEdge("t", "u")])
        allowed = set(search_edges(weighted.graph, projected))
        assert allowed == set(probs) - {("t", "u")}
        read = set()

        class RecordingCosts(dict):
            def __getitem__(self, edge):
                read.add(edge)
                return super().__getitem__(edge)

        targets = frozenset(projected.node_ids())
        finder = _PathFinder(weighted, targets)
        finder._prob = RecordingCosts(finder._prob)
        only = _PathFinder(WeightedGraph(weighted.graph, {e: probs[e] for e in allowed}), targets)
        for start in weighted.graph.node_ids():
            if start != "t":
                assert finder.top_k(start, 3) == only.top_k(start, 3)
        assert read and read <= allowed

    def test_max_product_equals_min_log_sum_choice(self):
        # duality: the exact-product argmax matches a -log float argmin on
        # generic instances (no near-ties)
        rng = random.Random(99)
        for _ in range(25):
            weighted, start, targets = random_instance(rng)
            expected = enumerate_paths(weighted, start, targets)
            if not expected:
                continue
            by_log = min(
                expected,
                key=lambda r: (sum(-math.log(weighted.prob[e])
                                   for e in zip(r[2], r[2][1:])), r[1], r[2]),
            )
            (best,) = top_k(weighted, start, targets, 1) or [None]
            assert best.nodes == by_log[2]

    def test_uniform_reduces_to_bfs(self):
        rng = random.Random(77)
        for _ in range(30):
            weighted, start, targets = random_instance(rng, uniform=True)
            got = top_k(weighted, start, targets, 1)
            oracle = bfs_min_hops(weighted.graph, start, targets)
            if oracle is None:
                assert got == []
            else:
                assert got[0].hops == oracle
                assert got[0].probability == 1.0


def _round_frac(prob: Fraction) -> Fraction:
    return Fraction(*float(prob).as_integer_ratio())


def chain_world():
    nodes = [
        Node("e0", NodeKind.ENTITY, "e0"),
        Node("e1", NodeKind.ENTITY, "e1"),
        Node("c1", NodeKind.CATEGORY, "c1"),
        Node("c2", NodeKind.CATEGORY, "c2"),
        Node("d", NodeKind.CATEGORY, "d"),
    ]
    edges = [("e0", "c2"), ("e1", "c1"), ("e1", "d"), ("c1", "c2"), ("d", "c2")]
    graph = WcnGraph(nodes, edges)
    prob = {("e0", "c2"): 0.9, ("e1", "c1"): 0.9, ("e1", "d"): 0.2,
            ("c1", "c2"): 0.9, ("d", "c2"): 0.9}
    projected = Taxonomy([TaxoEdge("e0", "c2")])
    return WeightedGraph(graph, prob), projected


class TestInduce:
    def test_extends_coverage_and_scores(self):
        weighted, projected = chain_world()
        final, report = induce(projected, weighted, InductionConfig())
        assert final.edge("e1", "c1").score == pytest.approx(0.81)
        assert final.edge("e1", "c1").provenance is Provenance.INDUCED
        assert final.edge("c1", "c2").score == pytest.approx(0.9)  # max over paths
        assert final.edge("e0", "c2").score == 1.0
        assert final.edge("e0", "c2").provenance is Provenance.PROJECTED
        assert report.entity_coverage == 1.0
        assert report.uncovered == ["c2"]
        assert report.edges_added == 3

    def test_projected_already_complete_is_noop(self):
        weighted, _ = chain_world()
        full = Taxonomy(
            [TaxoEdge("e0", "c2"), TaxoEdge("e1", "c1"), TaxoEdge("c1", "c2"),
             TaxoEdge("d", "c2")]
        )
        final, report = induce(full, weighted, InductionConfig())
        assert final.edge_pairs() == full.edge_pairs()
        assert report.edges_added == 0

    def test_k2_superset_and_branching(self):
        weighted, projected = chain_world()
        one, _ = induce(projected, weighted, InductionConfig(k=1))
        two, _ = induce(projected, weighted, InductionConfig(k=2))
        assert one.edge_pairs() <= two.edge_pairs()
        assert ("e1", "d") in two.edge_pairs()  # the second path for e1
        assert branching_factor(two) > branching_factor(one)

    def test_induced_edges_come_from_graph(self):
        weighted, projected = chain_world()
        final, _ = induce(projected, weighted, InductionConfig(k=2))
        for child, parent in final.edge_pairs():
            assert weighted.graph.has_edge(child, parent)

    def test_start_inside_target_set_is_excluded_from_it(self):
        # c2 is a target (parent in projected) but uncovered; its search
        # must not return the empty path to itself
        nodes = [Node("e0", NodeKind.ENTITY, "e0"),
                 Node("c2", NodeKind.CATEGORY, "c2"),
                 Node("c3", NodeKind.CATEGORY, "c3")]
        graph = WcnGraph(nodes, [("e0", "c2"), ("c2", "c3"), ("c3", "c2")])
        weighted = WeightedGraph(
            graph, {("e0", "c2"): 0.9, ("c2", "c3"): 0.8, ("c3", "c2"): 0.8}
        )
        projected = Taxonomy([TaxoEdge("e0", "c2")])
        final, report = induce(projected, weighted, InductionConfig())
        # c2 -> c3 cannot help (c3 not a target)... c3 reaches c2 though:
        # both get covered through the c2<->c3 cycle edges
        assert final.covered("c3")
        assert final.edge("c3", "c2").provenance is Provenance.INDUCED

    def test_search_edge_without_probability(self):
        # TestWeighEdges.graph with c1 -> c2 unweighed: c1 is uncovered, so
        # its search would read that edge.
        graph = TestWeighEdges().graph()
        weighted = WeightedGraph(graph, {("e", "c1"): 0.5})
        projected = Taxonomy([TaxoEdge("e", "c1")])
        with pytest.raises(ValueError, match="edge without probability: 'c1' -> 'c2'"):
            induce(projected, weighted, InductionConfig())
        # With c1 covered no search reads it.
        covered = Taxonomy([TaxoEdge("e", "c1"), TaxoEdge("c1", "c2")])
        final, _ = induce(covered, weighted, InductionConfig())
        assert final.edge_pairs() == covered.edge_pairs()

    def test_errors(self):
        weighted, projected = chain_world()
        with raises_error("projected taxonomy has no edges"):
            induce(Taxonomy([]), weighted, InductionConfig())
        with raises_error("projected edge not present in graph: 'e0' -> 'd'"):
            induce(Taxonomy([TaxoEdge("e0", "d")]), weighted, InductionConfig())
        with pytest.raises(ValueError):
            InductionConfig(k=0)
        with pytest.raises(ValueError):
            InductionConfig(epsilon=0.0)
        for epsilon in (0.5, 0.7):  # the clamp [epsilon, 1 - epsilon] would invert
            with pytest.raises(ValueError, match=r"epsilon must be in \(0, 0.5\)"):
                InductionConfig(epsilon=epsilon)


class TestWcnBaseline:
    def test_every_edge_kept(self):
        weighted, _ = chain_world()
        base = wcn_baseline(weighted.graph)
        assert base.edge_pairs() == set(weighted.graph.edges())
        assert all(e.score == 1.0 and e.provenance is Provenance.INDUCED for e in base.edges())

    def test_empty_graph(self):
        graph = WcnGraph([Node("a", NodeKind.CATEGORY, "a")], [])
        assert len(wcn_baseline(graph)) == 0

    def test_baseline_coverage_counts(self):
        weighted, _ = chain_world()
        base = wcn_baseline(weighted.graph)
        graph = weighted.graph
        with_parent = [n for n in graph.node_ids() if graph.parents(n)]
        assert base.covered_nodes() == set(with_parent)
