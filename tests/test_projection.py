import random
from collections import deque

from taxonet import InterlangMap, Node, NodeKind, TaxoEdge, Taxonomy, WcnGraph
from taxonet.projection import (
    ProjectionConfig,
    bounded_shortest_path,
    collect_ancestors,
    map_equivalents,
    project,
)

from conftest import fig1_graph, fig1_links, fig1_source
from oracles import reference_bounded_shortest_path, reference_collect_ancestors
from worldgen import build_world


def chain_taxonomy(*nodes):
    return Taxonomy(TaxoEdge(c, p) for c, p in zip(nodes, nodes[1:]))


class TestCollectAncestors:
    def test_fig1(self):
        assert collect_ancestors(fig1_source(), "Augustus", 14) == {"Emperors", "People"}

    def test_absent_node(self):
        assert collect_ancestors(fig1_source(), "nobody", 14) == set()

    def test_depth_bound(self):
        taxo = chain_taxonomy("a", "b", "c", "d")
        assert collect_ancestors(taxo, "a", 2) == {"b", "c"}
        assert collect_ancestors(taxo, "a", 1) == {"b"}

    def test_cycle_terminates(self):
        # the node itself is excluded even when a cycle returns to it
        taxo = Taxonomy([TaxoEdge("a", "b"), TaxoEdge("b", "a")])
        assert collect_ancestors(taxo, "a", 14) == {"b"}


class TestMapEquivalents:
    def test_fig1(self):
        links = fig1_links()
        assert map_equivalents({"Emperors", "People"}, links) == {"Empereur", "Personne"}

    def test_no_links(self):
        assert map_equivalents({"a", "b"}, InterlangMap([])) == set()

    def test_partial(self):
        links = InterlangMap([("a'", "a")])
        assert map_equivalents({"a", "b", "c"}, links) == {"a'"}


def line_graph(n, kind=NodeKind.CATEGORY):
    nodes = [Node(f"n{i}", kind, f"n{i}") for i in range(n)]
    edges = [(f"n{i}", f"n{i+1}") for i in range(n - 1)]
    return WcnGraph(nodes, edges)


class TestBoundedShortestPath:
    def test_fig1(self):
        path = bounded_shortest_path(fig1_graph(), "Auguste", {"Empereur", "Personne"}, 3)
        assert path == ["Auguste", "Empereur romain", "Empereur"]

    def test_start_is_target(self):
        assert bounded_shortest_path(fig1_graph(), "Auguste", {"Auguste"}, 3) == ["Auguste"]

    def test_depth_bound(self):
        graph = line_graph(5)  # 4 edges from n0 to n4
        assert bounded_shortest_path(graph, "n0", {"n4"}, 3) is None
        assert bounded_shortest_path(graph, "n0", {"n4"}, 4) == ["n0", "n1", "n2", "n3", "n4"]

    def test_no_targets(self):
        assert bounded_shortest_path(line_graph(3), "n0", set(), 3) is None

    def test_stored_edge_order_breaks_ties(self):
        nodes = [Node(n, NodeKind.CATEGORY, n) for n in ("s", "b", "a")]
        graph = WcnGraph(nodes, [("s", "b"), ("s", "a")])
        # both targets at depth 1; "b" was stored first so it wins
        assert bounded_shortest_path(graph, "s", {"a", "b"}, 3) == ["s", "b"]


def test_walks_equal_the_two_loops_they_replaced():
    """On seeded random networks with cycles and several parents per node,
    stored in no particular order, both walks match their old loops in
    `tests/oracles.py`: the same ancestor sets, and the same path, node for
    node, from starts inside and outside the targets."""
    for seed in range(300):
        rng = random.Random(seed)
        names = [f"n{i}" for i in range(rng.randint(2, 10))]
        pairs = [(u, v) for u in names for v in names if u != v and rng.random() < 0.35]
        rng.shuffle(pairs)
        graph = WcnGraph([Node(n, NodeKind.CATEGORY, n) for n in names], pairs)
        taxonomy = Taxonomy(TaxoEdge(c, p) for c, p in pairs)
        for k in range(1, 5):
            for start in names:
                targets = set(rng.sample(names, rng.randint(0, len(names))))
                expected = reference_bounded_shortest_path(graph, start, targets, k)
                assert bounded_shortest_path(graph, start, targets, k) == expected, (seed, k)
                expected = reference_collect_ancestors(taxonomy, start, k)
                assert collect_ancestors(taxonomy, start, k) == expected, (seed, k)


class TestProject:
    def test_fig1_exact(self):
        taxonomy, report = project(fig1_source(), fig1_graph(), fig1_links())
        assert taxonomy.edge_pairs() == {
            ("Auguste", "Empereur romain"),
            ("Empereur romain", "Empereur"),
        }
        for edge in taxonomy.edges():
            assert edge.score == 1.0
        assert report.entity_coverage == 1.0
        assert report.category_coverage == 0.25
        assert report.edges_added == 2
        assert report.skipped_no_equivalent == 1  # Rome

    def test_no_links_at_all(self):
        graph = fig1_graph()
        taxonomy, report = project(fig1_source(), graph, InterlangMap([]))
        assert len(taxonomy) == 0
        assert report.entity_coverage == 0.0
        assert report.category_coverage == 0.0
        assert report.skipped_no_equivalent == len(graph.nodes)

    def test_projection_never_invents_edges(self):
        world = build_world(seed=3, families=4)
        taxonomy, _ = project(world.source, world.graph, world.links)
        for child, parent in taxonomy.edge_pairs():
            assert world.graph.has_edge(child, parent)

    def test_idempotent(self):
        world = build_world(seed=5, families=3)
        first, _ = project(world.source, world.graph, world.links)
        second, _ = project(world.source, world.graph, world.links)
        assert first.edge_pairs() == second.edge_pairs()

    def test_full_links_small_depth_covers_everything(self):
        # 20-node bilingual graph, every node linked, all paths <= 3 hops:
        # every node below the root ends up covered.
        nodes, edges = [], []
        for t in range(4):
            top = f"t{t}"
            nodes.append(Node(top, NodeKind.CATEGORY, top))
            for l in range(2):
                leaf = f"t{t}.l{l}"
                nodes.append(Node(leaf, NodeKind.CATEGORY, leaf))
                edges.append((leaf, top))
                for e in range(2):
                    ent = f"t{t}.l{l}.e{e}"
                    nodes.append(Node(ent, NodeKind.ENTITY, ent))
                    edges.append((ent, leaf))
        for t in range(3):
            edges.append((f"t{t}", "t3"))  # t3 is the root
        graph = WcnGraph(nodes, edges)
        links = InterlangMap((n.id, f"en:{n.id}") for n in nodes)
        source = Taxonomy(TaxoEdge(f"en:{c}", f"en:{p}") for c, p in edges)
        taxonomy, report = project(source, graph, links, ProjectionConfig())
        for node in graph.node_ids():
            if node != "t3":
                assert taxonomy.covered(node), node
        assert not taxonomy.covered("t3")
        assert report.entity_coverage == 1.0
        assert taxonomy.edge_pairs() <= set(graph.edges())

    def test_matches_independent_reimplementation(self):
        # Brute-force oracle: re-derive the projection with independent
        # ancestor expansion and path enumeration, then compare edge sets.
        world = build_world(seed=11, families=5)
        cfg = ProjectionConfig()
        expected = _oracle_project(world.source, world.graph, world.links, cfg)
        taxonomy, report = project(world.source, world.graph, world.links, cfg)
        assert taxonomy.edge_pairs() == expected
        # report coverage equals a recount from the produced taxonomy
        entities = world.graph.node_ids(NodeKind.ENTITY)
        categories = world.graph.node_ids(NodeKind.CATEGORY)
        assert report.entity_coverage == sum(
            1 for n in entities if taxonomy.covered(n)
        ) / len(entities)
        assert report.category_coverage == sum(
            1 for n in categories if taxonomy.covered(n)
        ) / len(categories)
        assert report.edges_added == len(taxonomy)


def _oracle_project(source, graph, links, cfg):
    """Naive re-derivation of the projection phase, used as an oracle."""
    added = set()
    covered = set()
    for node in sorted(graph.nodes):
        if node in covered:
            continue
        src = links.to_source(node)
        if src is None:
            continue
        # ancestors by repeated frontier expansion over taxonomy edges
        ancestors, frontier = set(), {src}
        for _ in range(cfg.k1):
            frontier = {
                p for c in frontier for p in source.hypernyms(c)
            } - ancestors - {src}
            if not frontier:
                break
            ancestors |= frontier
        targets = {links.to_target(a) for a in ancestors} - {None}
        path = _oracle_bfs(graph, node, targets, cfg.k2)
        if path is None:
            continue
        for c, p in zip(path, path[1:]):
            added.add((c, p))
            covered.add(c)
    return added


def _oracle_bfs(graph, start, targets, limit):
    if start in targets:
        return [start]
    queue = deque([[start]])
    seen = {start}
    while queue:
        path = queue.popleft()
        if len(path) - 1 == limit:
            continue
        for parent in graph.parents(path[-1]):
            if parent in seen:
                continue
            seen.add(parent)
            if parent in targets:
                return path + [parent]
            queue.append(path + [parent])
    return None
