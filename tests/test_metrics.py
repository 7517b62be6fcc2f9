import random

import pytest

from taxonet import Node, NodeKind, TaxoEdge, Taxonomy, WcnGraph
from taxonet.errors import MalformedRow
from taxonet.labeling import Label
from taxonet.metrics import (
    AnnotatedPath,
    GoldEdgeSet,
    branching_factor,
    edge_metrics,
    load_gold,
    load_paths,
    max_depth_sampled,
    path_metrics,
    sample_eval_nodes,
    save_gold,
    save_paths,
)

from conftest import raises_error


class TestEdgeMetrics:
    def test_worked_two_node_case(self):
        taxonomy = Taxonomy([TaxoEdge("x", "a"), TaxoEdge("x", "b"), TaxoEdge("y", "c")])
        gold = GoldEdgeSet(
            frozenset({"x", "y"}),
            {
                ("x", "a"): Label.ISA,
                ("x", "b"): Label.NOT_ISA,
                ("y", "c"): Label.ISA,
            },
        )
        m = edge_metrics(taxonomy, gold)
        assert m.macro_precision == pytest.approx(0.75)
        assert m.recall == 1.0
        assert m.coverage == 1.0

    def test_nothing_returned(self):
        taxonomy = Taxonomy([TaxoEdge("other", "z")])
        gold = GoldEdgeSet(frozenset({"x"}), {("x", "z"): Label.ISA})
        m = edge_metrics(taxonomy, gold)
        assert (m.macro_precision, m.recall, m.coverage) == (0.0, 0.0, 0.0)
        assert not m.precision_defined

    def test_all_correct_makes_p_r_c_equal(self):
        taxonomy = Taxonomy([TaxoEdge("x", "a"), TaxoEdge("y", "b")])
        gold = GoldEdgeSet(
            frozenset({"x", "y"}),
            {("x", "a"): Label.ISA, ("y", "b"): Label.ISA},
        )
        m = edge_metrics(taxonomy, gold)
        assert m.macro_precision == m.recall == m.coverage == 1.0

    def test_perfect_precision_implies_recall_equals_coverage(self):
        taxonomy = Taxonomy([TaxoEdge("x", "a"), TaxoEdge("y", "b")])
        gold = GoldEdgeSet(
            frozenset({"x", "y", "z"}),
            {("x", "a"): Label.ISA, ("y", "b"): Label.ISA},
        )
        m = edge_metrics(taxonomy, gold)
        assert m.macro_precision == 1.0
        assert m.recall == m.coverage == pytest.approx(2 / 3)

    def test_unjudged_counts_as_notisa(self):
        taxonomy = Taxonomy([TaxoEdge("x", "a"), TaxoEdge("x", "mystery")])
        gold = GoldEdgeSet(frozenset({"x"}), {("x", "a"): Label.ISA})
        m = edge_metrics(taxonomy, gold)
        assert m.macro_precision == 0.5
        assert m.unjudged_returned == 1

    def test_empty_gold(self):
        with raises_error("no sampled nodes"):
            edge_metrics(Taxonomy([]), GoldEdgeSet(frozenset(), {}))

    def test_judgment_child_must_be_sampled(self):
        with pytest.raises(ValueError):
            GoldEdgeSet(frozenset({"x"}), {("y", "a"): Label.ISA})

    def test_identities_on_random_inputs(self):
        rng = random.Random(42)
        for _ in range(200):
            nodes = [f"n{i}" for i in range(rng.randint(2, 8))]
            parents = [f"p{i}" for i in range(4)]
            edges, judgments = {}, {}
            for n in nodes:
                for p in rng.sample(parents, rng.randint(0, 3)):
                    edges[(n, p)] = TaxoEdge(n, p)
                    if rng.random() < 0.8:
                        judgments[(n, p)] = rng.choice((Label.ISA, Label.NOT_ISA))
            taxonomy = Taxonomy(edges.values())
            gold = GoldEdgeSet(frozenset(nodes), judgments)
            m = edge_metrics(taxonomy, gold)
            assert m.recall <= m.coverage
            if m.macro_precision == 1.0 and m.precision_defined:
                assert m.recall == m.coverage


class TestPathMetrics:
    def test_worked_example(self):
        path = AnnotatedPath(("apple", "fruit", "farmer", "human", "animal"), 2)
        m = path_metrics([path])
        assert m.avg_length == 5.0
        assert m.avg_cpp == 2.0
        assert m.avg_ratio_cpp == pytest.approx(0.4)

    def test_fully_correct(self):
        m = path_metrics([AnnotatedPath(("a", "b", "c", "d"))])
        assert (m.avg_length, m.avg_cpp, m.avg_ratio_cpp) == (4.0, 4.0, 1.0)

    def test_two_path_average(self):
        m = path_metrics(
            [
                AnnotatedPath(("a", "b", "c", "d", "e"), 2),
                AnnotatedPath(("x", "y", "z")),
            ]
        )
        assert m.avg_length == 4.0
        assert m.avg_cpp == 2.5
        assert m.avg_ratio_cpp == pytest.approx(0.7)

    def test_empty(self):
        with raises_error("no annotated paths"):
            path_metrics([])

    def test_annotation_validation(self):
        with pytest.raises(ValueError):
            AnnotatedPath((), None)
        with pytest.raises(ValueError):
            AnnotatedPath(("a", "b"), 0)
        with pytest.raises(ValueError):
            AnnotatedPath(("a", "b"), 2)

    def test_ratio_one_iff_all_correct(self):
        rng = random.Random(7)
        for _ in range(200):
            paths = []
            for _ in range(rng.randint(1, 6)):
                n = rng.randint(1, 7)
                wrong = rng.choice([None] + list(range(1, n)) if n > 1 else [None])
                paths.append(AnnotatedPath(tuple(f"v{i}" for i in range(n)), wrong))
            m = path_metrics(paths)
            all_correct = all(p.first_wrong_index is None for p in paths)
            assert (abs(m.avg_ratio_cpp - 1.0) < 1e-12) == all_correct
            assert m.avg_cpp <= m.avg_length


class TestBranchingFactor:
    def test_single_parent_tree(self):
        taxonomy = Taxonomy([TaxoEdge("a", "b"), TaxoEdge("b", "c"), TaxoEdge("d", "c")])
        assert branching_factor(taxonomy) == 1.0

    def test_hand_mean(self):
        taxonomy = Taxonomy(
            [TaxoEdge("a", "p1"), TaxoEdge("b", "p1"), TaxoEdge("b", "p2"), TaxoEdge("b", "p3")]
        )
        assert branching_factor(taxonomy) == 2.0  # degrees {1, 3}

    def test_empty(self):
        with raises_error("no edges"):
            branching_factor(Taxonomy([]))


class TestMaxDepthSampled:
    def test_tie_takes_the_smaller_id(self):
        # from a, b and c tie; b leads on through d to e, c ends at once
        taxonomy = Taxonomy([
            TaxoEdge("a", "c", 0.5), TaxoEdge("a", "b", 0.5),
            TaxoEdge("b", "d"), TaxoEdge("d", "e"),
        ])
        assert max_depth_sampled(taxonomy, sample=10, seed=0) == 4  # a b d e

    def test_strongest_edge_wins(self):
        taxonomy = Taxonomy([
            TaxoEdge("a", "b", 0.4), TaxoEdge("a", "z", 0.6), TaxoEdge("b", "c"),
        ])
        assert max_depth_sampled(taxonomy, sample=10, seed=0) == 2  # a z, or b c

    def test_cycle_stops(self):
        taxonomy = Taxonomy([TaxoEdge("a", "b"), TaxoEdge("b", "c"), TaxoEdge("c", "a")])
        assert max_depth_sampled(taxonomy, sample=10, seed=0) == 3

    def test_sample_bounds_the_starts(self):
        taxonomy = Taxonomy([TaxoEdge("a", "b"), TaxoEdge("b", "c"), TaxoEdge("x", "y")])
        depths = {max_depth_sampled(taxonomy, sample=1, seed=s) for s in range(20)}
        assert depths == {2, 3}  # one start: x or b give 2, a gives 3

    @pytest.mark.parametrize("sample", [0, -1])
    def test_sample_below_one_rejected(self, sample):
        # -1 sampled every covered node but the last, 0 reported depth 0.
        taxonomy = Taxonomy([TaxoEdge("a", "b"), TaxoEdge("b", "c")])
        with pytest.raises(ValueError, match=f"sample must be >= 1, got {sample}"):
            max_depth_sampled(taxonomy, sample=sample, seed=0)


def kind_graph(n_entities, n_categories):
    nodes = [Node(f"e{i}", NodeKind.ENTITY, f"e{i}") for i in range(n_entities)]
    nodes += [Node(f"c{i}", NodeKind.CATEGORY, f"c{i}") for i in range(n_categories)]
    return WcnGraph(nodes, [])


class TestSampleEvalNodes:
    def test_counts_and_kinds(self):
        graph = kind_graph(300, 250)
        sample = sample_eval_nodes(graph, 200, 200, seed=3)
        assert len(sample) == 400
        assert sum(1 for n in sample if n.startswith("e")) == 200

    def test_empty_request(self):
        assert sample_eval_nodes(kind_graph(5, 5), 0, 0, seed=1) == set()

    def test_deterministic(self):
        graph = kind_graph(50, 50)
        assert sample_eval_nodes(graph, 10, 10, 1) == sample_eval_nodes(graph, 10, 10, 1)
        assert sample_eval_nodes(graph, 10, 10, 1) != sample_eval_nodes(graph, 10, 10, 2)

    def test_insufficient(self):
        with raises_error("requested 4 entity nodes, only 3 available"):
            sample_eval_nodes(kind_graph(3, 5), 4, 0, seed=1)


class TestFileFormats:
    def test_gold_roundtrip(self, tmp_path):
        gold = GoldEdgeSet(
            frozenset({"x", "y"}),
            {("x", "a"): Label.ISA, ("y", "b"): Label.NOT_ISA},
        )
        save_gold(gold, tmp_path / "g.tsv", tmp_path / "n.txt")
        again = load_gold(tmp_path / "g.tsv", tmp_path / "n.txt")
        assert again == gold

    def test_paths_roundtrip(self, tmp_path):
        paths = [
            AnnotatedPath(("apple", "fruit", "farmer", "human", "animal"), 2),
            AnnotatedPath(("a", "b")),
        ]
        save_paths(paths, tmp_path / "p.jsonl")
        text = (tmp_path / "p.jsonl").read_text(encoding="utf-8")
        assert '"first_wrong_index": 2' in text
        assert '"first_wrong_index": null' in text
        assert load_paths(tmp_path / "p.jsonl") == paths

    def test_malformed_paths(self, tmp_path):
        (tmp_path / "bad.jsonl").write_text('{"nodes": []}\n', encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_paths(tmp_path / "bad.jsonl")
        (tmp_path / "bad2.jsonl").write_text("not json\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_paths(tmp_path / "bad2.jsonl")
        (tmp_path / "bad3.jsonl").write_text("[]\n", encoding="utf-8")
        with raises_error(f"{tmp_path / 'bad3.jsonl'}:1: expected a JSON object, got []"):
            load_paths(tmp_path / "bad3.jsonl")

    @pytest.mark.parametrize("nodes, line_no", [
        (b"x\r\ny\r\n", 1),
        (b"x\n\ny\n", 2),
        (b"x\ty\n", 1),
    ])
    def test_malformed_sampled_nodes(self, tmp_path, nodes, line_no):
        (tmp_path / "n.txt").write_bytes(nodes)
        (tmp_path / "g.tsv").write_text("x\ta\tisa\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as info:
            load_gold(tmp_path / "g.tsv", tmp_path / "n.txt")
        assert info.value.line_no == line_no

    def test_malformed_gold(self, tmp_path):
        (tmp_path / "n.txt").write_text("x\n", encoding="utf-8")
        (tmp_path / "g.tsv").write_text("x\ta\tmaybe\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_gold(tmp_path / "g.tsv", tmp_path / "n.txt")

    def test_gold_without_judgments(self, tmp_path):
        # An empty gold file scored P = R = 0 and exited 0.
        (tmp_path / "n.txt").write_text("x\n", encoding="utf-8")
        (tmp_path / "g.tsv").write_text("", encoding="utf-8")
        with raises_error(f"{tmp_path / 'g.tsv'}: no judged edges"):
            load_gold(tmp_path / "g.tsv", tmp_path / "n.txt")
