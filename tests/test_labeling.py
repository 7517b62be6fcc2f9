import pytest
from hypothesis import given, strategies as st

from taxonet import Node, NodeKind, TaxoEdge, Taxonomy, WcnGraph
from taxonet.labeling import (
    Label,
    LabeledEdge,
    label_edges,
    split_by_kind,
    train_val_split,
)
from taxonet.projection import project

from conftest import fig1_graph, fig1_links, fig1_source, raises_error


def fig1_labeled():
    graph = fig1_graph()
    projected, _ = project(fig1_source(), graph, fig1_links())
    return graph, projected, label_edges(graph, projected)


def test_fig1_labels():
    _, _, labeled = fig1_labeled()
    by_pair = {(e.child, e.parent): e.label for e in labeled}
    assert by_pair[("Auguste", "Empereur romain")] is Label.ISA
    assert by_pair[("Auguste", "Rome")] is Label.NOT_ISA
    assert by_pair[("Empereur romain", "Empereur")] is Label.ISA
    assert len(labeled) == 3


def test_labels_sorted_and_subset_of_graph():
    graph, projected, labeled = fig1_labeled()
    assert labeled == sorted(labeled, key=lambda e: (e.child, e.parent))
    for e in labeled:
        assert graph.has_edge(e.child, e.parent)
    # is-a set is exactly the projected edge set
    isa = {(e.child, e.parent) for e in labeled if e.label is Label.ISA}
    assert isa == projected.edge_pairs()


def test_empty_projected_gives_no_labels():
    graph = fig1_graph()
    assert label_edges(graph, Taxonomy([])) == []


def test_notisa_requires_covered_child():
    nodes = [Node(f"e{i}", NodeKind.ENTITY, f"e{i}") for i in range(3)]
    nodes += [Node(f"c{i}", NodeKind.CATEGORY, f"c{i}") for i in range(3)]
    edges = [("e0", "c0"), ("e0", "c1"), ("e1", "c1"), ("e1", "c2"), ("e2", "c2")]
    graph = WcnGraph(nodes, edges)
    projected = Taxonomy([TaxoEdge("e0", "c0"), TaxoEdge("e1", "c1")])
    labeled = label_edges(graph, projected)
    by_pair = {(e.child, e.parent): e.label for e in labeled}
    # hand evaluation: e0, e1 covered; e2 not
    assert by_pair == {
        ("e0", "c0"): Label.ISA,
        ("e0", "c1"): Label.NOT_ISA,
        ("e1", "c1"): Label.ISA,
        ("e1", "c2"): Label.NOT_ISA,
    }
    assert ("e2", "c2") not in by_pair


def test_projected_edge_not_in_graph():
    graph = fig1_graph()
    with raises_error("projected edge not present in graph: 'Auguste' -> 'Personne'"):
        label_edges(graph, Taxonomy([TaxoEdge("Auguste", "Personne")]))


def test_split_by_kind_partition():
    graph, _, labeled = fig1_labeled()
    ec, cc = split_by_kind(labeled, graph)
    assert [(e.child, e.parent) for e in ec] == [
        ("Auguste", "Empereur romain"),
        ("Auguste", "Rome"),
    ]
    assert [(e.child, e.parent) for e in cc] == [("Empereur romain", "Empereur")]


def test_split_by_kind_all_entities():
    nodes = [Node("e", NodeKind.ENTITY, "e"), Node("c", NodeKind.CATEGORY, "c")]
    graph = WcnGraph(nodes, [("e", "c")])
    ec, cc = split_by_kind([LabeledEdge("e", "c", Label.ISA)], graph)
    assert len(ec) == 1 and cc == []


def synthetic_edges(n_isa, n_notisa):
    edges = [LabeledEdge(f"c{i:04d}", f"p{i:04d}", Label.ISA) for i in range(n_isa)]
    edges += [LabeledEdge(f"c{i:04d}", f"q{i:04d}", Label.NOT_ISA) for i in range(n_notisa)]
    return edges


class TestTrainValSplit:
    def test_quarter_split_counts(self):
        train, val = train_val_split(synthetic_edges(100, 40), 0.25, seed=1)
        assert sum(1 for e in val if e.label is Label.ISA) == 25
        assert sum(1 for e in val if e.label is Label.NOT_ISA) == 10
        assert len(train) == 105

    def test_zero_fraction(self):
        train, val = train_val_split(synthetic_edges(10, 10), 0.0, seed=1)
        assert val == [] and len(train) == 20

    def test_determinism(self):
        edges = synthetic_edges(50, 30)
        first = train_val_split(edges, 0.25, seed=42)
        second = train_val_split(edges, 0.25, seed=42)
        assert first == second
        other = train_val_split(edges, 0.25, seed=43)
        assert other != first

    def test_disjoint_and_complete(self):
        edges = synthetic_edges(31, 17)
        train, val = train_val_split(edges, 0.25, seed=9)
        assert set(train).isdisjoint(val)
        assert sorted(train + val, key=lambda e: (e.child, e.parent)) == sorted(
            edges, key=lambda e: (e.child, e.parent)
        )

    def test_single_class_warns_but_works(self, capsys):
        train, val = train_val_split(synthetic_edges(8, 0), 0.25, seed=0)
        assert len(val) == 2 and len(train) == 6
        assert capsys.readouterr().err == (
            "no notisa edges to split; validation may miss the class\n"
        )

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            train_val_split([], 1.0, seed=0)

    @given(
        n_isa=st.integers(0, 60),
        n_notisa=st.integers(0, 60),
        fraction=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**32),
    )
    def test_stratified_counts_property(self, n_isa, n_notisa, fraction, seed):
        train, val = train_val_split(synthetic_edges(n_isa, n_notisa), fraction, seed)
        assert sum(1 for e in val if e.label is Label.ISA) == int(fraction * n_isa)
        assert sum(1 for e in val if e.label is Label.NOT_ISA) == int(fraction * n_notisa)
        assert len(train) + len(val) == n_isa + n_notisa

