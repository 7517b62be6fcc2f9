import os
import random
import stat

import pytest

from taxonet.graph import (
    EdgeKind,
    InterlangMap,
    Node,
    NodeKind,
    Provenance,
    TaxoEdge,
    Taxonomy,
    WcnGraph,
    _write_lines,
    edge_kind,
    load_interlang,
    load_taxonomy,
    load_wcn,
    save_taxonomy,
    save_wcn,
)
from taxonet.errors import MalformedRow

from conftest import fig1_graph, raises_error


def write_lines(path, rows):
    path.write_text("".join(r + "\n" for r in rows), encoding="utf-8", newline="\n")
    return path


def test_load_simple_graph(tmp_path):
    nodes = write_lines(
        tmp_path / "nodes.tsv",
        ["e1\tentity\tAuguste", "c1\tcategory\tEmpereur romain", "c2\tcategory\tEmpereur"],
    )
    edges = write_lines(tmp_path / "edges.tsv", ["e1\tc1", "c1\tc2"])
    graph = load_wcn(nodes, edges)
    assert len(graph.nodes) == 3
    assert graph.n_edges == 2
    assert graph.parents("e1") == ["c1"]
    assert graph.title("c1") == "Empereur romain"


def test_duplicate_edges_collapse(tmp_path):
    nodes = write_lines(tmp_path / "n.tsv", ["e1\tentity\ta", "c1\tcategory\tb"])
    edges = write_lines(tmp_path / "e.tsv", ["e1\tc1", "e1\tc1"])
    graph = load_wcn(nodes, edges)
    assert graph.n_edges == 1
    assert graph.parents("e1") == ["c1"]


def test_repeated_edge_row_dropped_with_one_warning(tmp_path, capsys):
    nodes = write_lines(tmp_path / "n.tsv", ["e1\tentity\ta", "c1\tcategory\tb", "c2\tcategory\tc"])
    edges = write_lines(tmp_path / "e.tsv", ["e1\tc1", "e1\tc2", "e1\tc1", "c1\tc2"])
    graph = load_wcn(nodes, edges)
    assert graph.parents("e1") == ["c1", "c2"]
    assert graph.n_edges == 3
    assert capsys.readouterr().err == "duplicate edge dropped: e1 -> c1\n"


def test_one_string_per_node_id(tmp_path):
    """Every stored child and parent is the node's own id object, the key of
    `nodes`, not the string its edges.tsv row carried."""
    nodes = write_lines(
        tmp_path / "n.tsv", ["e1\tentity\ta", "c1\tcategory\tb", "c2\tcategory\tc"]
    )
    edges = write_lines(tmp_path / "e.tsv", ["e1\tc1", "e1\tc2", "c1\tc2", "c2\tc1"])
    graph = load_wcn(nodes, edges)
    keys = {node_id: node_id for node_id in graph.nodes}
    assert len(list(graph.edges())) == 4
    for child, parent in graph.edges():
        assert child is keys[child] is graph.nodes[child].id
        assert parent is keys[parent] is graph.nodes[parent].id


def test_random_edge_lists_with_repeated_rows():
    """Against a set-based reference: each child's parents in the order of
    their first row, repeated rows dropped and not counted."""
    for seed in range(200):
        rng = random.Random(seed)
        categories = [f"c{i}" for i in range(rng.randint(2, 6))]
        entities = [f"e{i}" for i in range(rng.randint(0, 3))]
        rows = []
        for _ in range(rng.randint(0, 30)):
            child, parent = rng.choice(categories + entities), rng.choice(categories)
            if child != parent:
                rows.append((child, parent))
        nodes = [Node(c, NodeKind.CATEGORY, c) for c in categories]
        nodes += [Node(e, NodeKind.ENTITY, e) for e in entities]
        graph = WcnGraph(nodes, rows)

        edge_set = set(rows)
        first_rows = sorted(edge_set, key=rows.index)
        assert graph.n_edges == len(edge_set), seed
        for child in categories + entities:
            assert graph.parents(child) == [p for c, p in first_rows if c == child], seed
            for parent in categories + entities:
                assert graph.has_edge(child, parent) == ((child, parent) in edge_set), seed
        assert list(graph.edges()) == sorted(first_rows, key=lambda e: e[0]), seed


def test_entity_to_entity_rejected(tmp_path):
    nodes = write_lines(tmp_path / "n.tsv", ["e1\tentity\ta", "e2\tentity\tb"])
    edges = write_lines(tmp_path / "e.tsv", ["e1\te2"])
    with raises_error(f"{edges}:1: forbidden edge kind (entity->entity): 'e1' -> 'e2'"):
        load_wcn(nodes, edges)


def test_category_to_entity_rejected(tmp_path):
    nodes = write_lines(tmp_path / "n.tsv", ["e1\tentity\ta", "c1\tcategory\tb"])
    edges = write_lines(tmp_path / "e.tsv", ["c1\te1"])
    with raises_error(f"{edges}:1: forbidden edge kind (category->entity): 'c1' -> 'e1'"):
        load_wcn(nodes, edges)


def test_load_errors(tmp_path):
    nodes = write_lines(tmp_path / "n.tsv", ["e1\tentity\ta", "c1\tcategory\tb"])
    with raises_error(f"{tmp_path / 'e1.tsv'}:2: edge references unknown node: 'e1' -> 'cX'"):
        load_wcn(nodes, write_lines(tmp_path / "e1.tsv", ["e1\tc1", "e1\tcX"]))
    with raises_error(f"{tmp_path / 'e2.tsv'}:1: self-loop on node: 'c1'"):
        load_wcn(nodes, write_lines(tmp_path / "e2.tsv", ["c1\tc1"]))
    with pytest.raises(MalformedRow):
        load_wcn(nodes, write_lines(tmp_path / "e3.tsv", ["e1 c1"]))
    with raises_error(f"{tmp_path / 'n2.tsv'}:2: duplicate node id: 'e1'"):
        load_wcn(
            write_lines(tmp_path / "n2.tsv", ["e1\tentity\ta", "e1\tentity\tb"]),
            write_lines(tmp_path / "e4.tsv", []),
        )
    with raises_error(f"{tmp_path / 'n3.tsv'}:1: unknown node kind 'widget'"):
        load_wcn(write_lines(tmp_path / "n3.tsv", ["e1\twidget\ta"]), tmp_path / "e4.tsv")
    with raises_error(f"{tmp_path / 'n4.tsv'}:1: empty title for node 'e1'"):
        load_wcn(write_lines(tmp_path / "n4.tsv", ["e1\tentity\t "]), tmp_path / "e4.tsv")


def test_roundtrip(tmp_path):
    graph = fig1_graph()
    save_wcn(graph, tmp_path / "n.tsv", tmp_path / "e.tsv")
    again = load_wcn(tmp_path / "n.tsv", tmp_path / "e.tsv")
    assert set(again.nodes) == set(graph.nodes)
    assert set(again.edges()) == set(graph.edges())
    for node_id, node in graph.nodes.items():
        assert again.nodes[node_id] == node


def test_every_edge_has_a_kind():
    graph = fig1_graph()
    for child, parent in graph.edges():
        assert edge_kind(graph, child) in (
            EdgeKind.ENTITY_TO_CATEGORY,
            EdgeKind.CATEGORY_TO_CATEGORY,
        )


def test_edge_kind_values():
    graph = fig1_graph()
    assert edge_kind(graph, "Auguste") is EdgeKind.ENTITY_TO_CATEGORY
    assert edge_kind(graph, "Empereur romain") is EdgeKind.CATEGORY_TO_CATEGORY
    # The network itself rejects every edge into an entity, so none has a kind.
    entity, category = Node("a", NodeKind.ENTITY, "a"), Node("c", NodeKind.CATEGORY, "c")
    with raises_error("forbidden edge kind (entity->entity): 'a' -> 'b'"):
        WcnGraph([entity, Node("b", NodeKind.ENTITY, "b")], [("a", "b")])
    with raises_error("forbidden edge kind (category->entity): 'c' -> 'a'"):
        WcnGraph([entity, category], [("c", "a")])


def test_interlang_lookup_and_inverse(tmp_path):
    path = write_lines(tmp_path / "l.tsv", ["Auguste\tAugustus"])
    links = load_interlang(path)
    assert len(links) == 1
    assert links.to_source("Auguste") == "Augustus"
    assert links.to_target("Augustus") == "Auguste"
    # inverse property on a bigger map
    links = InterlangMap([(f"t{i}", f"s{i}") for i in range(50)])
    for i in range(50):
        assert links.to_target(links.to_source(f"t{i}")) == f"t{i}"


def test_interlang_empty_file_ok(tmp_path):
    links = load_interlang(write_lines(tmp_path / "l.tsv", []))
    assert len(links) == 0


def test_interlang_non_bijective(tmp_path):
    message = "node appears in more than one interlanguage link"
    with raises_error(f"{tmp_path / 'l.tsv'}:2: {message}: 'x'"):
        load_interlang(write_lines(tmp_path / "l.tsv", ["x\ta", "x\tb"]))
    with raises_error(f"{tmp_path / 'l2.tsv'}:2: {message}: 'a'"):
        load_interlang(write_lines(tmp_path / "l2.tsv", ["x\ta", "y\ta"]))
    with pytest.raises(MalformedRow):
        load_interlang(write_lines(tmp_path / "l3.tsv", ["x\t"]))


def test_taxonomy_basics():
    taxo = Taxonomy([TaxoEdge("a", "b"), TaxoEdge("a", "c"), TaxoEdge("b", "c")])
    assert len(taxo) == 3
    assert taxo.hypernyms("a") == ["b", "c"]
    assert list(taxo.parent_edges("a")) == [TaxoEdge("a", "b"), TaxoEdge("a", "c")]
    assert list(taxo.parent_edges("c")) == []
    assert taxo.covered("a") and taxo.covered("b") and not taxo.covered("c")
    assert taxo.node_ids() == {"a", "b", "c"}
    assert ("a", "b") in taxo
    assert len(Taxonomy([TaxoEdge("a", "b"), TaxoEdge("a", "b")])) == 1
    with pytest.raises(ValueError):
        TaxoEdge("a", "b", score=1.5)


def test_taxonomy_repeated_pair_keeps_first_highest_score():
    first = TaxoEdge("a", "b", 0.5, Provenance.PROJECTED)
    lower = TaxoEdge("a", "b", 0.3, Provenance.INDUCED)
    higher = TaxoEdge("a", "b", 0.8, Provenance.PROJECTED)
    equal = TaxoEdge("a", "b", 0.8, Provenance.INDUCED)
    edges = [TaxoEdge("b", "c"), first, TaxoEdge("a", "c"), lower, higher, TaxoEdge("0", "a"), equal]
    taxo = Taxonomy(edge for edge in edges)
    assert taxo.edge("a", "b") is higher
    assert len(taxo) == 4
    assert taxo.edges() == [TaxoEdge("0", "a"), higher, TaxoEdge("a", "c"), TaxoEdge("b", "c")]
    assert taxo.hypernyms("a") == ["b", "c"]


def test_taxonomy_file_roundtrip(tmp_path):
    taxo = Taxonomy(
        [
            TaxoEdge("a", "b", 1.0, Provenance.PROJECTED),
            TaxoEdge("b", "c", 0.471234, Provenance.INDUCED),
        ]
    )
    save_taxonomy(taxo, tmp_path / "t.tsv")
    text = (tmp_path / "t.tsv").read_text(encoding="utf-8")
    assert text == "a\tb\t1.000000\tprojected\nb\tc\t0.471234\tinduced\n"
    again = load_taxonomy(tmp_path / "t.tsv")
    assert again.edge_pairs() == taxo.edge_pairs()
    assert again.edge("b", "c").provenance is Provenance.INDUCED


def test_taxonomy_load_defaults_and_errors(tmp_path):
    path = write_lines(tmp_path / "t.tsv", ["a\tb", "b\tc\t0.25", "c\td\t0.5\tinduced"])
    taxo = load_taxonomy(path)
    assert taxo.edge("a", "b").score == 1.0
    assert taxo.edge("a", "b").provenance is Provenance.PROJECTED
    assert taxo.edge("b", "c").score == 0.25
    assert taxo.edge("c", "d").provenance is Provenance.INDUCED
    # `float` reads "0.0_1" as 0.01 and forgives surrounding whitespace.
    for name, score in [("bad1.tsv", "not-a-number"), ("bad4.tsv", "0.0_1"), ("bad5.tsv", " 0.5"),
                        ("bad6.tsv", "0.5\u2003")]:
        with raises_error(f"{tmp_path / name}:1: bad score {score!r}"):
            load_taxonomy(write_lines(tmp_path / name, [f"a\tb\t{score}"]))
    with raises_error(f"{tmp_path / 'bad2.tsv'}:1: bad provenance 'guessed'"):
        load_taxonomy(write_lines(tmp_path / "bad2.tsv", ["a\tb\t0.5\tguessed"]))
    with pytest.raises(MalformedRow):
        load_taxonomy(write_lines(tmp_path / "bad3.tsv", ["a\tb\t1.7"]))


def test_taxonomy_duplicate_rows_keep_max(tmp_path):
    path = write_lines(tmp_path / "t.tsv", ["a\tb\t0.3\tinduced", "a\tb\t0.8\tinduced"])
    assert load_taxonomy(path).edge("a", "b").score == 0.8
    # Of equal scores, the first row stays.
    path = write_lines(tmp_path / "t2.tsv", ["a\tb\t0.5\tinduced", "a\tb\t0.5\tprojected"])
    assert load_taxonomy(path).edge("a", "b").provenance is Provenance.INDUCED


def test_taxonomy_rows_repeated_warn_in_row_order(tmp_path, capsys):
    rows = ["z\ty\t0.2\tinduced", "a\tb\t0.3\tinduced", "z\ty\t0.1\tinduced",
            "a\tb\t0.8\tinduced", "a\tb\t0.5\tprojected"]
    taxo = load_taxonomy(write_lines(tmp_path / "t.tsv", rows))
    assert capsys.readouterr().err.splitlines() == [
        f"duplicate taxonomy edge {pair}, keeping max score"
        for pair in [("z", "y"), ("a", "b"), ("a", "b")]
    ]
    assert taxo.edges() == [TaxoEdge("a", "b", 0.8, Provenance.INDUCED),
                            TaxoEdge("z", "y", 0.2, Provenance.INDUCED)]
    load_taxonomy(write_lines(tmp_path / "t2.tsv", rows[:2]))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("lines, line_no, reason", [
    # Within a line: a CR line end, then a BOM, then the columns.
    (["a\tb", "a\r"], 2, "line ends in CR; files must use LF line ends"),
    (["\ufeffa\tb\tc\r"], 1, "line ends in CR; files must use LF line ends"),
    (["\ufeffa"], 1, "file starts with a UTF-8 byte order mark"),
    # A format fault comes before a rule fault on an earlier line.
    (["a\ta", "a\tb", "a\tb\t"], 3, "expected 2 nonempty columns, got 'a\\tb\\t'"),
])
def test_format_fault_order(tmp_path, lines, line_no, reason):
    nodes = write_lines(tmp_path / "n.tsv", ["a\tcategory\tA", "b\tcategory\tB"])
    edges = write_lines(tmp_path / "e.tsv", lines)
    with raises_error(f"{edges}:{line_no}: {reason}"):
        load_wcn(nodes, edges)


def test_write_lines_error_keeps_old_file(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"old\tfile\n")

    def lines():
        yield "a\tb\n"
        raise RuntimeError("halfway")

    with pytest.raises(RuntimeError, match="halfway"):
        _write_lines(path, lines())
    assert path.read_bytes() == b"old\tfile\n"
    assert os.listdir(tmp_path) == ["t.tsv"]
    _write_lines(path, iter(["a\tb\n"]))
    assert path.read_bytes() == b"a\tb\n"
    assert os.listdir(tmp_path) == ["t.tsv"]


def test_write_lines_open_error_names_path(tmp_path):
    path = tmp_path / "missing" / "t.tsv"
    with pytest.raises(FileNotFoundError) as info:
        _write_lines(path, ["a\n"])
    assert str(info.value) == f"[Errno 2] No such file or directory: '{path}'"


def test_write_lines_fifo_in_place(tmp_path):
    # A path that is not a regular file is written, not replaced.
    path = tmp_path / "out"
    os.mkfifo(path)
    reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
    try:
        _write_lines(path, ["a\tb\n"])
        assert os.read(reader, 64) == b"a\tb\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(path).st_mode)
    assert os.listdir(tmp_path) == ["out"]
