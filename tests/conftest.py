import re
from pathlib import Path

import pytest

from taxonet import (
    InterlangMap,
    Node,
    NodeKind,
    TaxoEdge,
    Taxonomy,
    WcnGraph,
    save_interlang,
    save_taxonomy,
    save_wcn,
)
from taxonet.errors import TaxonetError


def raises_error(message: str):
    """`pytest.raises` for a `TaxonetError` whose message is exactly `message`."""
    return pytest.raises(TaxonetError, match=f"^{re.escape(message)}$")


def fig1_graph() -> WcnGraph:
    """The projection-example instance: Auguste and friends."""
    nodes = [
        Node("Auguste", NodeKind.ENTITY, "Auguste"),
        Node("Empereur romain", NodeKind.CATEGORY, "Empereur romain"),
        Node("Empereur", NodeKind.CATEGORY, "Empereur"),
        Node("Personne", NodeKind.CATEGORY, "Personne"),
        Node("Rome", NodeKind.CATEGORY, "Rome"),
    ]
    edges = [
        ("Auguste", "Empereur romain"),
        ("Auguste", "Rome"),
        ("Empereur romain", "Empereur"),
    ]
    return WcnGraph(nodes, edges)


def fig1_links() -> InterlangMap:
    return InterlangMap(
        [("Auguste", "Augustus"), ("Empereur", "Emperors"), ("Personne", "People")]
    )


def fig1_source() -> Taxonomy:
    return Taxonomy([TaxoEdge("Augustus", "Emperors"), TaxoEdge("Emperors", "People")])


def write_fig1(dirpath: Path) -> dict[str, Path]:
    """Write the instance as pipeline input files; returns their paths."""
    paths = {
        "nodes": dirpath / "nodes.tsv",
        "edges": dirpath / "edges.tsv",
        "langlinks": dirpath / "langlinks.tsv",
        "source_taxonomy": dirpath / "source_taxonomy.tsv",
    }
    save_wcn(fig1_graph(), paths["nodes"], paths["edges"])
    save_interlang(fig1_links(), paths["langlinks"])
    save_taxonomy(fig1_source(), paths["source_taxonomy"])
    return paths


@pytest.fixture
def fig1(tmp_path):
    return write_fig1(tmp_path)
