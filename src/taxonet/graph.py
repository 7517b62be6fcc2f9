"""Core data types: category network, taxonomies, interlanguage links.

File formats (UTF-8, literal tabs, LF line ends, no header):

    nodes.tsv      id <TAB> kind <TAB> title          kind in {entity, category}
    edges.tsv      child_id <TAB> parent_id           direction: child -> parent
    langlinks.tsv  target_id <TAB> source_id
    taxonomy.tsv   child_id <TAB> parent_id [<TAB> score [<TAB> provenance]]

All structures are immutable after construction, so a child forked by
`taxonet.forking.run_pair` works on the same data as its parent for as
long as both run. Titles are stored verbatim; normalization is the
feature layer's job.

Every line-based file is read by `_lines`, which reports invalid UTF-8 as
`file:line`; every output file, a model too, is written whole or not at
all by `_write_lines`.
A loader hands its rows to the class that checks their rules (`WcnGraph`,
`InterlangMap`) with a `_Cursor` at the current row, so a broken rule is
reported as `file:line` too. `check_projected` is the one check that a
projected taxonomy's edges are all network edges.

A repeated edge row and a repeated taxonomy row are dropped with a warning,
one plain line on stderr; `logging` is not used.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from .errors import MalformedRow, TaxonetError


class NodeKind(Enum):
    ENTITY = "entity"
    CATEGORY = "category"


class EdgeKind(Enum):
    ENTITY_TO_CATEGORY = "ec"
    CATEGORY_TO_CATEGORY = "cc"


class Provenance(Enum):
    PROJECTED = "projected"
    INDUCED = "induced"


# The loaders parse a column by one dict lookup, not an `Enum` call per row.
_NODE_KINDS = {kind.value: kind for kind in NodeKind}
_PROVENANCES = {provenance.value: provenance for provenance in Provenance}


Node = namedtuple("Node", "id kind title")


class TaxoEdge(namedtuple("TaxoEdge", "child parent score provenance",
                          defaults=(1.0, Provenance.PROJECTED))):
    """An accepted is-a edge. Projected edges carry score 1.0."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"edge score out of [0,1]: {self.score}")
        return self


class WcnGraph:
    """Directed category network: child -> parent means "grouped into".

    Each child's parent list, in input order without repeated rows, is the
    one store of its edges. Only Phase 1's BFS relies on that order (for
    ties); Phase 3 orders paths by key. Entity->Entity and Category->Entity
    edges are rejected; cycles among categories are allowed.
    """

    def __init__(self, nodes: Iterable[Node], edges: Iterable[tuple[str, str]]):
        self.nodes: dict[str, Node] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise TaxonetError(f"duplicate node id: {node.id!r}")
            if not node.id:
                raise ValueError("empty node id")
            if not node.title.strip():
                raise ValueError(f"empty title for node {node.id!r}")
            self.nodes[node.id] = node

        self._parents: dict[str, list[str]] = {}
        for child, parent in edges:
            if child == parent:
                raise TaxonetError(f"self-loop on node: {child!r}")
            if child not in self.nodes or parent not in self.nodes:
                raise TaxonetError(f"edge references unknown node: {child!r} -> {parent!r}")
            edge_kind(self, child, parent)
            parents = self._parents.setdefault(child, [])
            if parent in parents:
                print(f"duplicate edge dropped: {child} -> {parent}", file=sys.stderr)
                continue
            parents.append(parent)
        self._n_edges = sum(map(len, self._parents.values()))

    def parents(self, child: str) -> list[str]:
        return self._parents.get(child, [])

    def has_edge(self, child: str, parent: str) -> bool:
        return parent in self.parents(child)

    def edges(self) -> Iterator[tuple[str, str]]:
        """All edges, children sorted, parents in stored order."""
        for child in sorted(self._parents):
            for parent in self._parents[child]:
                yield child, parent

    def node_ids(self, kind: NodeKind | None = None) -> list[str]:
        """Node ids in ascending order, optionally filtered by kind."""
        if kind is None:
            return sorted(self.nodes)
        return sorted(n for n, node in self.nodes.items() if node.kind is kind)

    def title(self, node_id: str) -> str:
        return self.nodes[node_id].title

    @property
    def n_edges(self) -> int:
        return self._n_edges


def edge_kind(graph: WcnGraph, child: str, parent: str) -> EdgeKind:
    """Classify an edge by its endpoint kinds."""
    ck = graph.nodes[child].kind
    pk = graph.nodes[parent].kind
    if pk is NodeKind.ENTITY:
        detail = "entity->entity" if ck is NodeKind.ENTITY else "category->entity"
        raise TaxonetError(f"forbidden edge kind ({detail}): {child!r} -> {parent!r}")
    if ck is NodeKind.ENTITY:
        return EdgeKind.ENTITY_TO_CATEGORY
    return EdgeKind.CATEGORY_TO_CATEGORY


class Taxonomy:
    """A set of is-a edges with an index for O(1) hypernym lookup."""

    def __init__(self, edges: Iterable[TaxoEdge]):
        self._by_pair: dict[tuple[str, str], TaxoEdge] = {}
        for edge in edges:
            pair = (edge.child, edge.parent)
            if pair in self._by_pair:
                raise ValueError(f"duplicate taxonomy edge: {pair}")
            self._by_pair[pair] = edge
        self._index: dict[str, list[str]] = {}
        for child, parent in sorted(self._by_pair):
            self._index.setdefault(child, []).append(parent)

    def __len__(self) -> int:
        return len(self._by_pair)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._by_pair

    def edges(self) -> list[TaxoEdge]:
        """Edges sorted by (child, parent)."""
        return [self._by_pair[p] for p in sorted(self._by_pair)]

    def edge_pairs(self) -> set[tuple[str, str]]:
        return set(self._by_pair)

    def edge(self, child: str, parent: str) -> TaxoEdge | None:
        return self._by_pair.get((child, parent))

    def hypernyms(self, node_id: str) -> list[str]:
        return self._index.get(node_id, [])

    def covered(self, node_id: str) -> bool:
        """True when the node has at least one hypernym."""
        return node_id in self._index

    def covered_nodes(self) -> set[str]:
        return set(self._index)

    def node_ids(self) -> set[str]:
        """All ids appearing as child or parent of some edge."""
        ids = set(self._index)
        for _, parent in self._by_pair:
            ids.add(parent)
        return ids


def coverage(graph: WcnGraph, taxonomy: Taxonomy, kind: NodeKind) -> float:
    """Share of the graph's nodes of this kind that have a hypernym."""
    ids = graph.node_ids(kind)
    if not ids:
        return 0.0
    return sum(1 for n in ids if taxonomy.covered(n)) / len(ids)


def check_projected(graph: WcnGraph, projected: Taxonomy) -> None:
    """Raise unless every edge of the projected taxonomy is a network edge."""
    for edge in projected.edges():
        if not graph.has_edge(edge.child, edge.parent):
            raise TaxonetError(
                f"projected edge not present in graph: {edge.child!r} -> {edge.parent!r}"
            )


class InterlangMap:
    """1:1 partial mapping between target-language and source-language ids."""

    def __init__(self, pairs: Iterable[tuple[str, str]]):
        self._to_source: dict[str, str] = {}
        self._to_target: dict[str, str] = {}
        for target, source in pairs:
            if target in self._to_source or source in self._to_target:
                dup = target if target in self._to_source else source
                raise TaxonetError(f"node appears in more than one interlanguage link: {dup!r}")
            self._to_source[target] = source
            self._to_target[source] = target

    def __len__(self) -> int:
        return len(self._to_source)

    def to_source(self, target_id: str) -> str | None:
        return self._to_source.get(target_id)

    def to_target(self, source_id: str) -> str | None:
        return self._to_target.get(source_id)

    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self._to_source.items())


def _lines(path: Path) -> Iterator[tuple[int, str]]:
    """Each line of a UTF-8 file, split on LF only, numbered from 1. Only a
    file that fails to decode is read again, in binary, for its bad line."""
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for line_no, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise MalformedRow(path, line_no, "invalid UTF-8") from None
        raise


def _write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write the strings of `lines`, LFs included, to a UTF-8 file as they are drawn.

    The file appears whole or not at all: the lines go to a temporary file
    beside it, which replaces it once all are written and is removed if
    anything fails, so an error leaves an old file as it was. A failed open
    names `path`. A path that exists and is not a regular file (a directory,
    `/dev/null`, a FIFO) is opened in place: a rename would replace it.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        return
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _rows(
    path: Path, *n_cols: int, cursor: _Cursor | None = None
) -> Iterator[tuple[int, list[str]]]:
    """Split each line on tabs; every row needs one of `n_cols` nonempty
    columns. A `cursor` is kept at the row handed out last."""
    expected = " or ".join(map(str, n_cols))
    for line_no, line in _lines(path):
        line = line.rstrip("\n")
        if line.endswith("\r"):
            raise MalformedRow(path, line_no, "line ends in CR; files must use LF line ends")
        if line_no == 1 and line.startswith("\ufeff"):
            raise MalformedRow(path, line_no, "file starts with a UTF-8 byte order mark")
        cols = line.split("\t")
        if len(cols) not in n_cols or "" in cols:
            raise MalformedRow(path, line_no, f"expected {expected} nonempty columns, got {line!r}")
        if cursor is not None:
            cursor.at = (path, line_no)
        yield line_no, cols
    if cursor is not None:
        cursor.at = None


class _Cursor:
    """The file and line of the row that `_rows` handed out last, so that a
    rule a class checks as it consumes the rows is blamed on that row."""

    def __init__(self):
        self.at: tuple[Path, int] | None = None

    def build(self, cls, *args):
        """`cls(*args)`, with a rule it breaks raised as a `MalformedRow`."""
        try:
            return cls(*args)
        except (TaxonetError, ValueError) as exc:
            if isinstance(exc, MalformedRow) or self.at is None:
                raise
            raise MalformedRow(*self.at, str(exc)) from None


def load_wcn(nodes_file: str | Path, edges_file: str | Path) -> WcnGraph:
    """Load and validate a category network from nodes.tsv + edges.tsv."""
    nodes_file = Path(nodes_file)
    edges_file = Path(edges_file)
    cursor = _Cursor()

    def nodes() -> Iterator[Node]:
        for line_no, (node_id, kind_str, title) in _rows(nodes_file, 3, cursor=cursor):
            kind = _NODE_KINDS.get(kind_str)
            if kind is None:
                raise MalformedRow(nodes_file, line_no, f"unknown node kind {kind_str!r}")
            yield Node(node_id, kind, title)

    edges = ((c, p) for _, (c, p) in _rows(edges_file, 2, cursor=cursor))
    return cursor.build(WcnGraph, nodes(), edges)


def save_wcn(graph: WcnGraph, nodes_file: str | Path, edges_file: str | Path) -> None:
    """Write a graph back out; round-trips through load_wcn."""
    nodes = (graph.nodes[node_id] for node_id in sorted(graph.nodes))
    _write_lines(nodes_file, (f"{node.id}\t{node.kind.value}\t{node.title}\n" for node in nodes))
    _write_lines(edges_file, (f"{child}\t{parent}\n" for child, parent in graph.edges()))


def load_interlang(path: str | Path) -> InterlangMap:
    """Load langlinks.tsv; an id on either side may appear at most once."""
    cursor = _Cursor()
    pairs = ((t, s) for _, (t, s) in _rows(Path(path), 2, cursor=cursor))
    return cursor.build(InterlangMap, pairs)


def save_interlang(links: InterlangMap, path: str | Path) -> None:
    _write_lines(path, (f"{target}\t{source}\n" for target, source in links.pairs()))


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Load taxonomy.tsv; score/provenance columns default to 1.0/projected.

    Repeated (child, parent) rows collapse to the maximum score.
    """
    path = Path(path)
    best: dict[tuple[str, str], TaxoEdge] = {}
    for line_no, cols in _rows(path, 2, 3, 4):
        child, parent = cols[0], cols[1]
        score = 1.0
        provenance = Provenance.PROJECTED
        if len(cols) >= 3:
            try:
                score = float(cols[2])
            except ValueError:
                raise MalformedRow(path, line_no, f"bad score {cols[2]!r}") from None
        if len(cols) == 4:
            provenance = _PROVENANCES.get(cols[3])
            if provenance is None:
                raise MalformedRow(path, line_no, f"bad provenance {cols[3]!r}")
        try:
            edge = TaxoEdge(child, parent, score, provenance)
        except ValueError as exc:
            raise MalformedRow(path, line_no, str(exc)) from None
        pair = (child, parent)
        if pair in best:
            print(f"duplicate taxonomy edge {pair}, keeping max score", file=sys.stderr)
            if edge.score <= best[pair].score:
                continue
        best[pair] = edge
    return Taxonomy(best.values())


def save_taxonomy(taxonomy: Taxonomy, path: str | Path) -> None:
    """Write taxonomy.tsv sorted by (child, parent), scores at 6 decimals."""
    _write_lines(path, (f"{edge.child}\t{edge.parent}\t{edge.score:.6f}\t{edge.provenance.value}\n"
                        for edge in taxonomy.edges()))
