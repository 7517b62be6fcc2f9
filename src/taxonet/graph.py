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

A loader reads each file whole (`_text` names the line of invalid UTF-8),
and `_rows` splits it on LF, then each line on tabs, in one comprehension.
Each rule, of format or of content, is checked over all rows at once; only
when that check fails are the rows walked one by one, by the rule's one
per-row check (`_rows` itself, or one that `_first_fault` calls), to name
the first row that breaks it. Row i of a file is line i + 1, so every fault
is reported as `file:line`. A file's format faults come before its rule
faults, even on a later line; `load_wcn` checks the node kinds before it
reads edges.tsv, and the other node rules after. Every output file, a model
too, is written whole or not at all by `_write_lines`. `check_projected` is
the one check that a projected taxonomy's edges are all network edges, and
`WcnGraph._check_edge` the one rule that no edge leads into an entity, so
`edge_kind` reads an edge's kind from its child alone.

A repeated edge row is dropped, and repeated taxonomy rows are merged by
`Taxonomy`'s rule, each with a one-line warning on stderr (no `logging`).
"""

from __future__ import annotations

import gc
import os
import sys
from collections import namedtuple
from enum import Enum
from functools import wraps
from itertools import chain, repeat
from operator import attrgetter, contains, is_, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
    ties); Phase 3 orders paths by key. Edges into an entity are rejected;
    cycles among categories are allowed.

    One string per node id: every parent in the store, and every child key,
    is the node's own id object, the key of `nodes`, never the copy an edge
    row carried, so the edge rows' strings are freed once the graph is
    built, and a node's id is held once however many edges it has.
    """

    def __init__(self, nodes: Iterable[Node], edges: Iterable[tuple[str, str]]):
        nodes = nodes if isinstance(nodes, list) else list(nodes)
        self.nodes: dict[str, Node] = {node.id: node for node in nodes}
        if (len(self.nodes) < len(nodes) or "" in self.nodes
                or not all(map(str.strip, map(attrgetter("title"), nodes)))):
            self.nodes = {}
            _first_fault(nodes, self._add_node)

        edges = edges if isinstance(edges, list) else list(edges)
        # Each end as the node's own id object, or None for an unknown id. The
        # id-to-id dict is freed before the store is built, which lowers the load's peak.
        own = dict(zip(self.nodes, self.nodes)).get
        children, parents = (list(map(own, ends)) for ends in _columns(edges, 2))
        del own
        if (not (all(children) and all(parents)) or any(map(is_, children, parents))
                or NodeKind.ENTITY in {self.nodes[parent].kind for parent in set(parents)}):
            _first_fault(edges, self._check_edge)
        grouped: dict[str, list[str]] = {}
        for child, parent in zip(children, parents):
            stored = grouped.get(child)
            if stored is None:
                grouped[child] = [parent]
            elif parent in stored:
                print(f"duplicate edge dropped: {child} -> {parent}", file=sys.stderr)
            else:
                stored.append(parent)
        self._parents = grouped
        self._n_edges = sum(map(len, grouped.values()))

    # The rules, one row at a time. The constructor checks them over all
    # rows at once, and calls these only to name the first row that breaks one.
    def _add_node(self, node: Node) -> None:
        if node.id in self.nodes:
            raise TaxonetError(f"duplicate node id: {node.id!r}")
        if not node.id:
            raise ValueError("empty node id")
        if not node.title.strip():
            raise ValueError(f"empty title for node {node.id!r}")
        self.nodes[node.id] = node

    def _check_edge(self, edge: tuple[str, str]) -> None:
        child, parent = edge
        if child == parent:
            raise TaxonetError(f"self-loop on node: {child!r}")
        if child not in self.nodes or parent not in self.nodes:
            raise TaxonetError(f"edge references unknown node: {child!r} -> {parent!r}")
        if self.nodes[parent].kind is NodeKind.ENTITY:
            detail = f"{self.nodes[child].kind.value}->entity"
            raise TaxonetError(f"forbidden edge kind ({detail}): {child!r} -> {parent!r}")

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


def edge_kind(graph: WcnGraph, child: str) -> EdgeKind:
    """The kind of a network edge out of `child`: every parent is a category."""
    if graph.nodes[child].kind is NodeKind.ENTITY:
        return EdgeKind.ENTITY_TO_CATEGORY
    return EdgeKind.CATEGORY_TO_CATEGORY


class Taxonomy:
    """Is-a edges, each kept once in a dict from child to its `TaxoEdge`s,
    children and parents ascending by one stable sort. The one rule for a
    repeated (child, parent): the first of its edges with the highest score
    is kept, so builders pass their edges straight in."""

    def __init__(self, edges: Iterable[TaxoEdge]):
        grouped: dict[str, list[TaxoEdge]] = {}
        for edge in sorted(edges, key=itemgetter(0, 1)):
            stored = grouped.get(edge.child)
            if stored is None:
                grouped[edge.child] = [edge]
            elif stored[-1].parent != edge.parent:
                stored.append(edge)
            elif edge.score > stored[-1].score:
                stored[-1] = edge
        self._edges = grouped

    def __len__(self) -> int:
        return sum(map(len, self._edges.values()))

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return self.edge(*pair) is not None

    def edges(self) -> list[TaxoEdge]:
        """Edges sorted by (child, parent)."""
        return list(chain.from_iterable(self._edges.values()))

    def edge_pairs(self) -> set[tuple[str, str]]:
        return set(map(itemgetter(0, 1), self.edges()))

    def edge(self, child: str, parent: str) -> TaxoEdge | None:
        return next((edge for edge in self._edges.get(child, ()) if edge.parent == parent), None)

    def hypernyms(self, node_id: str) -> list[str]:
        return [edge.parent for edge in self.parent_edges(node_id)]

    def parent_edges(self, node_id: str) -> Sequence[TaxoEdge]:
        """The node's stored edges, parents ascending; not to be modified."""
        return self._edges.get(node_id, ())

    def covered(self, node_id: str) -> bool:
        """True when the node has at least one hypernym."""
        return node_id in self._edges

    def covered_nodes(self) -> set[str]:
        return set(self._edges)

    def node_ids(self) -> set[str]:
        """All ids appearing as child or parent of some edge."""
        return set(self._edges).union(edge.parent for edge in self.edges())


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
        pairs = pairs if isinstance(pairs, list) else list(pairs)
        targets, sources = _columns(pairs, 2)
        self._to_source: dict[str, str] = dict(zip(targets, sources))
        self._to_target: dict[str, str] = dict(zip(sources, targets))
        if len(self._to_source) < len(pairs) or len(self._to_target) < len(pairs):
            self._to_source, self._to_target = {}, {}
            _first_fault(pairs, self._link)

    def _link(self, pair: tuple[str, str]) -> None:
        """The rule, one link at a time, to name the first that breaks it."""
        target, source = pair
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


def _text(path: Path) -> str:
    """The whole of a UTF-8 file; invalid UTF-8 is a `MalformedRow` naming its line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise MalformedRow(path, line_no, "invalid UTF-8") from None


class _Rows(list):
    """The rows of the file at `path`: row i is line i + 1."""

    def __init__(self, path: Path, rows: Iterable):
        super().__init__(rows)
        self.path = path


def _rows(path: Path, *n_cols: int) -> _Rows:
    """Each line split on LF only, then on tabs; every row needs one of
    `n_cols` nonempty columns. The rules are checked over the whole text at
    once; only a file that breaks one is scanned line by line, for the first
    line at fault, which reports a CR line end, then a BOM, then its columns."""
    text = _text(path)
    rows = _Rows(path, [line.split("\t") for line in text.split("\n")])
    if rows[-1] == [""]:  # the final LF ends the last line
        rows.pop()
    if ("\r" in text and ("\r\n" in text or text.endswith("\r")) or text.startswith("\ufeff")
            or not set(map(len, rows)) <= set(n_cols) or any(map(contains, rows, repeat("")))):
        expected = " or ".join(map(str, n_cols))
        for line_no, cols in enumerate(rows, start=1):
            line = "\t".join(cols)
            if line.endswith("\r"):
                raise MalformedRow(path, line_no, "line ends in CR; files must use LF line ends")
            if line_no == 1 and line.startswith("\ufeff"):
                raise MalformedRow(path, line_no, "file starts with a UTF-8 byte order mark")
            if len(cols) not in n_cols or "" in cols:
                raise MalformedRow(path, line_no, f"expected {expected} nonempty columns, got {line!r}")
    return rows


def _columns(rows: list, n: int) -> list[tuple]:
    """The `n` columns of rows that all have `n`."""
    return list(zip(*rows)) or [()] * n


def _records(cls, rows) -> list:
    """A `cls` named tuple of each row, built in C: checked rows skip a `__new__` per row."""
    return list(map(tuple.__new__, repeat(cls), rows))


def _first_fault(items: list, check) -> None:
    """Call `check` on each item in order until one breaks a rule, and raise
    that error: as a `MalformedRow` naming its line when the items are `_Rows`."""
    for line_no, item in enumerate(items, start=1):
        try:
            check(item)
        except (TaxonetError, ValueError) as exc:
            if not isinstance(items, _Rows):
                raise
            raise MalformedRow(items.path, line_no, str(exc)) from None


def _gc_paused(load):
    """`load` run with the cyclic garbage collector paused. A loader makes a
    container for each row, and all of them live on, none in a cycle, so each
    collection that their count sets off walks them for nothing."""
    @wraps(load)
    def paused(*args):
        if not gc.isenabled():
            return load(*args)
        gc.disable()
        try:
            return load(*args)
        finally:
            gc.enable()
    return paused


def _check_kind(row: list[str]) -> None:
    if row[1] not in _NODE_KINDS:
        raise ValueError(f"unknown node kind {row[1]!r}")


def _nodes(path: Path) -> _Rows:
    """The rows of a nodes.tsv as `Node`s; the rows themselves are freed on return."""
    rows = _rows(path, 3)
    ids, kinds, titles = _columns(rows, 3)
    if not _NODE_KINDS.keys() >= set(kinds):
        _first_fault(rows, _check_kind)
    return _Rows(path, _records(Node, zip(ids, map(_NODE_KINDS.get, kinds), titles)))


@_gc_paused
def load_wcn(nodes_file: str | Path, edges_file: str | Path) -> WcnGraph:
    """Load and validate a category network from nodes.tsv + edges.tsv."""
    return WcnGraph(_nodes(Path(nodes_file)), _rows(Path(edges_file), 2))


def save_wcn(graph: WcnGraph, nodes_file: str | Path, edges_file: str | Path) -> None:
    """Write a graph back out; round-trips through load_wcn."""
    nodes = (graph.nodes[node_id] for node_id in sorted(graph.nodes))
    _write_lines(nodes_file, (f"{node.id}\t{node.kind.value}\t{node.title}\n" for node in nodes))
    _write_lines(edges_file, (f"{child}\t{parent}\n" for child, parent in graph.edges()))


@_gc_paused
def load_interlang(path: str | Path) -> InterlangMap:
    """Load langlinks.tsv; an id on either side may appear at most once."""
    return InterlangMap(_rows(Path(path), 2))


def save_interlang(links: InterlangMap, path: str | Path) -> None:
    _write_lines(path, (f"{target}\t{source}\n" for target, source in links.pairs()))


# What a taxonomy row of 2 or 3 columns leaves out: its score and provenance.
_TAXO_DEFAULTS = ["1.0", "projected"]


def _check_taxo_row(row: list[str]) -> None:
    """The rules of one taxonomy row, to name the first row that breaks one."""
    child, parent, score, provenance = row
    try:
        # `float` accepts all three: "_" between digits, surrounding
        # whitespace, and non-ASCII digits such as "０.５".
        if "_" in score or score != score.strip() or not score.isascii():
            raise ValueError
        value = float(score)
    except ValueError:
        raise ValueError(f"bad score {score!r}") from None
    if provenance not in _PROVENANCES:
        raise ValueError(f"bad provenance {provenance!r}")
    TaxoEdge(child, parent, value, _PROVENANCES[provenance])


def _taxo_columns(path: Path) -> tuple:
    """A taxonomy file's children, parents, scores and provenances, checked;
    the rows themselves are freed on return."""
    rows = _Rows(path, [row + _TAXO_DEFAULTS[len(row) - 2:] for row in _rows(path, 2, 3, 4)])
    children, parents, scores, provenances = _columns(rows, 4)
    try:  # `_check_taxo_row` over all rows at once
        joined = "".join(scores)
        if "_" in joined or not joined.isascii() or tuple(map(str.strip, scores)) != scores:
            raise ValueError
        values = list(map(float, scores))
        kinds = list(map(_PROVENANCES.get, provenances))
        if None in kinds or not all(map((0.0).__le__, values)) or not all(map((1.0).__ge__, values)):
            raise ValueError
    except ValueError:
        _first_fault(rows, _check_taxo_row)
    return children, parents, values, kinds


@_gc_paused
def load_taxonomy(path: str | Path) -> Taxonomy:
    """Load taxonomy.tsv; score/provenance columns default to 1.0/projected.

    Repeated (child, parent) rows follow `Taxonomy`'s rule, each with a warning.
    """
    edges = _records(TaxoEdge, zip(*_taxo_columns(Path(path))))
    taxonomy = Taxonomy(edges)
    if len(taxonomy) < len(edges):
        seen: set[tuple[str, str]] = set()
        for pair in map(itemgetter(0, 1), edges):
            if pair in seen:
                print(f"duplicate taxonomy edge {pair}, keeping max score", file=sys.stderr)
            seen.add(pair)
    return taxonomy


def save_taxonomy(taxonomy: Taxonomy, path: str | Path) -> None:
    """Write taxonomy.tsv sorted by (child, parent), scores at 6 decimals."""
    _write_lines(path, (f"{edge.child}\t{edge.parent}\t{edge.score:.6f}\t{edge.provenance.value}\n"
                        for edge in taxonomy.edges()))
