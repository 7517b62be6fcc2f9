"""The loaders against the line-at-a-time readers of `oracles.py`.

A valid tiny world's input files get one mutation each; every loader must
return what its reference builds and print the same warnings, or raise the
same error: the same class, file, line and reason.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from taxonet.errors import MalformedFile, MalformedRow
from taxonet.graph import load_interlang, load_taxonomy, load_wcn
from taxonet.labeling import Label
from taxonet.metrics import GoldEdgeSet, load_gold, save_gold

from oracles import (
    reference_load_gold,
    reference_load_interlang,
    reference_load_taxonomy,
    reference_load_wcn,
)
from worldgen import build_world

FILES = ("nodes", "edges", "langlinks", "source_taxonomy", "gold", "sampled")


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    dirpath = tmp_path_factory.mktemp("tiny")
    world = build_world(seed=5, families=2, mids=1, leaves=2, entities_per_leaf=2,
                        thematics=1, link_rate=0.5)
    paths = world.write(dirpath)
    edges = list(world.graph.edges())
    judgments = {e: Label.ISA if e in world.true_edges else Label.NOT_ISA for e in edges}
    paths["gold"], paths["sampled"] = dirpath / "gold.tsv", dirpath / "sampled.txt"
    save_gold(GoldEdgeSet(frozenset(world.graph.nodes), judgments), paths["gold"], paths["sampled"])
    return paths


def _graph(graph):
    nodes = {n: (node.kind.value, node.title) for n, node in graph.nodes.items()}
    return nodes, {child: graph.parents(child) for child in graph.nodes if graph.parents(child)}


def _taxonomy(taxonomy):
    return {(e.child, e.parent): (e.score, e.provenance.value) for e in taxonomy.edges()}


def _gold(gold):
    return gold.sampled_nodes, {pair: label.value for pair, label in gold.judgments.items()}


# Each input: its loader and its reference, called with the paths, and what
# makes the loader's result comparable with the reference's.
LOADERS = {
    "nodes": (("nodes", "edges"), load_wcn, reference_load_wcn, _graph),
    "edges": (("nodes", "edges"), load_wcn, reference_load_wcn, _graph),
    "langlinks": (("langlinks",), load_interlang, reference_load_interlang,
                  lambda links: links.pairs()),
    "source_taxonomy": (("source_taxonomy",), load_taxonomy, reference_load_taxonomy, _taxonomy),
    "gold": (("gold", "sampled"), load_gold, reference_load_gold, _gold),
    "sampled": (("gold", "sampled"), load_gold, reference_load_gold, _gold),
}

MUTATIONS = ("truncate", "duplicate", "drop_column", "add_column", "swap_columns", "blank_line",
             "cr_at_end", "cr_mid_line", "bom", "nul", "bad_utf8", "no_final_lf")


def mutate(data: bytes, mutation: str, draw) -> bytes:
    """`data`, the bytes of a file of LF-ended lines, with one `mutation`."""
    lines = data.split(b"\n")[:-1]
    i = draw(st.integers(0, len(lines) - 1))
    line, cols = lines[i], lines[i].split(b"\t")
    at = draw(st.integers(0, len(line)))
    if mutation == "truncate":
        return b"".join(x + b"\n" for x in lines[:i]) + line[:max(at, 1)]
    if mutation == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), line)
    elif mutation == "drop_column":
        del cols[draw(st.integers(0, len(cols) - 1))]
        lines[i] = b"\t".join(cols)
    elif mutation == "add_column":
        value = draw(st.sampled_from([b"x", b"0.5", b"1.5", b"isa", b"entity", b"induced",
                                      cols[0]]))
        cols.insert(draw(st.integers(0, len(cols))), value)
        lines[i] = b"\t".join(cols)
    elif mutation == "swap_columns":
        a, b = draw(st.lists(st.integers(0, len(cols) - 1), min_size=2, max_size=2, unique=True)
                    if len(cols) > 1 else st.just([0, 0]))
        cols[a], cols[b] = cols[b], cols[a]
        lines[i] = b"\t".join(cols)
    elif mutation == "blank_line":
        lines.insert(draw(st.integers(0, len(lines))), b"")
    elif mutation == "cr_at_end":
        lines[i] = line + b"\r"
    elif mutation in ("cr_mid_line", "nul", "bad_utf8"):
        byte = {"cr_mid_line": b"\r", "nul": b"\0", "bad_utf8": b"\xff"}[mutation]
        lines[i] = line[:at] + byte + line[at:]
    elif mutation == "bom":
        lines[0] = b"\xef\xbb\xbf" + lines[0]
    elif mutation == "no_final_lf":
        return b"\n".join(lines)
    return b"".join(x + b"\n" for x in lines)


def outcome(load, paths, normalize=None):
    """What a loader returns, as plain values, and the warnings it prints; or
    the error it raises. A reference (no `normalize`) returns both itself."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            result = load(*paths)
    except MalformedRow as exc:
        return "row", str(exc.path), exc.line_no, exc.reason
    except MalformedFile as exc:
        return "file", str(exc.path), exc.reason
    return result if normalize is None else (normalize(result), err.getvalue().splitlines())


def test_unmutated_world_loads_as_its_reference(world_dir):
    for name, (args, load, reference, normalize) in LOADERS.items():
        paths = [world_dir[a] for a in args]
        assert outcome(load, paths, normalize) == outcome(reference, paths), name


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_mutation_loads_as_its_reference(world_dir, tmp_path_factory, data):
    name = data.draw(st.sampled_from(FILES))
    mutation = data.draw(st.sampled_from(MUTATIONS))
    args, load, reference, normalize = LOADERS[name]
    bad = tmp_path_factory.getbasetemp() / f"mutated-{world_dir[name].name}"
    bad.write_bytes(mutate(world_dir[name].read_bytes(), mutation, data.draw))
    paths = [bad if a == name else world_dir[a] for a in args]
    assert outcome(load, paths, normalize) == outcome(reference, paths)
