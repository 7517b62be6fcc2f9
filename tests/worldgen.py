"""Synthetic bilingual world generator for pipeline tests.

Builds a target-language category network with a planted ground-truth
taxonomy, a complete source-language taxonomy mirroring it, and partial
interlanguage links. Planted is-a parents carry titles with shared
morphological suffixes ("...ateurs ...iens"), while distractor (not-is-a)
edges point at thematically-named categories with bare random stems, so
character n-grams carry the class signal and word features generalize
poorly. Every stem is random, which keeps individual words near-unique.

Structure per family: one top category under a shared root, `mids` mid
categories under the top, `leaves` leaf categories per mid, and entities
spread over the leaves. Thematic categories hang under their home
family's top but collect cross-family distractor edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

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

_SYLLABLES = [c + v for c in "bcdfglmnprstvz" for v in "aeiou"]


def _stem(rng: random.Random, syllables: int = 3) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


def _taxo_title(rng: random.Random) -> str:
    return f"{_stem(rng)}ateurs {_stem(rng, 2)}iens"


def _plain_title(rng: random.Random) -> str:
    return f"{_stem(rng)} {_stem(rng, 2)}"


@dataclass
class World:
    graph: WcnGraph
    links: InterlangMap
    source: Taxonomy
    true_edges: set[tuple[str, str]]
    link_rate: float

    def write(self, dirpath: Path) -> dict[str, Path]:
        paths = {
            "nodes": dirpath / "nodes.tsv",
            "edges": dirpath / "edges.tsv",
            "langlinks": dirpath / "langlinks.tsv",
            "source_taxonomy": dirpath / "source_taxonomy.tsv",
        }
        save_wcn(self.graph, paths["nodes"], paths["edges"])
        save_interlang(self.links, paths["langlinks"])
        save_taxonomy(self.source, paths["source_taxonomy"])
        return paths


def build_world(
    seed: int = 711,
    families: int = 12,
    mids: int = 3,
    leaves: int = 2,
    entities_per_leaf: int = 5,
    thematics: int = 2,
    link_rate: float = 0.45,
) -> World:
    rng = random.Random(seed)
    nodes: list[Node] = []
    edges: list[tuple[str, str]] = []
    true_edges: set[tuple[str, str]] = set()

    def add_node(node_id: str, kind: NodeKind, title: str) -> str:
        nodes.append(Node(node_id, kind, title))
        return node_id

    def add_true(child: str, parent: str) -> None:
        edges.append((child, parent))
        true_edges.add((child, parent))

    root = add_node("root", NodeKind.CATEGORY, _taxo_title(rng))
    thematic_pool: list[str] = []
    entity_ids: list[str] = []
    cat_children: list[str] = []  # categories that can take distractor edges

    for f in range(families):
        fam = f"f{f:02d}"
        top = add_node(f"{fam}.top", NodeKind.CATEGORY, _taxo_title(rng))
        add_true(top, root)
        for t in range(thematics):
            theta = add_node(f"{fam}.them{t}", NodeKind.CATEGORY, _plain_title(rng))
            add_true(theta, top)
            thematic_pool.append(theta)
        for m in range(mids):
            mid = add_node(f"{fam}.mid{m}", NodeKind.CATEGORY, _taxo_title(rng))
            add_true(mid, top)
            cat_children.append(mid)
            for l in range(leaves):
                leaf = add_node(f"{fam}.mid{m}.leaf{l}", NodeKind.CATEGORY, _taxo_title(rng))
                add_true(leaf, mid)
                cat_children.append(leaf)
                for e in range(entities_per_leaf):
                    ent = add_node(
                        f"{fam}.mid{m}.leaf{l}.e{e}",
                        NodeKind.ENTITY,
                        f"{_plain_title(rng)} {rng.randrange(1000):03d}",
                    )
                    add_true(ent, leaf)
                    entity_ids.append(ent)

    def cross_family(node_id: str) -> str:
        """A thematic whose id does not start with the node's family id, drawn
        as `rng.choice` draws it from the list of those, with no list built.

        With T = `thematics`, family g's thematics are the pool's run
        [g*T, g*T + T). The families whose ids start with f's are f and,
        from f10 on, f*10..f*10+9, f*100..f*100+99 and so on below
        `families`: a few runs, ascending. `rng.randrange(n)` is the index
        `rng.choice` draws from a list of n, here an index into the pool
        without those runs, then stepped past each run it reaches.
        """
        f = int(node_id.split(".", 1)[0][1:])
        runs, width = [], 1
        while f * width < families and (width == 1 or f >= 10):
            runs.append((f * width * thematics, min(width, families - f * width) * thematics))
            width *= 10
        i = rng.randrange(len(thematic_pool) - sum(n for _, n in runs))
        for start, n in runs:
            if i >= start:
                i += n
        return thematic_pool[i]

    # Distractor (not-is-a) edges: entities get 1-2, some categories get 1.
    edge_set = set(edges)
    for ent in entity_ids:
        for _ in range(rng.choice((1, 1, 2))):
            theta = cross_family(ent)
            if (ent, theta) not in edge_set:
                edges.append((ent, theta))
                edge_set.add((ent, theta))
    for cat in cat_children:
        if rng.random() < 0.5:
            theta = cross_family(cat)
            if (cat, theta) not in edge_set:
                edges.append((cat, theta))
                edge_set.add((cat, theta))

    graph = WcnGraph(nodes, edges)
    source = Taxonomy(
        TaxoEdge(f"en:{c}", f"en:{p}") for c, p in sorted(true_edges)
    )
    links = InterlangMap(
        (node.id, f"en:{node.id}") for node in nodes if rng.random() < link_rate
    )
    return World(graph, links, source, true_edges, link_rate)
