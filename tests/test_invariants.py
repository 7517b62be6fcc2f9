"""Whole-pipeline invariants over small random worldgen worlds.

In process: the induced taxonomy keeps every projected edge unchanged,
adds only network edges, and covers at k=3 every node it covers at k=1;
weighing only the `search_edges` changes neither taxonomy nor report.
Through the CLI: permuting the rows of nodes.tsv, langlinks.tsv and
source_taxonomy.tsv changes no output byte. edges.tsv is left out on
purpose: projection's breadth-first search breaks ties by stored edge
order, so with `a->b, a->c` it projects `a->b` and with the rows swapped
`a->c`.
"""

import tempfile
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from taxonet import (
    EdgeDataset,
    FeatureMode,
    FeatureSpec,
    InductionConfig,
    ProjectionConfig,
    TrainConfig,
    fit_tfidf,
    induce,
    label_edges,
    project,
    search_edges,
    split_by_kind,
    train_linear,
    train_val_split,
    weigh_edges,
)
from taxonet.cli import main
from taxonet.graph import EdgeKind

from worldgen import build_world

WORLDS = st.builds(
    build_world,
    seed=st.integers(0, 2**16),
    families=st.integers(2, 3),
    mids=st.just(2),
    leaves=st.just(2),
    entities_per_leaf=st.integers(1, 3),
    thematics=st.just(2),
    link_rate=st.sampled_from([0.3, 0.6, 0.9]),
)


def train_models(graph, projected):
    """The ec and cc models as `taxonet train` builds them, or None when a
    training split lacks a label class."""
    spec = FeatureSpec(FeatureMode.CHAR_NGRAM)
    models = []
    kinds = (EdgeKind.ENTITY_TO_CATEGORY, EdgeKind.CATEGORY_TO_CATEGORY)
    for kind, edges in zip(kinds, split_by_kind(label_edges(graph, projected), graph)):
        train, val = train_val_split(edges, 0.25, 0)
        if len({e.label for e in train}) < 2:
            return None
        ids = sorted({n for e in train for n in (e.child, e.parent)})
        tfidf = fit_tfidf([graph.title(n) for n in ids], spec)
        models.append(train_linear(EdgeDataset(kind, train, val), tfidf, TrainConfig(), graph))
    return models


@settings(max_examples=15, deadline=None)
@given(WORLDS)
def test_induction_extends_projection_within_the_network(world):
    graph = world.graph
    projected, _ = project(world.source, graph, world.links, ProjectionConfig())
    models = train_models(graph, projected)
    assume(models is not None)
    weighted = weigh_edges(graph, *models)
    edges = search_edges(graph, projected)
    searched = weigh_edges(graph, *models, InductionConfig(), edges)
    ones = InductionConfig(uniform=True)
    uniform = weigh_edges(graph, *models, ones), weigh_edges(graph, *models, ones, edges)
    covered = []
    for k in (1, 3):
        final, report = induce(projected, weighted, InductionConfig(k=k))
        # Weighing only the edges a search can read changes no output.
        got, got_report = induce(projected, searched, InductionConfig(k=k))
        assert (got.edges(), got_report) == (final.edges(), report)
        (a, a_report), (b, b_report) = (
            induce(projected, w, InductionConfig(k=k, uniform=True)) for w in uniform
        )
        assert (a.edges(), a_report) == (b.edges(), b_report)
        for edge in projected.edges():
            assert final.edge(edge.child, edge.parent) == edge
        for edge in final.edges():
            assert graph.has_edge(edge.child, edge.parent)
        covered.append(final.covered_nodes())
    assert covered[0] <= covered[1]


def run_pipeline(paths: dict[str, Path], out: Path) -> dict[str, bytes]:
    """`project`, `train` and `induce --k 3` into `out`; every exit code and
    every output file's bytes, by name. Stops at the first failing step."""
    graph = ["--nodes", str(paths["nodes"]), "--edges", str(paths["edges"])]
    projected, models = out / "projected.tsv", out / "models"
    steps = [
        ["project", *graph, "--langlinks", str(paths["langlinks"]),
         "--source-taxonomy", str(paths["source_taxonomy"]), "--out", str(projected)],
        ["train", *graph, "--projected", str(projected), "--out-dir", str(models)],
        ["induce", *graph, "--projected", str(projected),
         "--model-ec", str(models / "model.ec.json"), "--model-cc", str(models / "model.cc.json"),
         "--out", str(out / "induced.tsv"), "--k", "3"],
    ]
    result = {}
    for argv in steps:
        result[argv[0]] = code = main(argv)
        if code != 0:
            break
    for path in sorted(out.rglob("*")):
        if path.is_file():
            result[str(path.relative_to(out))] = path.read_bytes()
    return result


@settings(max_examples=8, deadline=None)
@given(WORLDS, st.randoms(use_true_random=False))
def test_permuting_input_rows_changes_no_output(world, rng):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        runs = []
        for name in ("sorted", "permuted"):
            (root / name / "out").mkdir(parents=True)
            paths = world.write(root / name)
            if name == "permuted":
                for key in ("nodes", "langlinks", "source_taxonomy"):
                    rows = paths[key].read_text(encoding="utf-8").splitlines(keepends=True)
                    rng.shuffle(rows)
                    paths[key].write_text("".join(rows), encoding="utf-8")
            runs.append(run_pipeline(paths, root / name / "out"))
        assert runs[0] == runs[1]
        assert "induced.tsv" in runs[0] or runs[0]["train"] == 2
