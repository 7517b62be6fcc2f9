"""Traced in-process replay of the taxonet CLI pipeline.

`replay` makes the same library calls, in the same order and with the same
defaults, as `taxonet project`, `train`, `induce --k K` and `evaluate edges`,
using only names that `taxonet/__init__.py` exports. A `Tracer` span wraps
each call into a layer; every `cli.*` span is the parent of the layer spans
of one command. Counts come only from the inputs and the returned values,
after the traced wall time has ended, so the program itself is unchanged.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import taxonet as tx

# The CLI's defaults that have no library default to fall back on.
VAL_FRACTION = 0.25
MIN_DF = 1
TRAIN_SEED = 0


class Tracer:
    """Spans kept in memory as [name, start, end, parent index or None]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def leaf_total(self) -> float:
        """Time covered by spans that have no child span."""
        parents = {parent for *_, parent in self.spans if parent is not None}
        return sum(
            end - start for i, (_, start, end, _) in enumerate(self.spans) if i not in parents
        )


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def replay(inputs: Path, out: Path, k: int) -> tuple[Tracer, dict[str, float]]:
    """Run project -> train -> induce -> evaluate in this process.

    Writes the induced taxonomy to `out/taxonomy.tsv`. Returns the tracer,
    whose root span `replay` is the traced wall time, and the layer counts.
    """
    out.mkdir(parents=True, exist_ok=True)
    nodes, edges = inputs / "nodes.tsv", inputs / "edges.tsv"
    t = Tracer()
    trained = {}
    with t.span("replay"):
        with t.span("cli.project"):
            with t.span("graph.load"):
                graph = tx.load_wcn(nodes, edges)
                links = tx.load_interlang(inputs / "langlinks.tsv")
                source = tx.load_taxonomy(inputs / "source_taxonomy.tsv")
            with t.span("projection.project"):
                projected, p_report = tx.project(source, graph, links, tx.ProjectionConfig())
            with t.span("graph.save"):
                tx.save_taxonomy(projected, out / "projected.tsv")
                _write_json(out / "projected.tsv.report.json", p_report.to_dict())

        with t.span("cli.train"):
            with t.span("graph.load"):
                graph = tx.load_wcn(nodes, edges)
                projected = tx.load_taxonomy(out / "projected.tsv")
            with t.span("labeling.label"):
                labeled = tx.label_edges(graph, projected)
                by_kind = tx.split_by_kind(labeled, graph)
                splits = [tx.train_val_split(e, VAL_FRACTION, TRAIN_SEED) for e in by_kind]
            spec = tx.FeatureSpec(mode=tx.FeatureMode.CHAR_NGRAM)
            train_cfg = tx.TrainConfig(seed=TRAIN_SEED)
            for name, kind, (train, val) in zip(
                ("ec", "cc"),
                (tx.EdgeKind.ENTITY_TO_CATEGORY, tx.EdgeKind.CATEGORY_TO_CATEGORY),
                splits,
            ):
                with t.span("features.fit_tfidf"):
                    node_ids = sorted({n for e in train for n in (e.child, e.parent)})
                    tfidf = tx.fit_tfidf([graph.title(n) for n in node_ids], spec, MIN_DF)
                with t.span("classifier.train"):
                    model = tx.train_linear(tx.EdgeDataset(kind, train, val), tfidf, train_cfg, graph)
                with t.span("classifier.io"):
                    tx.save_model(model, out / f"model.{name}.json")
                with t.span("classifier.validate"):
                    tx.validation_accuracy(model, train, graph)
                    val_acc = tx.validation_accuracy(model, val, graph) if val else 0.0
                trained[name] = (len(train), tfidf.n_features, val_acc)

        with t.span("cli.induce"):
            with t.span("graph.load"):
                graph = tx.load_wcn(nodes, edges)
                projected = tx.load_taxonomy(out / "projected.tsv")
            with t.span("classifier.io"):
                model_ec = tx.load_model(out / "model.ec.json")
                model_cc = tx.load_model(out / "model.cc.json")
            icfg = tx.InductionConfig(k=k)
            with t.span("induction.weigh"):
                weighted = tx.weigh_edges(graph, model_ec, model_cc, icfg)
            with t.span("induction.search"):
                taxonomy, i_report = tx.induce(projected, weighted, icfg)
            with t.span("graph.save"):
                tx.save_taxonomy(taxonomy, out / "taxonomy.tsv")
                _write_json(out / "taxonomy.tsv.report.json", i_report.to_dict())

        with t.span("cli.evaluate"):
            with t.span("metrics.evaluate"):
                tx.edge_metrics(
                    tx.load_taxonomy(out / "taxonomy.tsv"),
                    tx.load_gold(inputs / "gold_edges.tsv", inputs / "sampled_nodes.txt"),
                )

    targets = projected.node_ids()
    starts = [n for n in graph.node_ids() if not projected.covered(n)]
    counts = {
        "graph.nodes": len(graph.nodes),
        "graph.edges": graph.n_edges,
        "projection.edges": len(projected),
        "projection.skipped_no_path": p_report.skipped_no_path,
        "labeling.train_ec": trained["ec"][0],
        "labeling.train_cc": trained["cc"][0],
        "features.vocab_ec": trained["ec"][1],
        "features.vocab_cc": trained["cc"][1],
        "classifier.sgd_steps": train_cfg.epochs * (trained["ec"][0] + trained["cc"][0]),
        "classifier.val_acc_ec": trained["ec"][2],
        "classifier.val_acc_cc": trained["cc"][2],
        "induction.starts": len(starts),
        "induction.starts_in_targets": sum(1 for n in starts if n in targets),
        "induction.covered_ratio": sum(1 for n in starts if taxonomy.covered(n)) / max(1, len(starts)),
        "induction.edges_added": i_report.edges_added,
    }
    return t, counts


def layer_times(t: Tracer, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer times from the spans, plus the ratios built on counts."""
    wall = t.total("replay")
    spans = {
        "trace.wall_s": "replay",
        "graph.load_s": "graph.load",
        "graph.save_s": "graph.save",
        "projection.project_s": "projection.project",
        "labeling.label_s": "labeling.label",
        "features.fit_tfidf_s": "features.fit_tfidf",
        "classifier.train_s": "classifier.train",
        "classifier.validate_s": "classifier.validate",
        "classifier.io_s": "classifier.io",
        "induction.weigh_s": "induction.weigh",
        "induction.search_s": "induction.search",
        "metrics.evaluate_s": "metrics.evaluate",
    }
    times = {metric: t.total(name) for metric, name in spans.items()}
    times["trace.unattributed_ratio"] = 1.0 - t.leaf_total() / wall
    times["induction.weigh_us_per_edge"] = times["induction.weigh_s"] * 1e6 / counts["graph.edges"]
    times["induction.search_ms_per_start"] = (
        times["induction.search_s"] * 1e3 / max(1, counts["induction.starts"])
    )
    return times
