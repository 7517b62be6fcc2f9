"""taxonet: cross-lingual taxonomy induction over category networks.

The pipeline runs in three phases: project a source-language taxonomy
over interlanguage links (high precision, low coverage), train character
or word TFIDF edge classifiers on the automatically labeled result, and
induce the final taxonomy by maximum-probability path search from every
still-uncovered node. An evaluation harness covers edge-level
precision/recall/coverage, generalization-path quality, and structural
statistics.

The package exports what it takes to run the pipeline in-process and to
write its input files; everything else is imported from its module.
Each export is resolved on first use (PEP 562): `import taxonet` runs no
submodule, and reading a name imports only the module that defines it
and what that module imports. Many short pipeline runs each pay a fresh
process's set-up, and a caller that only loads a network has no use for
the classifier or the path search. `from taxonet import X` and
`taxonet.X` work as for any module attribute.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("classifier", "TrainConfig load_model save_model train_linear validation_accuracy"),
        ("features", "FeatureMode FeatureSpec fit_tfidf"),
        ("graph", "EdgeKind InterlangMap Node NodeKind TaxoEdge Taxonomy WcnGraph load_interlang"
                  " load_taxonomy load_wcn save_interlang save_taxonomy save_wcn"),
        ("induction", "InductionConfig induce search_edges weigh_edges"),
        ("labeling", "EdgeDataset Label label_edges split_by_kind train_val_split"),
        ("metrics", "GoldEdgeSet edge_metrics load_gold save_gold"),
        ("projection", "ProjectionConfig project"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """An export, imported from its module on first use and kept here."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
