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
"""

__version__ = "0.1.0"

from .classifier import (
    TrainConfig,
    load_model,
    save_model,
    train_linear,
    validation_accuracy,
)
from .features import FeatureMode, FeatureSpec, fit_tfidf
from .graph import (
    EdgeKind,
    InterlangMap,
    Node,
    NodeKind,
    TaxoEdge,
    Taxonomy,
    WcnGraph,
    load_interlang,
    load_taxonomy,
    load_wcn,
    save_interlang,
    save_taxonomy,
    save_wcn,
)
from .induction import InductionConfig, induce, search_edges, weigh_edges
from .labeling import EdgeDataset, Label, label_edges, split_by_kind, train_val_split
from .metrics import GoldEdgeSet, edge_metrics, load_gold, save_gold
from .projection import ProjectionConfig, project
