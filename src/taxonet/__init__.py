"""taxonet: cross-lingual taxonomy induction over category networks.

The pipeline runs in three phases: project a source-language taxonomy
over interlanguage links (high precision, low coverage), train character
or word TFIDF edge classifiers on the automatically labeled result, and
induce the final taxonomy by maximum-probability path search from every
still-uncovered node. An evaluation harness covers edge-level
precision/recall/coverage, generalization-path quality, and structural
statistics.
"""

__version__ = "0.1.0"

from .classifier import (
    LinearEdgeModel,
    TrainConfig,
    load_model,
    predict_proba,
    save_model,
    train_linear,
    validation_accuracy,
)
from .features import (
    FeatureMode,
    FeatureSpec,
    TfidfModel,
    char_ngrams,
    fit_tfidf,
    word_tokens,
)
from .graph import (
    EdgeKind,
    InterlangMap,
    Node,
    NodeKind,
    Provenance,
    TaxoEdge,
    Taxonomy,
    WcnGraph,
    edge_kind,
    load_interlang,
    load_taxonomy,
    load_wcn,
    save_interlang,
    save_taxonomy,
    save_wcn,
)
from .induction import (
    InductionConfig,
    InductionReport,
    ScoredPath,
    WeightedGraph,
    induce,
    search_edges,
    wcn_baseline,
    weigh_edges,
)
from .labeling import (
    EdgeDataset,
    Label,
    LabeledEdge,
    label_edges,
    split_by_kind,
    train_val_split,
)
from .metrics import (
    AnnotatedPath,
    EdgeMetrics,
    GoldEdgeSet,
    PathMetrics,
    branching_factor,
    edge_metrics,
    load_gold,
    load_paths,
    max_depth_sampled,
    path_metrics,
    sample_eval_nodes,
    save_gold,
    save_paths,
)
from .projection import (
    ProjectionConfig,
    ProjectionReport,
    bounded_shortest_path,
    collect_ancestors,
    map_equivalents,
    project,
)
