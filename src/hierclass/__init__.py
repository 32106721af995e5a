"""Concept-hierarchy toolkit: derive hierarchies from transfer affinity,
train per-node classifiers over them, and evaluate against flat baselines
and exhaustively searched optima."""

from .affinity import (
    AffinityConfig,
    AffinityMatrix,
    DistanceMatrix,
    EncoderConfig,
    build_affinity_artifacts,
    final_score,
    raw_transfer_score,
    symmetrize_to_distance,
)
from .derive import (
    Dendrogram,
    LinkageParams,
    agglomerate,
    collapse_threshold,
    derive_hierarchy,
)
from .errors import DataError, NumericError, TreeParseError
from .hmodel import (
    ErmConfig,
    HierarchicalClassifier,
    HierTrainConfig,
    NodeModel,
    exhaustive_search,
    predict_batch,
    refine_global,
    train_flat_baseline,
    train_hierarchical,
    train_hierarchies,
)
from .metrics import cohen_kappa, evaluate, h_loss, hierarchy_agreement
from .synth import LabeledDataset, PlantedSpec, generate_planted, load_csv, save_csv, split
from .treespace import (
    Catalog,
    Tree,
    count_hierarchies,
    enumerate_hierarchies,
    parse_tree,
    sample_hierarchy,
    tree_to_text,
)

__all__ = [name for name in dir() if not name.startswith("_")]
