"""Bipartite link prediction via two-hop composition of a learned reconstruction.

The package trains a linear graph autoencoder on the training adjacency of a
bipartite graph, then scores candidate links by the mass of two-hop paths
that chain one real (normalized) training edge with one reconstructed edge.
Baselines (plain decoders, degree/path heuristics, Katz) plus a split/metric
harness make the comparison reproducible end to end.
"""

from .autoencoder import (
    EmbeddingModel,
    ModelKind,
    TrainConfig,
    TrainingDivergedError,
    reconstruction_loss,
    train,
    training_labels,
)
from .data import (
    DatasetSpec,
    dataset_registry,
    generate_bipartite_er,
    generate_bipartite_sbm,
    load_dataset,
    load_edge_list,
    southern_women_graph,
    write_edge_list,
    write_report,
)
from .graph import (
    BipartiteGraph,
    GraphInputError,
    NormalizedAdjacency,
    adjacency,
    build_graph,
    normalize,
)
from .harness import (
    BenchmarkConfig,
    DiagnosticBundle,
    Summary,
    SummaryRow,
    build_run_artifacts,
    config_from_dict,
    diagnose,
    format_diagnostics,
    grid_search,
    load_config,
    run_benchmark,
    run_experiment,
    tune_scorers,
)
from .metrics import (
    ConfusionMatrix,
    MetricReport,
    ScoreMassReport,
    average_precision,
    best_f1_threshold,
    roc_auc,
    score_mass_report,
)
from .scoring import (
    HeuristicIndex,
    KatzDivergenceError,
    KatzIndex,
    ScorerKind,
    decode_score,
    heuristic_index,
    heuristic_scores,
    katz_index,
    katz_score,
    recon_two_hop_score,
    two_hop_score,
)
from .splits import EdgeSplit, load_split, sample_negatives, save_split, split_edges, train_graph

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "BipartiteGraph",
    "ConfusionMatrix",
    "DatasetSpec",
    "DiagnosticBundle",
    "EdgeSplit",
    "EmbeddingModel",
    "GraphInputError",
    "HeuristicIndex",
    "KatzDivergenceError",
    "KatzIndex",
    "MetricReport",
    "ModelKind",
    "NormalizedAdjacency",
    "ScoreMassReport",
    "ScorerKind",
    "Summary",
    "SummaryRow",
    "TrainConfig",
    "TrainingDivergedError",
    "adjacency",
    "average_precision",
    "best_f1_threshold",
    "build_graph",
    "build_run_artifacts",
    "config_from_dict",
    "dataset_registry",
    "decode_score",
    "diagnose",
    "format_diagnostics",
    "generate_bipartite_er",
    "generate_bipartite_sbm",
    "grid_search",
    "heuristic_index",
    "heuristic_scores",
    "katz_index",
    "katz_score",
    "load_config",
    "load_dataset",
    "load_edge_list",
    "load_split",
    "normalize",
    "recon_two_hop_score",
    "reconstruction_loss",
    "roc_auc",
    "run_benchmark",
    "run_experiment",
    "sample_negatives",
    "save_split",
    "score_mass_report",
    "southern_women_graph",
    "split_edges",
    "train",
    "train_graph",
    "training_labels",
    "tune_scorers",
    "two_hop_score",
    "write_edge_list",
    "write_report",
]
