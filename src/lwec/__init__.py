"""Locally weighted ensemble clustering.

Combines multiple base clusterings into one consensus clustering. Cluster
reliability is estimated from label agreement across the ensemble (an entropy
criterion, no feature access), turned into per-cluster weights, and used by
two consensus functions: weighted evidence accumulation (average-link over a
weighted co-association matrix) and weighted bipartite graph partitioning
(transfer-cut spectral segmentation).
"""

from .ensemble import (
    ConsensusResult,
    DegenerateClusteringWarning,
    EnsembleView,
    LabelMatrix,
    build_ensemble_view,
    parse_label_matrix,
    read_labels,
    write_label_matrix,
    write_labels,
)
from .validity import ValidityReport, annotate_validity, eci, uncertainty_table
from .coassoc import CoassocMatrix, build_ca, build_lwca
from .evidence import Dendrogram, build_dendrogram, cut_dendrogram, eac, lwea
from .graphcut import BipartiteGraph, PartitionWarning, build_lwbg, lwgp, tcut_partition
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    draw_ensemble,
    generate_pool,
    kmeans,
    make_gaussian_blobs,
    nmi,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ConsensusResult",
    "DegenerateClusteringWarning",
    "EnsembleView",
    "LabelMatrix",
    "build_ensemble_view",
    "parse_label_matrix",
    "read_labels",
    "write_label_matrix",
    "write_labels",
    "ValidityReport",
    "annotate_validity",
    "eci",
    "uncertainty_table",
    "CoassocMatrix",
    "build_ca",
    "build_lwca",
    "Dendrogram",
    "build_dendrogram",
    "cut_dendrogram",
    "eac",
    "lwea",
    "BipartiteGraph",
    "PartitionWarning",
    "build_lwbg",
    "lwgp",
    "tcut_partition",
    "ExperimentConfig",
    "ExperimentReport",
    "draw_ensemble",
    "generate_pool",
    "kmeans",
    "make_gaussian_blobs",
    "nmi",
    "run_experiment",
]
