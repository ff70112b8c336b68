"""Cluster uncertainty against the ensemble, and the reliability weight built on it.

A cluster's uncertainty w.r.t. another base clustering is the entropy (base 2)
of how its members scatter over that clustering's clusters; summing over all
base clusterings gives the ensemble uncertainty. The reliability weight maps
uncertainty H into (0, 1] as exp(-H / (theta * M)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .ensemble import EnsembleView, _write_text

__all__ = [
    "ValidityReport",
    "uncertainty_table",
    "eci",
    "annotate_validity",
    "write_validity_csv",
]

# Suggested operating range for theta is [0.2, 1]; 0.4 is the default used
# throughout the harness.
DEFAULT_THETA = 0.4


def uncertainty_table(view: EnsembleView) -> np.ndarray:
    """n_c x M table: entry (c, m) is the entropy in bits of cluster c's members
    over column m's clusters; a cluster's own column holds 0.

    For each target column m, one bincount over `cluster_ids * k_m + labels[:, m]`
    counts every cluster's members per column-m cluster at once, so the whole
    table is M bincounts over N x M keys, O(N * M^2) work.
    """
    labels = view.labels.labels
    counts = view.labels.clusters_per_column
    offsets = view.column_offsets
    table = np.zeros((view.n_clusters, view.n_clusterings))
    for b, k_b in enumerate(counts):
        keys = view.cluster_ids * k_b + labels[:, b, None]
        pairs = np.bincount(keys.ravel(), minlength=view.n_clusters * k_b).reshape(-1, k_b)
        p = pairs / pairs.sum(axis=1, keepdims=True)
        safe_p = np.where(pairs > 0, p, 1.0)
        ent = -(p * np.log2(safe_p)).sum(axis=1)
        table[:, b] = np.maximum(ent, 0.0)
        table[offsets[b]:offsets[b + 1], b] = 0.0
    return table


def eci(uncertainty: float, theta: float, ensemble_size: int) -> float:
    """Reliability weight exp(-uncertainty / (theta * ensemble_size)), in (0, 1]."""
    if not theta > 0:  # NaN fails this test too
        raise ValueError(f"theta must be positive, got {theta}")
    if ensemble_size < 1:
        raise ValueError(f"ensemble size must be >= 1, got {ensemble_size}")
    if uncertainty < 0:
        raise ValueError(f"uncertainty must be >= 0, got {uncertainty}")
    return math.exp(-uncertainty / (theta * ensemble_size))


@dataclass(frozen=True)
class ValidityReport:
    """Per-cluster uncertainty (bits) and reliability weight for one ensemble."""

    uncertainty: np.ndarray
    eci: np.ndarray
    theta: float
    ensemble_size: int


def annotate_validity(view: EnsembleView, theta: float = DEFAULT_THETA) -> ValidityReport:
    """Compute uncertainty and reliability for every pooled cluster.

    A cluster's uncertainty is its row of `uncertainty_table`, added up one
    column at a time in column order: a pairwise row sum rounds differently,
    and the last bit of a weight can change an average-link merge.
    """
    if not theta > 0:  # NaN fails this test too
        raise ValueError(f"theta must be positive, got {theta}")
    m = view.n_clusterings
    table = uncertainty_table(view)
    total = np.zeros(view.n_clusters)
    for column in range(m):
        total += table[:, column]
    weights = np.exp(-total / (theta * m))
    total.flags.writeable = False
    weights.flags.writeable = False
    return ValidityReport(uncertainty=total, eci=weights, theta=theta, ensemble_size=m)


def write_validity_csv(report: ValidityReport, view: EnsembleView, out: str | IO[str]) -> None:
    """Export per-cluster validity as CSV: cluster, source, size, uncertainty, eci."""
    sources = np.repeat(np.arange(view.n_clusterings), np.diff(view.column_offsets))
    sizes = np.bincount(view.cluster_ids.ravel(), minlength=view.n_clusters)
    lines = ["cluster,source,size,uncertainty,eci"]
    for c, (source, size, u, w) in enumerate(zip(sources, sizes, report.uncertainty, report.eci)):
        lines.append(f"{c},{source},{size},{u:.12g},{w:.12g}")
    _write_text("\n".join(lines) + "\n", out)
