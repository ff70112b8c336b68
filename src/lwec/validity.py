"""Cluster uncertainty against the ensemble, and the reliability weight built on it.

A cluster's uncertainty w.r.t. another base clustering is the entropy (base 2)
of how its members scatter over that clustering's clusters; summing over all
base clusterings gives the ensemble uncertainty. The reliability weight maps
uncertainty H into (0, 1] as exp(-H / (theta * M)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleView

__all__ = [
    "ValidityReport",
    "uncertainty_table",
    "eci",
    "annotate_validity",
]

# Suggested operating range for theta is [0.2, 1]; 0.4 is the default used
# throughout the harness.
DEFAULT_THETA = 0.4


def uncertainty_table(view: EnsembleView) -> np.ndarray:
    """n_c x M table: entry (c, m) is the entropy in bits of cluster c's members
    over column m's clusters; a cluster's own column holds 0.

    The table does not depend on theta, so it is built once per view, on
    first use, and the same read-only array is returned for the view's
    lifetime: lwea and lwgp on one view, and every theta of a grid, share it.
    """
    return view._uncertainty


def _uncertainty_table(view: EnsembleView) -> np.ndarray:
    """Build `uncertainty_table(view)` from pair counts over the p distinct
    label rows of `view._rows`, each column pair counted once. With the rows'
    cluster ids laid out M x p, one bincount per column b of the keys
    `ids[:b] * k_b + (ids[b] - offset_b)`, weighted by row object counts,
    counts each cluster of the columns before b against column b's clusters;
    the block and its transpose fill one n_c x n_c int32 store (n_c^2 * 4
    bytes, freed on return). The counts are exact, and a cluster's counts
    over one column add up to its size, so count / size is the float that
    the row sum gave; each (n_c, k_b) column block then runs the same where,
    log2, product and row sum, so every entry keeps its bits. O(p M^2 / 2)
    keys plus O(n_c^2) entropy terms.
    """
    _, first, sizes = view._rows
    ids = np.ascontiguousarray(view.cluster_ids[first].T)
    weight = np.tile(sizes.astype(np.float64), view.n_clusterings)
    size = np.bincount(ids.ravel(), weight, minlength=view.n_clusters)
    counts = np.zeros((view.n_clusters, view.n_clusters), dtype=np.int32)
    table = np.zeros((view.n_clusters, view.n_clusterings))
    bounds = list(zip(view.column_offsets[:-1], view.column_offsets[1:]))
    for b, (lo, hi) in enumerate(bounds):
        keys = ids[:b] * (hi - lo) + (ids[b] - lo)
        block = np.bincount(keys.ravel(), weight[: keys.size], minlength=lo * (hi - lo)).reshape(lo, hi - lo)
        counts[:lo, lo:hi] = block
        counts[lo:hi, :lo] = block.T
    for b, (lo, hi) in enumerate(bounds):
        pairs = counts[:, lo:hi]
        p = pairs / size[:, None]
        safe_p = np.where(pairs > 0, p, 1.0)
        table[:, b] = np.maximum(-(p * np.log2(safe_p)).sum(axis=1), 0.0)
        table[lo:hi, b] = 0.0
    return table


def _require_live_edges(view: EnsembleView, weights: np.ndarray, advice: str = "") -> None:
    """Raise ValueError naming the first object whose clusters all weigh 0."""
    _, first, counts = view._rows
    isolated = np.flatnonzero((weights[view.cluster_ids[first]] == 0).all(axis=1))
    if isolated.size:
        raise ValueError(
            f"{counts[isolated].sum()} objects (first {first[isolated[0]]}) have only zero-weight clusters{advice}"
        )


def eci(uncertainty: float, theta: float, ensemble_size: int) -> float:
    """Reliability weight exp(-uncertainty / (theta * ensemble_size)), in (0, 1]."""
    if not theta > 0:  # NaN fails this test too
        raise ValueError(f"theta must be positive, got {theta}")
    if ensemble_size < 1:
        raise ValueError(f"ensemble size must be >= 1, got {ensemble_size}")
    if not uncertainty >= 0:  # NaN fails this test too
        raise ValueError(f"uncertainty must be >= 0, got {uncertainty}")
    return math.exp(-uncertainty / (theta * ensemble_size))


@dataclass(frozen=True, eq=False)
class ValidityReport:
    """Per-cluster uncertainty (bits) and reliability weight for one ensemble:
    two 1-D vectors of equal length, finite and >= 0 (ValueError otherwise),
    kept as read-only float64 copies, so that no checked value can change."""

    uncertainty: np.ndarray
    eci: np.ndarray
    theta: float
    ensemble_size: int

    def __post_init__(self):
        for name in ("uncertainty", "eci"):
            values = np.array(getattr(self, name), dtype=np.float64)
            if values.ndim != 1 or not ((values >= 0) & (values < np.inf)).all():  # NaN fails both tests
                raise ValueError(f"{name} must be a 1-D vector of finite values >= 0")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if len(self.uncertainty) != len(self.eci):
            raise ValueError(f"uncertainty covers {len(self.uncertainty)} clusters, eci {len(self.eci)}")


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
    return ValidityReport(uncertainty=total, eci=np.exp(-total / (theta * m)), theta=theta, ensemble_size=m)

