"""Co-association matrices: plain co-occurrence counts and their locally weighted form.

Entry (i, j) of the plain matrix is the fraction of base clusterings that put
objects i and j in the same cluster. The locally weighted variant scales each
co-occurrence by the reliability weight of the shared cluster, so evidence
from unstable clusters counts for less.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .ensemble import EnsembleView, _write_text
from .validity import ValidityReport

__all__ = ["CoassocMatrix", "build_ca", "build_lwca", "write_lower_triangle"]


@dataclass(frozen=True)
class CoassocMatrix:
    """Symmetric N x N similarity with entries in [0, 1]."""

    values: np.ndarray
    kind: str  # "ca" | "lwca"

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _accumulate(view: EnsembleView, weights: np.ndarray) -> np.ndarray:
    """Add each cluster's weight to every pair of its members, then divide by M:
    O(sum |C|^2) work instead of O(N^2 M). Clusters go in id order, which fixes
    the rounding of every weighted sum."""
    n = view.n_objects
    values = np.zeros((n, n))
    for members, weight in zip(view.members(), weights):
        values[np.ix_(members, members)] += weight
    values /= view.n_clusterings
    values.flags.writeable = False
    return values


def build_ca(view: EnsembleView) -> CoassocMatrix:
    """Plain co-association: per-pair co-occurrence count divided by M.

    Every cluster weighs 1, so the sums are exact small integers and only the
    final division rounds.
    """
    return CoassocMatrix(values=_accumulate(view, np.ones(view.n_clusters)), kind="ca")


def build_lwca(view: EnsembleView, report: ValidityReport) -> CoassocMatrix:
    """Locally weighted co-association: each co-occurrence weighted by its cluster's ECI.

    The diagonal becomes the mean reliability of the clusters containing each
    object; off-diagonal entries are dominated by the plain co-association.
    Raises ValueError if every weight is 0 (theta small enough to underflow
    them all), since the matrix would then hold no evidence.
    """
    if len(report.eci) != view.n_clusters:
        raise ValueError(
            f"report covers {len(report.eci)} clusters, view has {view.n_clusters}"
        )
    if not report.eci.any():
        raise ValueError(
            f"every cluster weight underflows to 0 at theta={report.theta:g}; use a larger theta"
        )
    return CoassocMatrix(values=_accumulate(view, report.eci), kind="lwca")


def write_lower_triangle(matrix: CoassocMatrix, out: str | IO[str]) -> None:
    """Dump the lower triangle (diagonal included) as plain-text CSV rows."""
    lines = [
        ",".join(f"{v:.10g}" for v in matrix.values[i, : i + 1])
        for i in range(matrix.n)
    ]
    _write_text("\n".join(lines) + "\n", out)
