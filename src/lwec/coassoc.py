"""Co-association matrices: plain co-occurrence counts and their locally weighted form.

Entry (i, j) of the plain matrix is the fraction of base clusterings that put
objects i and j in the same cluster. The locally weighted variant scales each
co-occurrence by the reliability weight of the shared cluster, so evidence
from unstable clusters counts for less.

Objects whose label rows agree on every positive-weight cluster have equal
rows in both matrices, so the matrix is stored once per such microcluster
(Huang et al., *Robust Ensemble Clustering Using Probability Trajectories*,
TKDE 2016) with an object-to-row map: O(p^2 + N) memory for p microclusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .ensemble import EnsembleView, _add_transpose, _distinct_rows, _write_text
from .validity import ValidityReport

__all__ = ["CoassocMatrix", "build_ca", "build_lwca", "write_lower_triangle"]

# at most this many cells per scatter call, which bounds its temporaries
# (8 MiB each) when a cluster spans thousands of rows
SCATTER_PAIRS = 1 << 20


@dataclass(frozen=True, eq=False)
class CoassocMatrix:
    """Symmetric N x N similarity with entries in [0, 1], stored by microcluster.

    Object i's row of the N x N matrix is row `leaf[i]` of `values`, read at
    the columns `leaf`; `leaf=None` means one row per object. Rows are
    numbered by their smallest object, and objects sharing a row have equal
    N x N rows whose mutual entries are that row's diagonal.
    """

    values: np.ndarray
    kind: str  # "ca" | "lwca"
    leaf: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.values.shape[0] if self.leaf is None else self.leaf.size

    def dense(self) -> np.ndarray:
        """The full N x N matrix (allocates it)."""
        if self.leaf is None:
            return self.values
        return self.values[np.ix_(self.leaf, self.leaf)]


def _accumulate(view: EnsembleView, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add each cluster's weight to every pair of its members, then divide by M,
    over one representative object per microcluster. Clusters go in id order,
    one `np.add.at` scatter of distinct cells after another, so every entry
    is the same sum, added in the same order, as the N x N entry of its
    representatives. Returns a `CoassocMatrix`'s `values`, still
    writable (the builders freeze it, and the average-link path of `lwea` and
    `eac` works in it in place), and its `leaf`.

    The microclusters are the view's distinct label rows (`view._rows`, so
    `leaf` is that numbering itself) when every weight is positive; otherwise
    rows that agree on every positive-weight cluster are merged, over the p
    label rows only.

    A cluster with c representative rows adds to the c(c+1)/2 cells of one
    triangle only (row >= column, so each row's cells are written together),
    and the mirror adds the transpose (`_add_transpose`; the strict upper
    triangle is 0) and halves the exactly doubled diagonal: O(sum c(c+1)/2)
    scattered adds plus O(p^2) for the mirror and the division. Temporaries:
    the p x M row ids, as keys of the smallest type that holds n_c (a radix sort);
    one int64 array of c_max(c_max+1)/2 pair columns for the largest cluster,
    two of at most SCATTER_PAIRS entries per scatter call, and the mirror's
    BLOCK_ROWS x p block; no second p x p array.
    """
    leaf, first, _ = view._rows
    if not (weights > 0).all():
        # merge the label rows that agree on every positive-weight cluster: a
        # zero-weight cluster reads as one more label of its column
        radices = np.array(view.labels.clusters_per_column)
        live = weights[view.cluster_ids[first]] > 0
        merged, rep, _ = _distinct_rows(np.where(live, view.labels.labels[first], radices), radices + 1)
        leaf, first = merged[leaf], first[rep]
    p = first.size
    # each cluster's rows, ascending: a stable sort of the p x M row ids keeps
    # their row order, and a cluster holds one id of each of its rows. Row j
    # of the triangle holds j + 1 pairs; `low` lists their columns for the
    # largest cluster, row after row, so its first c(c+1)/2 entries serve any
    # c-row cluster.
    ids = view.cluster_ids[first].ravel()
    sizes = np.bincount(ids, minlength=view.n_clusters)
    order = np.argsort(ids.astype(np.min_scalar_type(view.n_clusters)), kind="stable") // view.n_clusterings
    c_max = sizes.max()
    low = np.tril_indices(c_max)[1]
    row_pairs = np.arange(1, c_max + 1)
    step = max(1, SCATTER_PAIRS // c_max)  # triangle rows per scatter
    values = np.zeros((p, p))
    flat = values.ravel()
    for weight, stop, size in zip(weights, np.cumsum(sizes), sizes):
        rows = order[stop - size : stop]
        for j0 in range(0, size, step):
            j1 = min(j0 + step, size)
            cells = np.repeat(rows[j0:j1] * p, row_pairs[j0:j1])
            cells += rows[low[j0 * (j0 + 1) // 2 : j1 * (j1 + 1) // 2]]
            np.add.at(flat, cells, weight)
    _add_transpose(values)
    values.flat[:: p + 1] /= 2  # each diagonal cell was doubled, exactly
    values /= view.n_clusterings
    return values, leaf


def _frozen(values: np.ndarray, leaf: np.ndarray, kind: str) -> CoassocMatrix:
    values.flags.writeable = False
    leaf.flags.writeable = False
    return CoassocMatrix(values=values, kind=kind, leaf=leaf)


def build_ca(view: EnsembleView) -> CoassocMatrix:
    """Plain co-association: per-pair co-occurrence count divided by M.

    Every cluster weighs 1, so the sums are exact small integers and only the
    final division rounds.
    """
    return _frozen(*_ca(view), "ca")


def _ca(view: EnsembleView) -> tuple[np.ndarray, np.ndarray]:
    """`build_ca`'s values and leaf, still writable."""
    return _accumulate(view, np.ones(view.n_clusters))


def build_lwca(view: EnsembleView, report: ValidityReport) -> CoassocMatrix:
    """Locally weighted co-association: each co-occurrence weighted by its cluster's ECI.

    The diagonal becomes the mean reliability of the clusters containing each
    object; off-diagonal entries are dominated by the plain co-association.
    Raises ValueError if every weight is 0 (theta small enough to underflow
    them all), since the matrix would then hold no evidence.
    """
    return _frozen(*_lwca(view, report), "lwca")


def _lwca(view: EnsembleView, report: ValidityReport) -> tuple[np.ndarray, np.ndarray]:
    """`build_lwca`'s values and leaf, still writable, after the same checks."""
    if len(report.eci) != view.n_clusters:
        raise ValueError(
            f"report covers {len(report.eci)} clusters, view has {view.n_clusters}"
        )
    if not report.eci.any():
        raise ValueError(
            f"every cluster weight underflows to 0 at theta={report.theta:g}; use a larger theta"
        )
    return _accumulate(view, report.eci)


def write_lower_triangle(matrix: CoassocMatrix, out: str | IO[str]) -> None:
    """Dump the N x N lower triangle (diagonal included) as plain-text CSV rows,
    one row at a time from the stored rows."""
    leaf = np.arange(matrix.n) if matrix.leaf is None else matrix.leaf
    lines = [
        ",".join(f"{v:.10g}" for v in matrix.values[leaf[i], leaf[: i + 1]])
        for i in range(matrix.n)
    ]
    _write_text("\n".join(lines) + "\n", out)
