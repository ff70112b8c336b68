"""Consensus by average-link agglomeration over a co-association similarity.

Objects start as singleton regions; each step merges the two most similar
regions, where inter-region similarity is the mean of the original pairwise
entries across the two regions. The full merge history forms a dendrogram
that can be cut at any cluster count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coassoc import CoassocMatrix, build_ca, build_lwca
from .ensemble import ConsensusResult, EnsembleView, relabel_first_appearance
from .validity import DEFAULT_THETA, ValidityReport, annotate_validity

__all__ = [
    "MergeEvent",
    "Dendrogram",
    "build_dendrogram",
    "cut_dendrogram",
    "lwea",
    "eac",
]


@dataclass(frozen=True)
class MergeEvent:
    left: int
    right: int
    new_id: int
    similarity: float


@dataclass(frozen=True)
class Dendrogram:
    """N-1 merge events over regions; leaves are 0..N-1, merges create N..2N-2."""

    n_leaves: int
    merges: tuple[MergeEvent, ...]


def build_dendrogram(matrix: CoassocMatrix) -> Dendrogram:
    """Average-link agglomeration of all N objects under `matrix`.

    Inter-region similarity is maintained with the size-weighted average-link
    recurrence, which equals re-averaging the original entries across the two
    regions. Ties on the maximum similarity are broken toward the pair whose
    region representatives (each region is represented by its smallest member
    index) are lexicographically smallest; merge similarities are recorded
    as-is and need not decrease monotonically.

    Invariant: for every live slot r, `rowmax[r]` is the maximum of `work[r]`
    over live columns and `rowarg[r]` the first live column holding it; dead
    slots hold -inf and -1, and their rows and columns in `work` are stale and
    never read unmasked. The first row holding the largest `rowmax` and its
    `rowarg` are then the pair a row-major argmax over the live submatrix picks.
    A merge changes only columns i and j of the other rows, so a row keeps its
    cache or takes column i unless its cached column lost its maximum; only
    those rows and row i are rescanned. That is O(N) per merge plus O(N) per
    rescanned row: O(N^2) time when few rows share a maximum column, O(N^3) at
    worst, and O(N) memory beyond the N x N work matrix.
    """
    n = matrix.n
    if n < 2:
        raise ValueError("need at least two objects to build a dendrogram")
    work = matrix.values.astype(np.float64, copy=True)
    np.fill_diagonal(work, -np.inf)
    rowarg = np.argmax(work, axis=1)
    rowmax = work[np.arange(n), rowarg]
    dead = np.zeros(n, dtype=bool)
    size = [1] * n
    region = list(range(n))
    merges: list[MergeEvent] = []
    for step in range(n - 1):
        # slot s always holds the region whose smallest member is s, so the
        # first row and column holding the maximum are the tie-break winner
        i = int(np.argmax(rowmax))
        j = int(rowarg[i])
        similarity = float(work[i, j])
        new_id = n + step
        merges.append(MergeEvent(region[i], region[j], new_id, similarity))
        si, sj = size[i], size[j]
        dead[j] = True
        rowmax[j] = -np.inf
        rowarg[j] = -1
        # merged[i] is -inf because work[i, i] is
        merged = (si * work[i, :] + sj * work[j, :]) / (si + sj)
        merged[dead] = -np.inf
        work[i, :] = merged
        work[:, i] = merged
        size[i] = si + sj
        region[i] = new_id
        # column i now holds `merged`; it becomes a row's first maximum if it
        # beats the cached one or ties it from the left. A row whose cached
        # column was i or j and that does not take column i is rescanned.
        take = (merged > rowmax) | ((merged == rowmax) & (rowarg >= i))
        rescan = ~take & ((rowarg == i) | (rowarg == j))
        rescan[i] = True
        rowmax[take] = merged[take]
        rowarg[take] = i
        rows = np.flatnonzero(rescan)
        block = np.where(dead, -np.inf, work[rows])
        cols = np.argmax(block, axis=1)
        rowarg[rows] = cols
        rowmax[rows] = block[np.arange(rows.size), cols]
    return Dendrogram(n_leaves=n, merges=tuple(merges))


def cut_dendrogram(dendrogram: Dendrogram, k: int, method: str = "average-link") -> ConsensusResult:
    """Undo the last k-1 merges: the regions left after N-k merges become the clusters.

    Labels are assigned 0..k-1 in order of each cluster's smallest member.
    """
    n = dendrogram.n_leaves
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    parent = np.arange(2 * n - 1)
    for event in dendrogram.merges[: n - k]:
        parent[event.left] = event.new_id
        parent[event.right] = event.new_id
    while not np.array_equal(parent[parent], parent):
        parent = parent[parent]  # pointer jumping: every node ends at its root
    return ConsensusResult(labels=relabel_first_appearance(parent[:n]), k=k, method=method)


def lwea(
    view: EnsembleView,
    k: int,
    theta: float = DEFAULT_THETA,
    report: ValidityReport | None = None,
) -> ConsensusResult:
    """Locally weighted evidence accumulation: weighted co-association + average link.

    Passing a precomputed `report` skips the validity annotation (and ignores
    `theta`), e.g. to reuse one annotation across several cuts.
    """
    if report is None:
        report = annotate_validity(view, theta)
    matrix = build_lwca(view, report)
    cut = cut_dendrogram(build_dendrogram(matrix), k)
    return ConsensusResult(labels=cut.labels, k=k, method="lwea")


def eac(view: EnsembleView, k: int) -> ConsensusResult:
    """Classic evidence accumulation: plain co-association + average link."""
    cut = cut_dendrogram(build_dendrogram(build_ca(view)), k)
    return ConsensusResult(labels=cut.labels, k=k, method="eac")
