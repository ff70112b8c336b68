"""Seeded Lloyd's k-means with k-means++ initialization.

Randomness comes from a PCG64 stream, so results are reproducible across
platforms for a fixed seed. Initialization samples points proportionally to
squared distance from the chosen centers via inverse-transform sampling.

A Lloyd step adds its terms in a fixed order that equals numpy's own
reductions, so its labels, centers and objective are bit for bit those of
the per-cluster `mean(axis=0)` and the n x k x d `.sum(axis=2)` it replaces.
A centroid sums its members' coordinates in row order, one `bincount` per
column, as `mean(axis=0)` does down the rows of a 2-D selection; a squared
distance adds the d per-column terms left to right, as numpy does for fewer
than 8 contiguous terms. Where numpy sums pairwise instead (a one-column
mean, and distances over d >= 8 columns), the step keeps numpy's expression.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kmeans"]

MAX_ITER = 100
SHIFT_TOL = 1e-6
PAIRWISE_MIN_D = 8


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d = points.shape[1]
    if d >= PAIRWISE_MIN_D:
        # numpy sums 8 or more contiguous terms pairwise: keep its expression and bits
        return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    d2 = (points[:, :1] - centers[:, 0]) ** 2
    for j in range(1, d):
        d2 += (points[:, j : j + 1] - centers[:, j]) ** 2
    return d2


def _centroids(x: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    k, d = counts.size, x.shape[1]
    if d == 1:
        # numpy sums one contiguous column pairwise: keep its expression and bits
        return np.array([x[labels == c].mean(axis=0) for c in range(k)])
    sums = np.empty((k, d))
    for j in range(d):
        sums[:, j] = np.bincount(labels, weights=x[:, j], minlength=k)
    return sums / counts[:, None]


def _plusplus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _lloyd(points: np.ndarray, k: int, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Full k-means run; returns (labels, centers, per-iteration objective, repairs)."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    n = x.shape[0]
    if x.shape[1] < 1:
        raise ValueError(f"feature matrix needs at least one column, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("feature matrix contains non-finite values")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = _plusplus_init(x, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    objective: list[float] = []
    repairs = 0
    for _ in range(MAX_ITER):
        d2 = _squared_distances(x, centers)
        labels = d2.argmin(axis=1)
        objective.append(float(d2[np.arange(n), labels].sum()))
        # re-seed empty clusters from the point farthest from its centroid,
        # never stealing the sole member of another cluster
        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            repairs += 1
            assigned = d2[np.arange(n), labels].copy()
            for empty in empties:
                eligible = np.where(counts[labels] > 1, assigned, -1.0)
                farthest = int(np.argmax(eligible))
                counts[labels[farthest]] -= 1
                counts[empty] += 1
                labels[farthest] = empty
                assigned[farthest] = -1.0
        new_centers = _centroids(x, labels, counts)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < SHIFT_TOL:
            break
    return labels, centers, np.asarray(objective), repairs


def kmeans(features: np.ndarray, k: int, seed=0) -> np.ndarray:
    """Cluster rows of `features` into k groups; deterministic for a fixed seed.

    Runs at most 100 Lloyd iterations, stopping early once no centroid moves
    more than 1e-6. Empty clusters are re-seeded from the farthest point.
    """
    labels, _, _, _ = _lloyd(features, k, seed)
    return labels
