"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from lwec import (
    ExperimentConfig,
    LabelMatrix,
    build_ensemble_view,
    draw_ensemble,
    generate_pool,
    make_gaussian_blobs,
)

# Hand-built 16-object, 3-clustering ensemble with a known uncertainty profile:
# the first clustering has clusters of sizes 8/3/5, the 8-object cluster splits
# 2/3/3 over the second clustering and 4/4 over the third, the 3-object cluster
# is co-clustered everywhere, and one 4-object group is perfectly stable.
# This layout is the unique contingency structure (up to relabeling) whose nine
# per-cluster ensemble uncertainties round to WORKED_UNCERTAINTY below.
WORKED_ROWS = (
    [[0, 0, 0]] * 2
    + [[0, 1, 0]] * 2
    + [[0, 1, 1]]
    + [[0, 2, 1]] * 3
    + [[1, 0, 0]] * 3
    + [[2, 2, 1]]
    + [[2, 2, 2]] * 4
)

WORKED_UNCERTAINTY = (2.56, 0.00, 0.72, 0.97, 0.92, 1.95, 1.85, 1.44, 0.00)


@pytest.fixture(scope="session")
def worked_matrix() -> LabelMatrix:
    return LabelMatrix.from_array(np.array(WORKED_ROWS))


@pytest.fixture(scope="session")
def worked_view(worked_matrix):
    return build_ensemble_view(worked_matrix)


@pytest.fixture(scope="session")
def blob_view_m20():
    """200 blob points, a 20-member k-means pool, and all 20 members drawn."""
    x, _ = make_gaussian_blobs(200, [[0.0, 0.0], [9.0, 9.0], [18.0, 0.0]], spread=1.0, seed=1)
    pool = generate_pool(x, ExperimentConfig(pool_size=20, ensemble_size=20, seed=0))
    return build_ensemble_view(draw_ensemble(pool, 20, seed=3))


def cluster_members(view) -> list[np.ndarray]:
    """Sorted member indices of every pooled cluster, in cluster-id order,
    read off `view.cluster_ids`."""
    return [np.flatnonzero((view.cluster_ids == c).any(axis=1)) for c in range(view.n_clusters)]


def column_members(view, column: int) -> list[np.ndarray]:
    """Member arrays of one column's clusters, in cluster-id order."""
    ids = view.cluster_ids[:, column]
    return [np.flatnonzero(ids == c) for c in range(view.column_offsets[column], view.column_offsets[column + 1])]


def blob_voronoi_view(n, ks, seed, noise=0.0):
    """Voronoi ensemble over n points of three blobs, like the benchmark's
    inputs: column c labels each point by the nearest of ks[c] random points,
    and with probability `noise` redraws the label uniformly from [0, ks[c])."""
    x, _ = make_gaussian_blobs(n, [[0.0, 0.0], [9.0, 9.0], [18.0, 0.0]], spread=3.0, seed=seed)
    rng = np.random.default_rng(seed)
    columns = []
    for k in ks:
        sites = x[rng.choice(n, size=k, replace=False)]
        column = ((x[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        if noise:
            flip = rng.random(n) < noise
            column[flip] = rng.integers(0, k, size=int(flip.sum()))
        columns.append(column)
    return build_ensemble_view(LabelMatrix.from_array(np.column_stack(columns)))


def random_column_ensemble(seed: int, n: int = 1000, m: int = 20, random_columns: int = 15):
    """Labels and truth of a three-blob Voronoi ensemble in which `random_columns`
    of the m columns are replaced by uniform labels over the same k.

    n points around three centers on a circle of radius 9 (spread 3); column c
    labels each point by the nearest of k_c random points, the k_c spread
    evenly over [2, ceil(sqrt(n))] and shuffled. numpy only, so a library
    change cannot change the input."""
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.0, 2.0 * np.pi, 3, endpoint=False)
    truth = rng.permutation(np.arange(n) % 3)
    x = 9.0 * np.column_stack([np.cos(angles), np.sin(angles)])[truth] + 3.0 * rng.standard_normal((n, 2))
    ks = rng.permutation(np.rint(np.linspace(2, np.ceil(np.sqrt(n)), m)).astype(int))
    labels = np.empty((n, m), dtype=np.int64)
    for col, k in enumerate(ks):
        sites = x[rng.choice(n, size=k, replace=False)]
        labels[:, col] = ((x[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    for col in rng.choice(m, size=random_columns, replace=False):
        labels[:, col] = rng.integers(0, ks[col], size=n)
    return labels, truth


def repeated_rows(seed: int, n: int = 2000, rows: int = 30, m: int = 6, k: int = 4) -> np.ndarray:
    """n label rows drawn from `rows` random rows of m columns of k labels:
    groups of about n / rows objects share a row."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, k, size=(rows, m))[rng.integers(0, rows, size=n)]


def random_label_array(rng: np.random.Generator, n: int, m: int, max_clusters: int = 5) -> np.ndarray:
    """Random dense label matrix with 2..max_clusters non-empty clusters per column."""
    cols = []
    for _ in range(m):
        c = int(rng.integers(2, min(max_clusters, n) + 1))
        # force every label to appear at least once
        col = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
        cols.append(rng.permutation(col))
    return np.column_stack(cols)


@st.composite
def label_arrays(draw, min_n=2, max_n=10, min_m=1, max_m=3, max_clusters=4):
    """Hypothesis strategy for raw integer label matrices (possibly degenerate)."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(min_m, max_m))
    cols = []
    for _ in range(m):
        c = draw(st.integers(1, min(max_clusters, n)))
        col = draw(
            st.lists(st.integers(0, c - 1), min_size=n, max_size=n)
        )
        cols.append(col)
    return np.array(cols).T
