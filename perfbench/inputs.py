"""Seeded inputs for the benchmark, built with numpy alone.

Nothing here imports lwec, so a change to the library (its k-means, say)
cannot change what the consensus functions are fed, and set-up stays cheap.
"""

from __future__ import annotations

import hashlib
import math
import zlib

import numpy as np

BLOBS = 3
SPREAD = 3.0
RADIUS = 9.0


def rng_for(seed: int, workload: str) -> np.random.Generator:
    """One PCG64 stream per (seed, workload), so workloads never share draws."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, zlib.crc32(workload.encode())])))


def gaussian_blobs(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n points in 2-D around BLOBS centers on a circle; returns (features, truth)."""
    angles = np.linspace(0.0, 2.0 * np.pi, BLOBS, endpoint=False)
    centers = RADIUS * np.column_stack([np.cos(angles), np.sin(angles)])
    truth = rng.permutation(np.arange(n) % BLOBS)
    features = centers[truth] + SPREAD * rng.standard_normal((n, 2))
    return features, truth


def voronoi_ensemble(features: np.ndarray, m: int, noise: float, rng: np.random.Generator) -> np.ndarray:
    """N x m label matrix of one-step Voronoi partitions around random objects.

    Column c assigns every object to the nearest of k_c objects drawn without
    replacement. The k_c are spread evenly over [2, ceil(sqrt(N))] and
    shuffled, so the pooled cluster count (which sets the graph and eigh
    cost) is the same for every seed. With probability `noise` an object's
    label is replaced by one drawn uniformly from [0, k_c).
    """
    n = features.shape[0]
    k_max = math.ceil(math.sqrt(n))
    ks = rng.permutation(np.rint(np.linspace(2, k_max, m)).astype(np.int64))
    sq = (features**2).sum(axis=1)
    labels = np.empty((n, m), dtype=np.int64)
    for col, k in enumerate(ks):
        centers = features[rng.choice(n, size=int(k), replace=False)]
        d2 = sq[:, None] - 2.0 * features @ centers.T + (centers**2).sum(axis=1)[None, :]
        labels[:, col] = d2.argmin(axis=1)
        flip = rng.random(n) < noise
        labels[flip, col] = rng.integers(0, k, size=int(flip.sum()))
    return labels


def label_csv(labels: np.ndarray) -> bytes:
    """The label-matrix wire format: comma-separated integers, one row per object."""
    return ("\n".join(",".join(map(str, row)) for row in labels.tolist()) + "\n").encode()


def labels_text(labels) -> bytes:
    """One integer per line, as `lwec consensus --out` writes it."""
    return ("\n".join(str(int(v)) for v in labels) + "\n").encode()


def features_csv(features: np.ndarray) -> bytes:
    return ("\n".join(",".join(f"{v:.17g}" for v in row) for row in features.tolist()) + "\n").encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
