"""A fixed block of work that the benchmark times between lwec operations.

On a shared host the same operation runs up to 50% slower for minutes at a
time when neighbours are busy, and a 30 s run sees one such spell or another,
so raw seconds spread between runs by more than any useful bound. The
end-to-end times are therefore reported in units of this work, timed just
before and just after each operation: a slow spell slows both, and their
ratio keeps what the program changes. Over ten 30 s runs on a 2-vCPU VM,
the interquartile spread of the run medians fell from 0.15 of the median in
seconds to 0.06 in units on lwgp-large, and from 0.20 to 0.14 on sweep. The unit is made of the
kernels that dominate the workloads, so that a busy neighbour slows it about
as much as it slows them: a row-merge loop of argmax scans over a matrix the
size of lwea-dense's (the dendrogram), a tall-skinny product over a freshly
scaled copy (the transfer cut), a sort-based unique (the ensemble view) and a
short union-find loop (the interpreter work). A larger share of interpreter
loops or of fresh allocation made it swing more than the operations do. It
never touches lwec, so no change to the library can change it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_RNG = np.random.Generator(np.random.PCG64(20160517))
_SQUARE = _RNG.random((1500, 1500))
_TALL = _RNG.random((6000, 400))
_KEYS = _RNG.integers(0, 50_000, size=200_000)
_PARENT = _RNG.integers(0, 20_000, size=30_000).tolist()


def _interpreter() -> int:
    parent = list(_PARENT)
    counts: dict[int, int] = {}
    for i in range(len(parent)):
        root = i
        while parent[root] != root and parent[parent[root]] != parent[root]:
            parent[root] = parent[parent[root]]
            root = parent[root]
        counts[root % 997] = counts.get(root % 997, 0) + 1
    return len(counts)


def _scan() -> int:
    work = _SQUARE.copy()
    total = 0
    for step in range(40):
        i, j = divmod(int(np.argmax(work)), work.shape[1])
        merged = (work[i, :] + work[j, :]) / 2
        work[i, :] = merged
        work[:, i] = merged
        work[j, :] = -1.0
        work[:, j] = -1.0
        total += i + j + step
    return total


def _numeric() -> float:
    scaled = _TALL / _TALL.sum(axis=1)[:, None]
    gram = _TALL.T @ scaled
    _, inverse = np.unique(_KEYS, return_inverse=True)
    return float(gram.trace()) + float(inverse[-1])


def reference_seconds(min_seconds: float) -> float:
    """Wall seconds one unit of the fixed work takes now, averaged over as
    many units as fit in `min_seconds` (at least one)."""
    t0 = perf_counter()
    units = 0
    while units == 0 or perf_counter() - t0 < min_seconds:
        _interpreter()
        _scan()
        _numeric()
        units += 1
    return (perf_counter() - t0) / units
