"""Consensus by average-link agglomeration over a co-association similarity.

Objects start as singleton regions; each step merges the two most similar
regions, where inter-region similarity is the mean of the original pairwise
entries across the two regions. The full merge history forms a dendrogram
that can be cut at any cluster count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coassoc import CoassocMatrix, _ca, _lwca
from .ensemble import ConsensusResult, EnsembleView, relabel_first_appearance
from .validity import DEFAULT_THETA, ValidityReport, annotate_validity

__all__ = [
    "Dendrogram",
    "build_dendrogram",
    "cut_dendrogram",
    "lwea",
    "eac",
]

# rows of the co-association per block of the safety rule's scan
SAFETY_BLOCK = 64


@dataclass(frozen=True)
class Dendrogram:
    """N-1 merges over regions; leaves are 0..N-1, merges create N..2N-2.

    `merges` is a read-only record array with fields left, right, new_id
    (int64) and similarity (float64): merge t joins regions left and right
    into new_id = N + t, in merge order.
    """

    n_leaves: int
    merges: np.recarray


def build_dendrogram(matrix: CoassocMatrix) -> Dendrogram:
    """Average-link agglomeration of all N objects under `matrix`.

    Inter-region similarity is maintained with the size-weighted average-link
    recurrence, which equals re-averaging the original entries across the two
    regions. Ties on the maximum similarity are broken toward the pair whose
    region representatives (each region is represented by its smallest member
    index) are lexicographically smallest; merge similarities are recorded
    as-is and need not decrease monotonically.

    Invariant: the result is, merge for merge and bit for bit, that of this
    loop run on the N x N `matrix.dense()`, though the loop runs over
    microclusters. The c objects of a group g (those sharing row g of
    `matrix.values`, self-similarity S_g) have equal N x N rows, whose other
    entries are at most S_g, so the dense loop merges them among themselves
    once S_g leads, as it would a c x c matrix filled with S_g, before any
    joins another region. Those merges are not all at S_g: averages such as
    (2S + S)/3 round. So g is one slot of size c with S_g on its diagonal;
    when the argmax lands there, g completes: its intra merges, the c x c
    dendrogram memoised per (c, S_g), are emitted, its diagonal becomes
    -inf, and their recurrence is replayed elementwise on row g. That
    dendrogram is the chain of members in index order, all at S_g, when no
    average of S_g rounds, and otherwise this loop on the c x c matrix.

    Safety rule, applied before the loop: a group's window runs from the
    lowest to the highest live value its c x c loop holds. The group stays
    one slot only if no off-diagonal entry of `matrix.values` lies in its
    window (nor reaches it in row g) and its window overlaps no other
    group's, except that groups whose window is the same single value may
    tie each other (every CA group is one, as its sums are exact); otherwise
    its members are singleton slots. With no repeated row (or `leaf=None`)
    there are no groups and this is the plain loop.

    Cache: for every live slot r, `rowmax[r]` is the maximum of `work[r]`
    over live columns and `rowarg[r]` the first column holding it (dead
    slots hold -inf and -1; `off`, -inf at dead columns, masks their stale
    entries), so the first row holding the largest `rowmax` and its `rowarg`
    are what a row-major argmax over the live submatrix picks. A merge or
    completion changes only columns i and j of the other rows: a row takes
    column i if it now leads there, and is rescanned, as row i is, if its
    cached column lost its maximum.

    Cost, for s slots (the number of distinct label rows unless the safety
    rule splits a group): O(s) per merge plus O(s) per rescanned row, so
    O(s^2) time when few rows share a maximum column and O(s^3) at worst;
    O(c s) per completed group for the replay; the c x c loops of the groups
    whose averages round. Memory is O(s^2 + N) on top of `matrix`, which is
    left as it is; `lwea` and `eac` instead hand their freshly built matrix
    to the loop, which then works in that buffer when every slot is one row.
    """
    if matrix.n < 2:
        raise ValueError("need at least two objects to build a dendrogram")
    leaf = np.arange(matrix.n) if matrix.leaf is None else np.asarray(matrix.leaf)
    # a read-only view, so the loop gathers its own work copy
    values = np.asarray(matrix.values, dtype=np.float64).view()
    values.flags.writeable = False
    return _dendrogram(values, leaf)


def _dendrogram(values: np.ndarray, leaf: np.ndarray) -> Dendrogram:
    """`build_dendrogram` over `values` (p x p) and `leaf`; a writeable
    `values` is consumed when every slot is one row."""
    merges = np.rec.array(
        _agglomerate(values, leaf, {}), formats="i8,i8,i8,f8", names="left,right,new_id,similarity"
    )
    merges.flags.writeable = False
    return Dendrogram(n_leaves=leaf.size, merges=merges)


def _average(sa, va, sb, vb):
    """The average-link recurrence: similarity to the union of regions a and b."""
    return (sa * va + sb * vb) / (sa + sb)


def _intra(c: int, s: float, memo: dict) -> tuple[list[tuple[int, int, int, float]], float, float]:
    """Merges (left, right, new_id, similarity) of c objects at mutual
    similarity s (leaves 0..c-1; merge t creates c + t) and the lowest and
    highest live value that loop holds, memoised."""
    if (c, s) not in memo:
        # members 0..k-1, once merged, are at similarity v from each later
        # member; while v >= s they take the next member in turn: a chain
        sims, v = [s], s
        for k in range(2, c):
            v = _average(k - 1, v, 1, s)
            if v < s and k < c - 1:
                break
            sims.append(v)
        if len(sims) == c - 1:
            chain = [(c + t - 1 if t else 0, t + 1, c + t, sim) for t, sim in enumerate(sims)]
            memo[c, s] = chain, min(sims), max(sims)
        else:
            window = [s, s]
            memo[c, s] = _agglomerate(np.full((c, c), s), np.arange(c), memo, window), window[0], window[1]
    return memo[c, s]


def _replay(events: list[tuple[int, int, int, float]], c: int, row: np.ndarray) -> np.ndarray:
    """Row of a completed group: its intra merges' recurrence applied
    elementwise to the row its c members share."""
    vectors, sizes = [row] * c, [1] * c
    for left, right, _, _ in events:
        # two members average to their own row, (r + r) / 2 = r exactly
        pair = sizes[left] == sizes[right] == 1
        vectors.append(row if pair else _average(sizes[left], vectors[left], sizes[right], vectors[right]))
        sizes.append(sizes[left] + sizes[right])
        vectors[left] = vectors[right] = None
    return vectors[-1]


def _compressed(values: np.ndarray, groups: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The safety rule: which groups (rows of `values` shared by two or more
    objects, windows [lo, hi]) are kept as one slot. Reads `values`
    SAFETY_BLOCK rows at a time."""
    # one window per group, except that equal single values share one
    tag = np.where(lo == hi, -1.0, np.arange(lo.size))
    windows, inverse = np.unique(np.column_stack([lo, hi, tag]), axis=0, return_inverse=True)
    inverse = inverse.ravel()
    wlo, whi = windows[:, 0], windows[:, 1]
    reach = np.maximum.accumulate(whi)
    # windows sorted by lo overlap iff one starts before an earlier one ends
    split = (wlo <= np.concatenate(([-np.inf], reach[:-1]))) | (whi >= np.concatenate((wlo[1:], [np.inf])))
    # an off-diagonal entry inside a window that overlaps none lies in the
    # last window starting at or below it; the overlapping ones are split
    # already. Each group row's off-diagonal maximum is kept too.
    offmax = np.empty(groups.size)
    for a in range(0, values.shape[0], SAFETY_BLOCK):
        block = values[a : a + SAFETY_BLOCK].copy()
        diagonal = np.arange(block.shape[0])
        block[diagonal, a + diagonal] = -np.inf
        entries = block[block >= wlo[0]]
        at = np.searchsorted(wlo, entries, side="right") - 1
        split[at[entries <= whi[at]]] = True
        mine = (groups >= a) & (groups < a + SAFETY_BLOCK)
        offmax[mine] = block[groups[mine] - a].max(axis=1)
    # a group row reaching its own window off the diagonal
    split = split[inverse] | (offmax >= lo)
    return np.bincount(inverse, weights=split, minlength=windows.shape[0])[inverse] == 0


def _agglomerate(
    values: np.ndarray, leaf: np.ndarray, memo: dict, window: list | None = None
) -> list[tuple[int, int, int, float]]:
    """The merges (left, right, new_id, similarity) of `build_dendrogram`;
    `window`, if given, is widened to every live value the loop holds.

    When slot r is row r for every row and `values` is writeable, `values`
    itself becomes the loop's `work` array and is overwritten, so everything
    the loop needs from it is read first; otherwise `work` is gathered, s x s.
    """
    n = leaf.size
    counts = np.bincount(leaf, minlength=values.shape[0])
    order = np.argsort(leaf, kind="stable")
    starts = np.cumsum(counts) - counts
    groups = np.flatnonzero(counts > 1)
    intra = {g: _intra(int(counts[g]), float(values[g, g]), memo) for g in groups.tolist()}
    whole = np.zeros(values.shape[0], dtype=bool)
    if groups.size:
        lo, hi = np.array([w[1:] for w in intra.values()]).T
        whole[groups] = _compressed(values, groups, lo, hi)
    # a kept group is one slot at its smallest member; other objects are slots
    opens = ~whole[leaf]
    opens[order[starts[whole]]] = True
    slot_obj = np.flatnonzero(opens)
    slot_row = leaf[slot_obj]
    s = slot_obj.size
    size = np.where(whole[slot_row], counts[slot_row], 1).tolist()
    region = slot_obj.tolist()
    if values.flags.writeable and np.array_equal(slot_row, np.arange(values.shape[0])):
        work = values
    else:
        work = values[np.ix_(slot_row, slot_row)]
    # a kept group's diagonal holds its self-similarity until it completes
    np.fill_diagonal(work, np.where(whole[slot_row], work.diagonal(), -np.inf))
    rowarg = np.argmax(work, axis=1)
    rowmax = work[np.arange(s), rowarg]
    off = np.zeros(s)  # -inf at dead slots
    merges: list[tuple[int, int, int, float]] = []
    while len(merges) < n - 1:
        # slot r always holds the region whose smallest member is slot_obj[r],
        # so the first row and column holding the maximum are the tie-break winner
        i = int(rowmax.argmax())
        j = int(rowarg[i])
        if i == j:
            # the group in slot i leads: emit its intra merges, replay them on row i
            g, base = int(slot_row[i]), n + len(merges)
            events = intra[g][0]
            ids = order[starts[g] : starts[g] + counts[g]].tolist() + list(range(base, base + len(events)))
            merges.extend((ids[a], ids[b], ids[e], sim) for a, b, e, sim in events)
            region[i] = ids[-1]
            work[i, i] = -np.inf
            if len(events) == 1:
                # a pair replays to its own row: only row i's cache changes
                block = work[i] + off
                rowarg[i] = block.argmax()
                rowmax[i] = block[rowarg[i]]
                continue
            merged = _replay(events, len(events) + 1, work[i])
        else:
            merges.append((region[i], region[j], n + len(merges), float(work[i, j])))
            off[j] = -np.inf
            rowmax[j] = -np.inf
            rowarg[j] = -1
            merged = _average(size[i], work[i], size[j], work[j])
            size[i] += size[j]
            region[i] = merges[-1][2]
        # dead slots' columns are stale in `work`; merged[i] is -inf as work[i, i] is
        merged += off
        if window is not None:
            window[0] = min(window[0], merged.min(where=merged > -np.inf, initial=np.inf))
            window[1] = max(window[1], merged.max())
        work[i] = merged
        work[:, i] = merged
        # column i now holds `merged`; it becomes a row's first maximum if it
        # beats the cached one or ties it from the left. A row whose cached
        # column was i or j and that does not take column i is rescanned.
        take = np.where(rowarg >= i, merged >= rowmax, merged > rowmax)
        rescan = (rowarg == i) | (rowarg == j)
        rescan &= ~take
        rescan[i] = True
        np.copyto(rowmax, merged, where=take)
        np.copyto(rowarg, i, where=take)
        rows = rescan.nonzero()[0]
        block = work[rows] + off
        rowarg[rows] = block.argmax(axis=1)
        rowmax[rows] = block.max(axis=1)
    return merges


def cut_dendrogram(dendrogram: Dendrogram, k: int) -> ConsensusResult:
    """Undo the last k-1 merges: the regions left after N-k merges become the clusters.

    Labels are assigned 0..k-1 in order of each cluster's smallest member;
    the result's method is "average-link".
    """
    n = dendrogram.n_leaves
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    # every region is a child of at most one merge, so each parent is set once
    done = dendrogram.merges[: n - k]
    parent = np.arange(2 * n - 1)
    parent[done.left] = done.new_id
    parent[done.right] = done.new_id
    while not np.array_equal(parent[parent], parent):
        parent = parent[parent]  # pointer jumping: every node ends at its root
    return ConsensusResult(labels=relabel_first_appearance(parent[:n]), k=k, method="average-link")


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
    cut = cut_dendrogram(_dendrogram(*_lwca(view, report)), k)
    return ConsensusResult(labels=cut.labels, k=k, method="lwea")


def eac(view: EnsembleView, k: int) -> ConsensusResult:
    """Classic evidence accumulation: plain co-association + average link."""
    cut = cut_dendrogram(_dendrogram(*_ca(view)), k)
    return ConsensusResult(labels=cut.labels, k=k, method="eac")
