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

# rows of the co-association per block of the safety rule's scan and of the
# average-link window's compaction (its only temporary, SAFETY_BLOCK x live)
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
    slots hold -inf and -1), so the first row holding the largest `rowmax`
    and its `rowarg` are what a row-major argmax over the live submatrix
    picks. Dead entries are stale and two masks hide them: a merged row gets
    NaN at dead columns, so dead rows fail every comparison with it, and a
    rescan takes `np.fmin` with a limit that is -inf at dead columns and inf
    at live ones. A merge or completion changes only columns i and j of the
    other rows: one `merged >= rowmax` pass finds the few rows that may take
    column i (a row takes it if it now leads there, or ties its maximum from
    the left), and one lookup of `rowarg` in a table true at i and j finds
    the rows whose cached column may have lost its maximum; those that do
    not take column i are rescanned, as row i is. The loop works in a window,
    the leading block of its buffer: once dead slots fill half of it, the
    live rows and columns move, in order, into its leading live x live block,
    64 rows at a time, so slot order and the tie-break are unchanged.

    Cost, for s slots (the number of distinct label rows unless the safety
    rule splits a group): per merge, a fixed number of vector passes over a
    window of at most twice the live slots, plus one such pass per rescanned
    row, so O(s^2) time when few rows share a maximum column and O(s^3) at
    worst; the compactions copy O(s^2) in all; O(c s) per completed group for
    the replay; the c x c loops of the groups whose averages round. Memory
    is O(s^2 + N) on top of `matrix`, which is left as it is; `lwea` and
    `eac` instead hand their freshly built matrix to the loop, which then
    works in that buffer when every slot is one row.
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
    """The average-link recurrence, similarity to the union of regions a and b:
    (sa·va + sb·vb) / (sa + sb), in place in an array `va`, which an array `vb`
    may be scaled in too. A size-1 region enters unscaled, as 1·v = v exactly."""
    if sa != 1:
        va *= sa
    if sb != 1:
        vb *= sb
    va += vb
    va /= sa + sb
    return va


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
    elementwise to the row its c members share, which is left as it is."""
    vectors, sizes = [row] * c, [1] * c
    for left, right, _, _ in events:
        a, b, u, v = sizes[left], sizes[right], vectors[left], vectors[right]
        # two members average to their own row, (r + r) / 2 = r exactly; the
        # shared row is copied before it is scaled or summed into
        vectors.append(
            row if a == b == 1 else _average(a, u.copy() if u is row else u, b, v.copy() if v is row and b != 1 else v)
        )
        sizes.append(a + b)
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
    itself becomes the loop's buffer and is overwritten, so everything the
    loop needs from it is read first, and its leading block ends as the
    compacted matrix of the last window; otherwise the buffer is gathered,
    s x s.
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
        buffer = values
    else:
        buffer = values[np.ix_(slot_row, slot_row)]
    work = buffer  # the window: the leading block of `buffer` holding every live slot
    # a kept group's diagonal holds its self-similarity until it completes
    np.fill_diagonal(work, np.where(whole[slot_row], work.diagonal(), -np.inf))
    rowarg = np.argmax(work, axis=1)
    rowmax = work[np.arange(s), rowarg]
    # per window slot, dead or live: NaN or 0 (a merged row's dead entries fail every
    # comparison) and -inf or inf (np.fmin reads a rescanned row's dead entries as -inf)
    nan_dead, limit = np.zeros(s), np.full(s, np.inf)
    # True at i and j while the caches are updated; [-1], a dead slot's rowarg, stays False
    cached = np.zeros(s + 1, dtype=bool)
    live = s
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
                block = np.fmin(work[i], limit)
                rowarg[i] = arg = block.argmax()
                rowmax[i] = block[arg]
                continue
            work[i] = _replay(events, len(events) + 1, work[i])
        else:
            merges.append((region[i], region[j], n + len(merges), float(work[i, j])))
            nan_dead[j], limit[j], rowmax[j], rowarg[j] = np.nan, -np.inf, -np.inf, -1
            live -= 1
            # row i becomes the merged row in place; row j, now dead, is scaled
            _average(size[i], work[i], size[j], work[j])
            size[i] += size[j]
            region[i] = merges[-1][2]
        # dead entries of row i are stale; merged[i] is -inf as work[i, i] is
        merged = work[i]
        merged += nan_dead
        if window is not None:
            held = merged > -np.inf
            window[0] = min(window[0], merged.min(where=held, initial=np.inf))
            window[1] = max(window[1], merged.max(where=held, initial=-np.inf))
        work[:, i] = merged
        # column i now holds `merged`; it becomes a row's first maximum if it
        # beats the cached one or ties it from the left. A row whose cached
        # column was i or j (row i's is one of them) is rescanned unless it
        # takes column i, which it does exactly when it hits.
        cached[i] = cached[j] = True
        rows = cached[rowarg].nonzero()[0]
        cached[i] = cached[j] = False
        hit = (merged >= rowmax).nonzero()[0]
        if hit.size:
            rows = rows[(merged[rows] < rowmax[rows]) | (rows == i)]
            take = hit[(merged[hit] > rowmax[hit]) | (rowarg[hit] >= i)]
            rowmax[take] = merged[take]
            rowarg[take] = i
        for r in rows.tolist():
            block = np.fmin(work[r], limit)
            rowarg[r] = arg = block.argmax()
            rowmax[r] = block[arg]
        if 2 * live <= work.shape[0]:
            # dead slots fill half the window: move the live rows and columns,
            # in order, into its leading live x live block, SAFETY_BLOCK rows at a time
            keep = np.flatnonzero(rowarg >= 0)
            prefix = buffer[:live, :live]
            for a in range(0, live, SAFETY_BLOCK):
                prefix[a : a + SAFETY_BLOCK] = work[np.ix_(keep[a : a + SAFETY_BLOCK], keep)]
            work = prefix
            position = np.empty(rowarg.size, dtype=np.intp)
            position[keep] = np.arange(live)
            rowarg, rowmax, slot_row = position[rowarg[keep]], rowmax[keep], slot_row[keep]
            size, region = [size[r] for r in keep.tolist()], [region[r] for r in keep.tolist()]
            nan_dead, limit = np.zeros(live), np.full(live, np.inf)
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
