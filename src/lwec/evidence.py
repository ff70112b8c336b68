"""Consensus by average-link agglomeration over a co-association similarity.

Objects start as singleton regions; each step merges the two most similar
regions, where inter-region similarity is the mean of the original pairwise
entries across the two regions. The full merge history forms a dendrogram
that can be cut at any cluster count.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .coassoc import CoassocMatrix, _ca, _lwca
from .ensemble import BLOCK_ROWS, ConsensusResult, EnsembleView, relabel_first_appearance
from .validity import DEFAULT_THETA, ValidityReport, _require_live_edges, annotate_validity

__all__ = [
    "Dendrogram",
    "build_dendrogram",
    "cut_dendrogram",
    "lwea",
    "eac",
]

@dataclass(frozen=True, eq=False)
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
    `matrix.values`, self-similarity S_g) have equal N x N rows, so once S_g
    leads the dense loop merges them as it would a c x c matrix filled with
    S_g, unless an outside value reaches those merges. So g is one slot of
    size c with S_g on its diagonal, which flags it (all other diagonals are
    -inf; a merged row's averages its own -inf); when the argmax lands
    there, g completes: its intra merges, memoised per (c, S_g), are
    emitted, its diagonal becomes -inf, and their recurrence is replayed on
    row g. They are the chain of members in index order while the averages
    of S_g (such as (2S + S)/3, which round) do not fall below it, and
    otherwise this loop's merges on the c x c matrix, found by simulating
    the loop over the group's regions, with no c x c matrix (`_intra`).

    Demotion: a group with a live diagonal becomes one slot per member, and
    the argmax is picked again, when (a) the argmax lands on a pair holding
    it, or (b) it would complete but another value may reach its merges:
    row g's largest off-diagonal entry times 1 + 4c·eps (averaging it over
    the members' sub-regions, c - 1 levels of three roundings, raises it by
    less; entries are >= 0), or, unless g is an exact chain (every merge at
    S_g or above, each led by the smallest member's region), another slot's
    row maximum, reaches g's lowest merge similarity. Another row ties an
    exact chain at most, and loses the tie, as its row comes later. Demoted
    members run the plain loop, so the rule is exact as long as it demotes
    every group whose merges the dense loop would interleave with others.

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
    a contiguous square at the start of its buffer: once dead slots fill half
    of it, the live rows and columns move, in order, into its first live^2
    entries, BLOCK_ROWS rows at a time (slot order and the tie-break are
    unchanged), and the caches are rebuilt, as at the start and after a demotion.

    Cost, for s slots (p plus c - 1 per demoted group): per merge, a fixed
    number of vector passes over a window of at most twice the live slots,
    plus one such pass per rescanned row, so O(s^2) time when few rows share
    a maximum column and O(s^3) at worst; O(s^2) for all the compactions and
    per demotion; O(c s) per completed group for the replay; for a group
    whose averages round, O(R) per intra merge while R of its regions are
    live, plus the rescans `_intra` names. Memory is O(s^2 + N + R^2) on top
    of `matrix`, which is left as it is; `lwea` and `eac` instead hand their
    freshly built matrix to the loop, which works in it until a demotion.
    Raises ValueError for fewer than two objects, a matrix that is not
    square or not symmetric, a non-finite entry, a negative entry, or a
    `leaf` entry that names no row.
    """
    shape = np.shape(matrix.values)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"similarity matrix must be square, got shape {shape}")
    if matrix.n < 2:
        raise ValueError("need at least two objects to build a dendrogram")
    if not np.isfinite(matrix.values).all():
        raise ValueError("similarity matrix has a non-finite entry")
    if np.min(matrix.values, initial=0.0) < 0:
        raise ValueError("similarity matrix has a negative entry")
    if not np.array_equal(matrix.values, np.transpose(matrix.values)):
        raise ValueError("similarity matrix is not symmetric")
    leaf = np.arange(matrix.n) if matrix.leaf is None else np.asarray(matrix.leaf)
    if not (0 <= leaf.min() and leaf.max() < shape[0]):
        raise ValueError(f"leaf entries must be in [0, {shape[0]}), got {leaf.min()}..{leaf.max()}")
    # a read-only view, so the loop gathers its own work copy
    values = np.asarray(matrix.values, dtype=np.float64).view()
    values.flags.writeable = False
    return _dendrogram(values, leaf)


def _dendrogram(values: np.ndarray, leaf: np.ndarray) -> Dendrogram:
    """`build_dendrogram` over `values` (p x p) and `leaf`; a writeable
    `values` whose rows are numbered by smallest member is consumed."""
    merges = np.rec.array(
        _agglomerate(values, leaf), formats="i8,i8,i8,f8", names="left,right,new_id,similarity"
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


def _intra(c: int, s: float, memo: dict) -> tuple[list[tuple[int, int, int, float]], float, bool]:
    """Merges (left, right, new_id, similarity) of c objects at mutual
    similarity s (leaves 0..c-1; merge t creates c + t), their lowest
    similarity, and whether they are an exact chain: every merge at s or
    above, each taking the next member into the region of member 0. Memoised.

    They are the merges of this module's loop on the c x c matrix filled with
    s, simulated over regions: singletons are at s from each other and a
    region at one value, its `toward`, from every singleton, so the state is
    the singletons left (a suffix f..c-1) and each region's slot (smallest
    member), size, id, `toward` and values to the other regions. By the
    loop's argmax, singletons f and f + 1 merge at s when s beats every
    region's row maximum; otherwise the first region row holding the largest
    merges with the first slot holding it there: its best region, or else
    singleton f. New values are `_average` of the two rows, on floats. The
    chain runs first and the regions start where it breaks. Cost, for R
    regions: O(R) per merge, plus O(R) per rescan of a region whose best
    value fell with a merge, made once it would lead; O(R^2) memory.
    """
    if (c, s) not in memo:
        # members 0..k-1, once merged, are at similarity v from each later
        # member; while v >= s they take the next member in turn: a chain
        sims, v = [s], s
        for k in range(2, c):
            v = _average(k - 1, v, 1, s)
            if v < s and k < c - 1:
                break
            sims.append(v)
        events = [(c + t - 1 if t else 0, t + 1, c + t, sim) for t, sim in enumerate(sims)]
        if len(sims) < c - 1:
            # region {0..k-1} and singletons f = k..c-1. best[q] is region q's
            # largest value to another region and the first slot holding it,
            # or, while q is stale, only a bound on that value
            size, ids, toward, val, best = {0: k}, {0: c + k - 2}, {0: v}, {0: {}}, {0: (-np.inf, 0)}
            f, stale = k, set()
            while len(events) < c - 1:
                # (-row maximum, slot) per region: the least is the first row
                # holding the largest; a stale one is rescanned before it leads
                heap = [(-max(t if f < c else -np.inf, best[q][0]), q) for q, t in toward.items()]
                top = min(heap)
                if top[1] in stale:
                    heapq.heapify(heap)
                    while heap[0][1] in stale:
                        q = heap[0][1]
                        stale.remove(q)
                        x = max(val[q].values())
                        best[q] = x, min([r for r, y in val[q].items() if y == x])
                        heapq.heapreplace(heap, (-max(toward[q] if f < c else -np.inf, x), q))
                    top = heap[0]
                g, i = -top[0], top[1]
                # each side: size, value to every singleton, values to the regions, id
                if c - f >= 2 and s > g:
                    # a singleton is at toward[r] from region r
                    g, i, j = s, f, f + 1
                    (a, ta, va, left), (b, tb, vb, right) = (1, s, toward, f), (1, s, toward, f + 1)
                    f += 2
                else:
                    a, ta, va, left = size[i], toward[i], val[i], ids[i]
                    if best[i][0] == g:
                        j = best[i][1]
                        b, tb, vb, right = size.pop(j), toward.pop(j), val.pop(j), ids.pop(j)
                        del best[j]
                        stale.discard(j)
                    else:
                        j, b, tb, vb, right = f, 1, s, toward, f
                        f += 1
                row = {r: _average(a, va[r], b, vb[r]) for r in val if r != i}
                events.append((left, right, c + len(events), g))
                size[i], ids[i], toward[i], val[i] = a + b, events[-1][2], _average(a, ta, b, tb), row
                x = max(row.values(), default=-np.inf)
                best[i] = x, min([r for r, y in row.items() if y == x], default=0)
                for r, x in row.items():
                    other = val[r]
                    other.pop(j, None)
                    other[i] = x
                    bx, bq = best[r]
                    if x > bx or x == bx and i < bq and r not in stale:
                        best[r] = x, i
                        stale.discard(r)
                    elif x < bx and (bq == i or bq == j):
                        stale.add(r)
        low = min(event[3] for event in events)
        memo[c, s] = events, low, len(sims) == c - 1 and low >= s
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


def _demoted(work, keep, first, size, region, i, members, s):
    """The live slots `keep` of `work`, with the group in slot i (its sorted
    `members`, mutual similarity s) split into one slot per member, gathered
    into a new buffer with slots again in order of smallest member; and
    `first`, `size` and `region` to match."""
    reps = np.concatenate((first[keep], members[1:]))
    by_first = np.argsort(reps)
    source = np.concatenate((keep, np.full(members.size - 1, i)))[by_first]
    buffer = work[np.ix_(source, source)]
    mine = np.flatnonzero(source == i)
    buffer[np.ix_(mine, mine)] = s
    buffer[mine, mine] = -np.inf
    first, source = reps[by_first], source.tolist()
    size = [1 if r == i else size[r] for r in source]
    region = [m if r == i else region[r] for r, m in zip(source, first.tolist())]
    return buffer, first, size, region


def _agglomerate(values: np.ndarray, leaf: np.ndarray) -> list[tuple[int, int, int, float]]:
    """The merges (left, right, new_id, similarity) of `build_dendrogram`.

    When `values` is writeable and its rows are numbered by smallest member,
    each used, it is the loop's first buffer and is overwritten (its first
    entries hold the compacted matrix when the loop ends or a demotion moves
    it to a gathered buffer); otherwise the first buffer is gathered, p x p.
    Caches are rebuilt after each compaction and demotion; diagonals flag groups.
    """
    n = leaf.size
    counts = np.bincount(leaf, minlength=values.shape[0])
    order = np.argsort(leaf, kind="stable")
    starts = np.cumsum(counts) - counts
    # one slot per used row, in order of its smallest member
    first = np.sort(order[starts[counts > 0]])
    used = leaf[first]
    # the window, which holds every live slot
    if values.flags.writeable and np.array_equal(used, np.arange(values.shape[0])):
        work = values
    else:
        work = values[np.ix_(used, used)]
    # a group's diagonal holds its self-similarity until it completes
    np.fill_diagonal(work, np.where(counts[used] > 1, work.diagonal(), -np.inf))
    size, region = counts[used].tolist(), first.tolist()
    rowarg, memo = None, {}
    merges: list[tuple[int, int, int, float]] = []
    while len(merges) < n - 1:
        if rowarg is None:
            # (re)build the caches over a window of live slots only
            live = work.shape[0]
            rowarg = np.argmax(work, axis=1)
            rowmax = work[np.arange(live), rowarg]
            # per window slot, dead or live: NaN or 0 (a merged row's dead entries fail every
            # comparison) and -inf or inf (np.fmin reads a rescanned row's dead entries as -inf)
            nan_dead, limit = np.zeros(live), np.full(live, np.inf)
            # True at i and j while the caches are updated; [-1], a dead slot's rowarg, stays False
            cached = np.zeros(live + 1, dtype=bool)
        # slot r always holds the region whose smallest member is first[r],
        # so the first row and column holding the maximum are the tie-break winner
        i = int(rowmax.argmax())
        j = int(rowarg[i])
        pending = i if work[i, i] > -np.inf else j if work[j, j] > -np.inf else -1
        if pending >= 0:
            g, s = int(leaf[first[pending]]), float(work[pending, pending])
            c = int(counts[g])
            members = order[starts[g] : starts[g] + c]
            if i == j:
                # the group in slot i leads. It completes unless an outside value
                # reaches its merges: one of row i's, which the averages among
                # its members may raise by 4c ulps, or another row's (at most s,
                # which ties an exact chain only after row i)
                events, low, chain = _intra(c, s, memo)
                work[i, i] = -np.inf
                block = np.fmin(work[i], limit)
                arg = block.argmax()
                rowmax[i] = block[arg]
                if rowmax[i] * (1 + 4 * c * np.finfo(float).eps) < low and (chain or rowmax.max() < low):
                    pending = -1
            # else a member of the group in slot `pending` meets another region first
        if pending >= 0:
            keep = np.flatnonzero(rowarg >= 0)
            work, first, size, region = _demoted(work, keep, first, size, region, pending, members, s)
            rowarg = None
            continue
        if i == j:
            base = n + len(merges)
            ids = members.tolist() + list(range(base, base + len(events)))
            merges.extend((ids[a], ids[b], ids[e], sim) for a, b, e, sim in events)
            region[i] = ids[-1]
            if c == 2:
                # a pair replays to its own row: only row i's cache changes
                rowarg[i] = arg
                continue
            work[i] = _replay(events, c, work[i])
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
            # dead slots fill half the window: move the live rows and columns, in
            # order, into its first live^2 entries, BLOCK_ROWS rows at a time (no
            # row is written over before it is read), and rebuild the caches there
            keep = np.flatnonzero(rowarg >= 0)
            prefix = work.reshape(-1)[: live * live].reshape(live, live)
            for a in range(0, live, BLOCK_ROWS):
                prefix[a : a + BLOCK_ROWS] = work[np.ix_(keep[a : a + BLOCK_ROWS], keep)]
            work, first, rowarg = prefix, first[keep], None
            size, region = [size[r] for r in keep.tolist()], [region[r] for r in keep.tolist()]
    return merges


def cut_dendrogram(dendrogram: Dendrogram, k: int) -> ConsensusResult:
    """Undo the last k-1 merges: the regions left after N-k merges become the clusters.

    Labels are assigned 0..k-1 in order of each cluster's smallest member;
    the result's method is "average-link".
    """
    return ConsensusResult(labels=_cuts(dendrogram, [k])[0], k=k, method="average-link")


def _cuts(dendrogram: Dendrogram, ks) -> list[np.ndarray]:
    """`cut_dendrogram`'s labels at every k of `ks`, from one replay of the
    merges: the cuts go from the largest k down, each applying only the
    merges since the last and pointer-jumping from its roots."""
    n = dendrogram.n_leaves
    parent = np.arange(2 * n - 1)
    done, labels = 0, {}
    for k in sorted(set(ks), reverse=True):
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        # every region is a child of at most one merge, so each parent is set once
        step = dendrogram.merges[done : n - k]
        parent[step.left] = step.new_id
        parent[step.right] = step.new_id
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]  # pointer jumping: every node ends at its root
        done, labels[k] = n - k, relabel_first_appearance(parent[:n])
    return [labels[k] for k in ks]


def lwea(
    view: EnsembleView,
    k: int,
    theta: float = DEFAULT_THETA,
    report: ValidityReport | None = None,
) -> ConsensusResult:
    """Locally weighted evidence accumulation: weighted co-association + average link.

    Passing a precomputed `report` skips the validity annotation (and ignores
    `theta`), e.g. to reuse one annotation across several cuts. Raises
    ValueError, as `lwgp` does, if some object's cluster weights all underflow to 0.
    """
    if report is None:
        report = annotate_validity(view, theta)
    values, leaf = _lwca(view, report)
    _require_live_edges(view, report.eci, f" at theta={report.theta:g}; use a larger theta")
    cut = cut_dendrogram(_dendrogram(values, leaf), k)
    return ConsensusResult(labels=cut.labels, k=k, method="lwea")


def eac(view: EnsembleView, k: int) -> ConsensusResult:
    """Classic evidence accumulation: plain co-association + average link."""
    cut = cut_dendrogram(_dendrogram(*_ca(view)), k)
    return ConsensusResult(labels=cut.labels, k=k, method="eac")
