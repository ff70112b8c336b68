"""Independent reference implementations used as test oracles.

Everything here works from raw numpy arrays with naive, readable algorithms
(explicit contingency tables, triple loops, per-step re-scanning, exhaustive
enumeration) so the optimized library paths are checked against code that
shares none of their structure.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, getcontext

import numpy as np


# ---------------------------------------------------------------------------
# entropy / uncertainty


def entropy_bits_ref(counts) -> float:
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


def cluster_uncertainty_ref(labels: np.ndarray, members, target_col: int) -> float:
    """Entropy of a member set over one column, from an explicit contingency dict."""
    table: dict[int, int] = {}
    for obj in members:
        key = int(labels[obj, target_col])
        table[key] = table.get(key, 0) + 1
    return entropy_bits_ref(list(table.values()))


def ensemble_uncertainty_ref(labels: np.ndarray, members) -> float:
    return sum(
        cluster_uncertainty_ref(labels, members, col) for col in range(labels.shape[1])
    )


def clusters_in_order(labels: np.ndarray) -> list[tuple[int, int, list[int]]]:
    """(column, label, members) triples in dense id order for a dense label matrix."""
    out = []
    for col in range(labels.shape[1]):
        for lab in range(int(labels[:, col].max()) + 1):
            members = [i for i in range(labels.shape[0]) if labels[i, col] == lab]
            out.append((col, lab, members))
    return out


def all_uncertainties_ref(labels: np.ndarray) -> np.ndarray:
    return np.array(
        [ensemble_uncertainty_ref(labels, members) for _, _, members in clusters_in_order(labels)]
    )


def uncertainty_table_pairwise_ref(view) -> np.ndarray:
    """The per-column-pair loop lwec used before one bincount per target column:
    one contingency table per ordered column pair, M(M-1) of them."""
    labels = view.labels.labels
    counts = view.labels.clusters_per_column
    offsets = view.column_offsets
    m = view.n_clusterings
    table = np.zeros((view.n_clusters, m))
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            joint = labels[:, a] * counts[b] + labels[:, b]
            pairs = np.bincount(joint, minlength=counts[a] * counts[b]).reshape(counts[a], -1)
            p = pairs / pairs.sum(axis=1, keepdims=True)
            safe_p = np.where(pairs > 0, p, 1.0)
            ent = -(p * np.log2(safe_p)).sum(axis=1)
            table[offsets[a]:offsets[a + 1], b] = np.maximum(ent, 0.0)
    return table


def distinct_rows_ref(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, first, counts) of a table's distinct rows from one sort of the
    rows, renumbered by first appearance: row[i] numbers object i's row,
    first[r] is row r's smallest object, counts[r] its object count."""
    _, index, inverse, counts = np.unique(
        np.asarray(table), axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(index)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank[inverse.reshape(-1)], index[order], counts[order]


def eci_decimal(uncertainty: float, theta: float, ensemble_size: int, digits: int = 50) -> float:
    """Arbitrary-precision evaluation of exp(-u / (theta * M))."""
    getcontext().prec = digits
    exponent = -Decimal(uncertainty) / (Decimal(theta) * Decimal(ensemble_size))
    return float(exponent.exp())


# ---------------------------------------------------------------------------
# co-association (triple loops)


def ca_ref(labels: np.ndarray) -> np.ndarray:
    n, m = labels.shape
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            hits = 0
            for col in range(m):
                if labels[i, col] == labels[j, col]:
                    hits += 1
            out[i, j] = hits / m
    return out


def lwca_ref(labels: np.ndarray, eci_values: np.ndarray) -> np.ndarray:
    """Weighted co-association; eci_values indexed by dense cluster id."""
    n, m = labels.shape
    offsets = np.concatenate(([0], np.cumsum([labels[:, c].max() + 1 for c in range(m)])))
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for col in range(m):
                if labels[i, col] == labels[j, col]:
                    acc += eci_values[offsets[col] + labels[i, col]]
            out[i, j] = acc / m
    return out


# ---------------------------------------------------------------------------
# average-link agglomeration (per-step re-scan of the original matrix)


def average_link_ref(values: np.ndarray) -> list[tuple[int, int, int, float]]:
    """Merge sequence (left_id, right_id, new_id, similarity) by full re-scanning.

    Each step recomputes every inter-region similarity as the mean of the
    original entries across the two regions; ties go to the pair whose
    (smaller, larger) region representatives (smallest members) sort first.
    """
    n = values.shape[0]
    regions: dict[int, list[int]] = {i: [i] for i in range(n)}
    merges = []
    for step in range(n - 1):
        best = None
        for ida, idb in itertools.combinations(sorted(regions), 2):
            a, b = regions[ida], regions[idb]
            sim = sum(values[x, y] for x in a for y in b) / (len(a) * len(b))
            rep = (min(a[0], b[0]), max(a[0], b[0]))
            key = (-sim, rep)
            if best is None or key < best[0]:
                best = (key, ida, idb, sim)
        _, ida, idb, sim = best
        a, b = regions.pop(ida), regions.pop(idb)
        left, right = (ida, idb) if a[0] < b[0] else (idb, ida)
        new_id = n + step
        regions[new_id] = sorted(a + b)
        merges.append((left, right, new_id, sim))
    return merges


def average_link_argmax_ref(values: np.ndarray) -> list[tuple[int, int, int, float]]:
    """Merge sequence (left_id, right_id, new_id, similarity) by full-matrix argmax.

    The size-weighted average-link recurrence on a work copy, with one
    row-major argmax over the whole N x N matrix per merge and dead rows and
    columns set to -inf. Being O(N^3), it is the exact-float oracle for the
    incremental loop in `build_dendrogram` at realistic N: same recurrence,
    same tie rule, same recorded similarities.
    """
    n = values.shape[0]
    work = values.astype(np.float64, copy=True)
    np.fill_diagonal(work, -np.inf)
    size = np.ones(n, dtype=np.int64)
    region = np.arange(n)
    merges = []
    for step in range(n - 1):
        flat = int(np.argmax(work))
        i, j = divmod(flat, n)
        similarity = float(work[i, j])
        new_id = n + step
        merges.append((int(region[i]), int(region[j]), new_id, similarity))
        si, sj = size[i], size[j]
        merged = (si * work[i, :] + sj * work[j, :]) / (si + sj)
        work[i, :] = merged
        work[:, i] = merged
        work[i, i] = -np.inf
        work[j, :] = -np.inf
        work[:, j] = -np.inf
        size[i] = si + sj
        region[i] = new_id
    return merges


def cut_ref(merges, n: int, k: int) -> np.ndarray:
    parent = list(range(2 * n - 1))
    for left, right, new_id, _ in merges[: n - k]:
        parent[left] = new_id
        parent[right] = new_id

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    roots = [root(i) for i in range(n)]
    mapping: dict[int, int] = {}
    return np.array([mapping.setdefault(r, len(mapping)) for r in roots])


# ---------------------------------------------------------------------------
# NMI (explicit contingency, natural logs)


def nmi_ref(a, b) -> float:
    a = list(a)
    b = list(b)
    n = len(a)
    table: dict[tuple, int] = {}
    ra: dict[object, int] = {}
    cb: dict[object, int] = {}
    for x, y in zip(a, b):
        table[(x, y)] = table.get((x, y), 0) + 1
        ra[x] = ra.get(x, 0) + 1
        cb[y] = cb.get(y, 0) + 1
    h_a = -sum((c / n) * math.log(c / n) for c in ra.values())
    h_b = -sum((c / n) * math.log(c / n) for c in cb.values())
    if h_a == 0 and h_b == 0:
        return 1.0
    if h_a == 0 or h_b == 0:
        return 0.0
    info = sum(
        (c / n) * math.log(c * n / (ra[x] * cb[y])) for (x, y), c in table.items()
    )
    return info / math.sqrt(h_a * h_b)


# ---------------------------------------------------------------------------
# connected components of the object-cluster bipartite graph (BFS)


def components_ref(labels: np.ndarray) -> np.ndarray:
    """Component id per object, numbered by first appearance; two objects are
    joined when some column gives them the same label."""
    n, m = labels.shape
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        for col in range(m):
            groups.setdefault((col, int(labels[i, col])), []).append(i)
    comp = [-1] * n
    count = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        comp[start] = count
        queue = [start]
        while queue:
            i = queue.pop()
            for col in range(m):
                # a group is expanded once, when BFS first reaches it
                for j in groups.pop((col, int(labels[i, col])), []):
                    if comp[j] < 0:
                        comp[j] = count
                        queue.append(j)
        count += 1
    return np.array(comp)


# ---------------------------------------------------------------------------
# normalized cut on the object-cluster bipartite graph


def affinity_ref(graph) -> np.ndarray:
    """Dense N x n_c edge-weight matrix of a `BipartiteGraph` (zero where no
    edge), zero-weight clusters left out: the input of the cut oracles below."""
    keep = graph.weights > 0
    column = np.cumsum(keep) - 1
    objects, cells = np.nonzero(keep[graph.cluster_ids])
    clusters = graph.cluster_ids[objects, cells]
    b = np.zeros((graph.n_objects, int(column[-1]) + 1))
    b[objects, column[clusters]] = graph.weights[clusters]
    return b


def ncut_value(affinity: np.ndarray, obj_labels, cl_labels, k: int) -> float:
    """Normalized cut of a k-way partition of all nodes; inf on empty volume."""
    b = np.asarray(affinity, dtype=np.float64)
    obj_labels = np.asarray(obj_labels)
    cl_labels = np.asarray(cl_labels)
    d_obj = b.sum(axis=1)
    d_cl = b.sum(axis=0)
    zo = np.zeros((b.shape[0], k))
    zo[np.arange(b.shape[0]), obj_labels] = 1.0
    zc = np.zeros((b.shape[1], k))
    zc[np.arange(b.shape[1]), cl_labels] = 1.0
    vol = zo.T @ d_obj + zc.T @ d_cl
    if (vol <= 0).any():
        return math.inf
    assoc = 2.0 * np.diag(zo.T @ b @ zc)
    return float(((vol - assoc) / vol).sum())


def _assignment_blocks(nc: int, k: int):
    """The cluster-node assignments of itertools.product(range(k), repeat=nc),
    in that order, as one-hot (assignments, nc, k) stacks of 2^12 at a time."""
    place = k ** np.arange(nc - 1, -1, -1)
    for start in range(0, k**nc, 1 << 12):
        digits = np.arange(start, min(start + (1 << 12), k**nc))[:, None] // place % k
        yield (digits[:, :, None] == np.arange(k)).astype(np.float64)


def _stacked_ncuts(b: np.ndarray, zo: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """`ncut_value` of each one-hot object and cluster assignment in the stacks
    `zo` and `zc` (either may be a single one), by the same products, so each
    is the same float."""
    zo_t, zc_t = np.swapaxes(zo, -1, -2), np.swapaxes(zc, -1, -2)
    vol = zo_t @ b.sum(axis=1) + zc_t @ b.sum(axis=0)
    assoc = 2.0 * np.diagonal(zo_t @ b @ zc, axis1=-2, axis2=-1)
    ncuts = ((vol - assoc) / np.where(vol > 0, vol, 1.0)).sum(axis=-1)
    return np.where((vol > 0).all(axis=-1), ncuts, math.inf)


def best_completion_ncut(affinity: np.ndarray, obj_labels, k: int) -> float:
    """Minimum ncut over all assignments of the cluster nodes, object labels fixed."""
    b = np.asarray(affinity, dtype=np.float64)
    zo = (np.asarray(obj_labels)[:, None] == np.arange(k)).astype(np.float64)
    return min(float(_stacked_ncuts(b, zo, zc).min()) for zc in _assignment_blocks(b.shape[1], k))


def _bit_rows(start: int, stop: int, width: int) -> np.ndarray:
    """Rows start..stop-1 of the binary counting table: row r holds r's low
    `width` bits, least significant first, as 0.0/1.0."""
    return ((np.arange(start, stop)[:, None] >> np.arange(width)) & 1).astype(np.float64)


def exhaustive_ncut_k2(affinity: np.ndarray) -> float:
    """Exact optimum over all 2-partitions of the full node set.

    The graph is bipartite, so a partition's side-1 association is
    2 x_o^T B x_c for its object mask x_o and cluster mask x_c. Object masks
    (object 0 pinned to side 0) and cluster masks are enumerated apart: B x_c
    for every cluster mask is one (objects x n_c) @ (n_c x 2^n_c) product, and
    one more product scores each block of object masks against all of them,
    2^18 partitions at a time."""
    b = np.asarray(affinity, dtype=np.float64)
    n, nc = b.shape
    d_obj, d_cl = b.sum(axis=1), b.sum(axis=0)
    total = d_obj.sum() + d_cl.sum()
    xc = _bit_rows(0, 1 << nc, nc)
    vol_cl = xc @ d_cl
    b_xc = b[1:] @ xc.T
    step = max(1, (1 << 18) >> nc)
    best = math.inf
    for start in range(0, 1 << (n - 1), step):
        xo = _bit_rows(start, min(start + step, 1 << (n - 1)), n - 1)
        vol1 = (xo @ d_obj[1:])[:, None] + vol_cl
        vol0 = total - vol1
        cut = vol1 - 2.0 * (xo @ b_xc)
        valid = (vol0 > 0) & (vol1 > 0)
        ncuts = np.where(valid, cut / np.where(vol1 > 0, vol1, 1) + cut / np.where(vol0 > 0, vol0, 1), np.inf)
        best = min(best, float(ncuts.min()))
    return best


def induced_partition_optimum(affinity: np.ndarray, k: int) -> float:
    """Minimum ncut over partitions induced by assigning cluster nodes to k segments.

    Each cluster-node assignment pulls every object into the segment holding
    the largest share of its edge weight (ties to the lowest segment id).
    """
    b = np.asarray(affinity, dtype=np.float64)
    best = math.inf
    for zc in _assignment_blocks(b.shape[1], k):
        zo = ((b @ zc).argmax(axis=2)[:, :, None] == np.arange(k)).astype(np.float64)
        best = min(best, float(_stacked_ncuts(b, zo, zc).min()))
    return best


def refine_partition_loop_ref(
    b: np.ndarray, labels: np.ndarray, k: int, max_passes: int = 100
) -> tuple[np.ndarray, float]:
    """Greedy single-node moves descending the normalized cut of the full graph,
    one node at a time over a dense N x n_c affinity (lwec's loop before the
    block scan).

    Both node sides move; cluster nodes start at the segment holding most of
    their edge weight. Deterministic: nodes are scanned in index order and a
    move is taken only on strict improvement. Returns the object labels and
    the final full-graph cut value.
    """
    n, nc = b.shape
    nodes = n + nc
    deg = np.concatenate([b.sum(axis=1), b.sum(axis=0)])
    full = np.empty(nodes, dtype=np.int64)
    full[:n] = labels
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    full[n:] = (b.T @ onehot).argmax(axis=1)
    # links[v, s] = total edge weight from node v into segment s
    links = np.zeros((nodes, k))
    for s in range(k):
        obj_in = full[:n] == s
        cl_in = full[n:] == s
        links[:n, s] = b[:, cl_in].sum(axis=1)
        links[n:, s] = b[obj_in, :].sum(axis=0)
    vol = np.zeros(k)
    np.add.at(vol, full, deg)
    assoc = np.zeros(k)
    np.add.at(assoc, full, links[np.arange(nodes), full])
    counts = np.bincount(full, minlength=k)

    def term(volume, a):
        return (volume - a) / volume

    current = float(term(vol, assoc).sum())
    for _ in range(max_passes):
        improved = False
        for v in range(nodes):
            s0 = int(full[v])
            if counts[s0] == 1:
                continue
            vol0 = vol[s0] - deg[v]
            assoc0 = assoc[s0] - 2.0 * links[v, s0]
            base = current - term(vol[s0], assoc[s0])
            best_s, best_val = s0, current
            for s1 in range(k):
                if s1 == s0:
                    continue
                candidate = (
                    base
                    - term(vol[s1], assoc[s1])
                    + term(vol0, assoc0)
                    + term(vol[s1] + deg[v], assoc[s1] + 2.0 * links[v, s1])
                )
                if candidate < best_val - 1e-12:
                    best_s, best_val = s1, candidate
            if best_s != s0:
                vol[s0] -= deg[v]
                vol[best_s] += deg[v]
                assoc[s0] -= 2.0 * links[v, s0]
                assoc[best_s] += 2.0 * links[v, best_s]
                counts[s0] -= 1
                counts[best_s] += 1
                if v < n:
                    links[n:, s0] -= b[v, :]
                    links[n:, best_s] += b[v, :]
                else:
                    links[:n, s0] -= b[:, v - n]
                    links[:n, best_s] += b[:, v - n]
                full[v] = best_s
                current = best_val
                improved = True
        if not improved:
            break
    return full[:n], current


# ---------------------------------------------------------------------------
# the row-by-row label-matrix parser, the joined-cell table parser, the sorting
# label numbering, the node-pair k = 2 cut oracle, the N x N co-association
# accumulation, the full-eigh embedding, the per-object transfer and the
# per-cluster k-means step with its eager pool that lwec replaced; kept to
# check the replacements exactly


def parse_label_matrix_loop_ref(source):
    """The line-by-line parser `lwec.parse_label_matrix` replaced: same
    LabelMatrix, same first error message."""
    from lwec.ensemble import LabelMatrix, _read_text

    rows: list[list[int]] = []
    width = None
    seen_header = False
    for lineno, line in enumerate(_read_text(source).splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if rows or seen_header:
                raise ValueError(f"line {lineno}: unexpected '#' row (only a single leading header is allowed)")
            seen_header = True
            continue
        cells = [cell.strip() for cell in stripped.split(",")]
        try:
            values = [int(cell) for cell in cells]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer cell in {stripped!r}") from None
        if any(v < 0 for v in values):
            raise ValueError(f"line {lineno}: negative cluster label")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(f"line {lineno}: ragged rows ({len(values)} cells, expected {width})")
        rows.append(values)
    if not rows:
        raise ValueError("empty label matrix")
    return LabelMatrix.from_array(np.asarray(rows, dtype=np.int64))


def exhaustive_ncut_k2_node_pairs_ref(affinity: np.ndarray) -> float:
    """`exhaustive_ncut_k2` as it was: the same optimum from the full
    (nodes x nodes) product of every partition mask, over blocks of 2^15
    partitions so that memory stays O(2^15 x nodes)."""
    b = np.asarray(affinity, dtype=np.float64)
    n, nc = b.shape
    nodes = n + nc
    w = np.zeros((nodes, nodes))
    w[:n, n:] = b
    w[n:, :n] = b.T
    d = w.sum(axis=1)
    total = d.sum()
    count = 1 << (nodes - 1)  # node 0 pinned to side 0
    bits = np.arange(nodes - 1, dtype=np.uint64)
    best = math.inf
    for start in range(0, count, 1 << 15):
        masks = np.arange(start, min(start + (1 << 15), count), dtype=np.uint64)
        x = np.zeros((masks.size, nodes))
        x[:, 1:] = (masks[:, None] >> bits) & np.uint64(1)
        vol1 = x @ d
        vol0 = total - vol1
        assoc1 = ((x @ w) * x).sum(axis=1)
        cut = vol1 - assoc1
        valid = (vol0 > 0) & (vol1 > 0)
        ncuts = np.where(valid, cut / np.where(vol1 > 0, vol1, 1) + cut / np.where(vol0 > 0, vol0, 1), np.inf)
        best = min(best, float(ncuts.min()))
    return best


def parse_table_join_ref(source, cast: type, what: str, width: int = 0) -> np.ndarray:
    """The one-pass table parser `lwec.ensemble._parse_table` replaced: one
    `cast` call per cell over all rows joined, then a row walk for the error.
    Same array, same first error message."""
    from lwec.ensemble import _read_text

    lines = enumerate(_read_text(source).splitlines(), start=1)
    numbered = [(lineno, row) for lineno, line in lines if (row := line.strip())]
    if numbered and numbered[0][1].startswith("#"):
        numbered = numbered[1:]
    if not numbered:
        raise ValueError(f"empty {what}")
    rows = [row for _, row in numbered]
    width = width or rows[0].count(",") + 1
    # one cast pass over every cell; a '#' row fails it, and int() and
    # float() ignore the whitespace around a cell
    try:
        values = list(map(cast, ",".join(rows).split(",")))
    except ValueError:
        values = None
    if values is None or (cast is int and min(values) < 0) or any(row.count(",") != width - 1 for row in rows):
        raise ValueError(next(filter(None, (_row_error_ref(lineno, row, cast, width) for lineno, row in numbered))))
    try:
        return np.asarray(values, dtype=np.int64 if cast is int else np.float64).reshape(len(rows), width)
    except OverflowError:  # an int cell past int64
        cell = next(i for i, v in enumerate(values) if v > np.iinfo(np.int64).max)
        raise ValueError(f"line {numbered[cell // width][0]}: cluster label too large for int64") from None


def _row_error_ref(lineno: int, row: str, cast: type, width: int) -> str | None:
    """What is wrong with one stripped data row of a table, if anything."""
    if row.startswith("#"):
        return f"line {lineno}: unexpected '#' row (only a single leading header is allowed)"
    try:
        values = [cast(cell) for cell in row.split(",")]
    except ValueError:
        return f"line {lineno}: non-{'integer' if cast is int else 'numeric'} cell in {row!r}"
    if cast is int and min(values) < 0:
        return f"line {lineno}: negative cluster label"
    if len(values) != width:
        return f"line {lineno}: ragged rows ({len(values)} cells, expected {width})"
    return None


def dense_remap_sort_ref(column: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """The sorting numbering `lwec.ensemble._dense_remap` replaced: dense
    0-based ids in order of first appearance, and the original labels in
    that order."""
    uniq, first, inverse = np.unique(column, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(uniq.size)
    return rank[inverse], tuple(int(v) for v in uniq[order])


def coassoc_dense_ref(view, weights: np.ndarray) -> np.ndarray:
    """The N x N accumulation `lwec.coassoc` replaced: each cluster's weight
    added to every pair of its members in cluster-id order, then divided by M."""
    n = view.n_objects
    values = np.zeros((n, n))
    for c, weight in enumerate(weights):
        members = np.flatnonzero((view.cluster_ids == c).any(axis=1))
        values[np.ix_(members, members)] += weight
    values /= view.n_clusterings
    values.flags.writeable = False
    return values


def embedding_eigh_ref(edges, k: int) -> np.ndarray:
    """`lwec.graphcut._embedding` before the block Lanczos, verbatim: the k
    leading eigenvectors of the normalized W_c from a full eigh at every
    size, transferred to the objects and row-normalized."""
    from lwec.graphcut import _cluster_graph, _transfer

    share = edges.weights / edges.weights.sum(axis=1)[:, None]  # D_o^-1 B, one entry per edge
    w_c = _cluster_graph(edges)
    inv_sqrt = 1.0 / np.sqrt(w_c.sum(axis=1))
    w_c *= inv_sqrt[:, None]
    w_c *= inv_sqrt[None, :]
    sym = w_c + w_c.T
    del w_c
    sym /= 2
    _, vecs = np.linalg.eigh(sym)
    f_obj = _transfer(edges, share, vecs[:, -k:])
    norms = np.linalg.norm(f_obj, axis=1)
    norms[norms == 0] = 1.0
    return f_obj / norms[:, None]


def cluster_graph_loop_ref(edges, share: np.ndarray) -> np.ndarray:
    """`lwec.graphcut._cluster_graph` before its keys were laid out column by
    column, verbatim: W_c = B^T D_o^-1 B, one bincount over N x M (row,
    cluster) keys per ensemble column."""
    columns, weights, nc = edges.columns, edges.weights, edges.n_clusters
    w_c = np.zeros((nc, nc))
    for a in range(columns.shape[1]):
        live = weights[:, a] > 0
        if not live.any():
            continue
        lo, hi = int(columns[live, a].min()), int(columns[live, a].max()) + 1
        # a dead edge keys row lo and adds 0.0
        keys = (np.where(live, columns[:, a] - lo, 0) * nc)[:, None] + columns
        block = np.bincount(
            keys.ravel(), weights=(weights[:, a, None] * share).ravel(), minlength=(hi - lo) * nc
        )
        w_c[lo:hi] += block.reshape(hi - lo, nc)
    return w_c


def transfer_objects_ref(edges, share: np.ndarray, f_cluster: np.ndarray) -> np.ndarray:
    """`lwec.graphcut._transfer` before it ran once per distinct row,
    verbatim: object rows of D_o^-1 B f_cluster, an M-term sum per object."""
    f_obj = np.zeros((edges.columns.shape[0], f_cluster.shape[1]))
    for m in range(share.shape[1]):
        f_obj += share[:, m, None] * f_cluster[edges.columns[:, m]]
    return f_obj


def _squared_distances_ref(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _plusplus_init_ref(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def lloyd_ref(points: np.ndarray, k: int, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """`lwec.kmeans._lloyd` before the vectorised step, verbatim: an n x k x d
    distance array and one `mean` per cluster. Returns (labels, centers,
    per-iteration objective, repairs)."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = _plusplus_init_ref(x, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    objective: list[float] = []
    repairs = 0
    for _ in range(100):
        d2 = _squared_distances_ref(x, centers)
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
        new_centers = np.empty_like(centers)
        for c in range(k):
            new_centers[c] = x[labels == c].mean(axis=0)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < 1e-6:
            break
    return labels, centers, np.asarray(objective), repairs


def generate_pool_ref(features: np.ndarray, config) -> list[np.ndarray]:
    """`lwec.generate_pool` before it could skip members, verbatim: every
    member clustered by `lloyd_ref`."""
    from lwec.harness import _subseed, sqrt_k_ceiling, validate_features

    x = validate_features(features)
    n = x.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 objects to draw k from [2, ceil(sqrt(N))], got {n}")
    k_max = sqrt_k_ceiling(n)
    master = np.random.Generator(np.random.PCG64(_subseed(config.seed, 0)))
    ks = master.integers(2, k_max + 1, size=config.pool_size)
    return [
        lloyd_ref(x, int(ks[t]), seed=_subseed(config.seed, 0, t))[0]
        for t in range(config.pool_size)
    ]
