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


def best_completion_ncut(affinity: np.ndarray, obj_labels, k: int) -> float:
    """Minimum ncut over all assignments of the cluster nodes, object labels fixed."""
    nc = affinity.shape[1]
    best = math.inf
    for assignment in itertools.product(range(k), repeat=nc):
        best = min(best, ncut_value(affinity, obj_labels, assignment, k))
    return best


def exhaustive_ncut_k2(affinity: np.ndarray) -> float:
    """Exact optimum over all 2-partitions of the full node set (vectorized)."""
    b = np.asarray(affinity, dtype=np.float64)
    n, nc = b.shape
    nodes = n + nc
    w = np.zeros((nodes, nodes))
    w[:n, n:] = b
    w[n:, :n] = b.T
    d = w.sum(axis=1)
    total = d.sum()
    count = 1 << (nodes - 1)  # node 0 pinned to side 0
    masks = np.arange(count, dtype=np.uint64)
    x = np.zeros((count, nodes))
    for bit in range(nodes - 1):
        x[:, bit + 1] = (masks >> np.uint64(bit)) & np.uint64(1)
    vol1 = x @ d
    vol0 = total - vol1
    assoc1 = ((x @ w) * x).sum(axis=1)
    cut = vol1 - assoc1
    valid = (vol0 > 0) & (vol1 > 0)
    ncuts = np.where(valid, cut / np.where(vol1 > 0, vol1, 1) + cut / np.where(vol0 > 0, vol0, 1), np.inf)
    return float(ncuts.min())


def induced_partition_optimum(affinity: np.ndarray, k: int) -> float:
    """Minimum ncut over partitions induced by assigning cluster nodes to k segments.

    Each cluster-node assignment pulls every object into the segment holding
    the largest share of its edge weight (ties to the lowest segment id).
    """
    b = np.asarray(affinity, dtype=np.float64)
    nc = b.shape[1]
    best = math.inf
    for assignment in itertools.product(range(k), repeat=nc):
        zc = np.zeros((nc, k))
        zc[np.arange(nc), assignment] = 1.0
        pull = b @ zc
        obj_labels = pull.argmax(axis=1)
        best = min(best, ncut_value(b, obj_labels, np.asarray(assignment), k))
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
# the row-by-row label-matrix parser, the N x N co-association accumulation and
# the full-eigh embedding that lwec replaced; kept to check the replacements
# exactly


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


def coassoc_dense_ref(view, weights: np.ndarray) -> np.ndarray:
    """The N x N accumulation `lwec.coassoc` replaced: each cluster's weight
    added to every pair of its members in cluster-id order, then divided by M."""
    n = view.n_objects
    values = np.zeros((n, n))
    for members, weight in zip(view.members(), weights):
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
    w_c = _cluster_graph(edges, share)
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
