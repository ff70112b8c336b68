"""Consensus by spectral partitioning of the object-cluster bipartite graph.

Objects and pooled clusters form the two node sides; each membership edge is
weighted by the reliability of its cluster endpoint. Partitioning works on the
small cluster side of the graph and transfers the spectral embedding back to
the object nodes (a transfer-cut construction); cluster nodes are discarded
after partitioning and only object segments are reported.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .ensemble import ConsensusResult, EnsembleView, _add_transpose, relabel_first_appearance
from .kmeans import kmeans
from .validity import DEFAULT_THETA, ValidityReport, _require_live_edges, annotate_validity

__all__ = [
    "PartitionWarning",
    "BipartiteGraph",
    "build_lwbg",
    "tcut_partition",
    "lwgp",
]


class PartitionWarning(UserWarning):
    """The requested segment count could not be realized exactly."""


# Sweep-cut starts run while k ** n_clusters is at most this value, which is
# kept so that every larger graph keeps its labels: starts on every graph changed
# two golden label sets and made 10k-object cuts up to 4x slower.
SWEEP_START_LIMIT = 20_000

# Graphs with at most this many positive-weight clusters take their leading
# eigenpairs from a full eigh, larger ones from the block Lanczos of
# _top_eigenvectors. Median ms on one thread, three-blob Voronoi ensembles
# (N = 2,000, noise 0 and 0.1), the Lanczos at k = 2, 3 and 5:
#   n_c      170      260       300       330       510     680
#   eigh     3.5      7.7-8.1   8.2-11    10-14     40-43   71-77
#   Lanczos  5.8-13   7.5-13    5.3-16    7.9-17    15-22   17-30
EIGH_MAX_CLUSTERS = 300

# Consecutive nodes whose move gains _refine_partition evaluates in one numpy
# pass; a larger block wastes more work past each move, a smaller one pays
# more per-call overhead between moves.
REFINE_BLOCK = 256


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Membership edges between a view's N objects and its n_c clusters.

    Object i has one edge per base clustering, to cluster cluster_ids[i, m]
    of the view; every edge into cluster c weighs weights[c], the cluster's
    ECI. weights holds one finite weight >= 0 per cluster of the view
    (ValueError otherwise), and a cluster of weight 0 has no edges.

    Objects with equal label rows have equal edges, so the passes that see
    an object only through its edges run once per distinct row of the
    view's `_rows` numbering.
    """

    view: EnsembleView
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != (self.view.n_clusters,):
            raise ValueError(f"view has {self.view.n_clusters} clusters, got weights of shape {self.weights.shape}")
        if not ((self.weights >= 0) & (self.weights < np.inf)).all():  # NaN fails both tests
            raise ValueError("weights must be finite and >= 0")

    @property
    def cluster_ids(self) -> np.ndarray:
        return self.view.cluster_ids

    @property
    def n_objects(self) -> int:
        return self.view.n_objects

    @property
    def n_clusters(self) -> int:
        return self.view.n_clusters


def build_lwbg(view: EnsembleView, report: ValidityReport) -> BipartiteGraph:
    """Build the reliability-weighted bipartite graph of an annotated ensemble,
    `BipartiteGraph(view, report.eci)`.

    Raises ValueError if the report does not cover the view's clusters, or if
    all of some object's cluster weights underflow to 0.
    """
    graph = BipartiteGraph(view, report.eci)
    _require_live_edges(view, graph.weights, f" at theta={report.theta:g}; use a larger theta")
    return graph


class _Edges(NamedTuple):
    """A graph's N x M edges with the clusters that have none removed.

    columns[i, m] is the id, among the graph's positive-weight clusters, of
    object i's m-th cluster, and weights[i, m] is that edge's weight divided
    by the largest edge weight (the normalized cut is scale-invariant). An
    edge into a zero-weight cluster has column 0 and weight 0. degrees holds the
    N + n_c node degrees, objects first. row and first are the view's
    distinct-row numbering: object i has the edges of object first[row[i]].
    """

    columns: np.ndarray
    weights: np.ndarray
    n_clusters: int
    degrees: np.ndarray
    row: np.ndarray
    first: np.ndarray


def _edges(graph: BipartiteGraph) -> _Edges:
    keep = graph.weights > 0
    live = keep[graph.cluster_ids]
    columns = np.where(live, (np.cumsum(keep) - 1)[graph.cluster_ids], 0)
    weights = np.where(live, graph.weights[graph.cluster_ids], 0.0)
    weights /= weights.max()
    nc = int(keep.sum())
    cluster_degrees = np.bincount(columns.ravel(), weights=weights.ravel(), minlength=nc)
    row, first, _ = graph.view._rows
    return _Edges(columns, weights, nc, np.concatenate([weights.sum(axis=1), cluster_degrees]), row, first)


def _connected_components(graph: BipartiteGraph) -> np.ndarray:
    """Component id per object node; zero-weight clusters join nothing.

    Min-label propagation row -> cluster -> row over the view's p distinct
    rows plus pointer jumping (a label always names a row of the same
    component), until each component carries its least row, which holds its
    least object, as rows are numbered by first appearance. The rows' ids
    are laid out M x p, so each pass runs p long; the work is integer, so
    exact. Memory O(p M + n_c).
    """
    row, first, _ = graph.view._rows
    m, p = graph.view.n_clusterings, first.size
    # 1-D ids and values: numpy 2.4.6's ufunc.at misreads values broadcast along a 2-D index's leading axis
    ids = graph.cluster_ids[first].T.ravel()
    dead = graph.weights == 0
    comp = np.arange(p)
    while True:
        low = np.full(graph.n_clusters, p)
        np.minimum.at(low, ids, np.tile(comp, m))
        low[dead] = p
        step = np.minimum(comp, low[ids].reshape(m, p).min(axis=0))
        step = step[step]
        if np.array_equal(step, comp):
            return relabel_first_appearance(comp)[row]
        comp = step


def _cluster_graph(edges: _Edges) -> np.ndarray:
    """W_c = B^T D_o^-1 B from the edges.

    Filled one ensemble column at a time: column a's live edges reach the
    rows between their least and greatest cluster id, and one bincount over
    (row, cluster) keys of all the edges, laid out M x N so each pass runs N
    long, fills those rows. A key is reached from one column's edges only
    (a dead edge adds 0.0), object after object, so its adds keep the order
    and bits of an N x M layout. Memory O(N M + n_c^2), no N x n_c matrix:
    M x N ids (turned into each column's keys in place, then back), D_o^-1 B and a product.
    """
    nc, columns = edges.n_clusters, np.ascontiguousarray(edges.columns.T)
    share = np.divide(edges.weights.T, edges.degrees[: columns.shape[1]], order="C")
    w_c = np.zeros((nc, nc))
    for column, weight in zip(columns, map(np.ascontiguousarray, edges.weights.T)):
        live = weight > 0
        if not live.any():
            continue
        lo, hi = int(column[live].min()), int(column[live].max()) + 1
        offset = np.where(live, column - lo, 0) * nc  # a dead edge keys row lo and adds 0.0
        columns += offset
        block = np.bincount(columns.ravel(), weights=(weight * share).ravel(), minlength=(hi - lo) * nc)
        columns -= offset
        w_c[lo:hi] += block.reshape(hi - lo, nc)
    return w_c


def _transfer(edges: _Edges, share: np.ndarray, f_cluster: np.ndarray) -> np.ndarray:
    """Object rows of D_o^-1 B f_cluster, an M-term sum per object, made once
    per distinct row (the same operations, in the same order, as each of its
    objects') and gathered."""
    share, columns = share[edges.first], edges.columns[edges.first]
    f_rows = np.zeros((edges.first.size, f_cluster.shape[1]))
    for m in range(share.shape[1]):
        f_rows += share[:, m, None] * f_cluster[columns[:, m]]
    return f_rows[edges.row]


def _top_eigenvectors(sym: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The `top` leading eigenpairs of a symmetric matrix, (values, vectors) in
    ascending order like the tail of a full eigh, which answers for matrices
    of at most EIGH_MAX_CLUSTERS rows.

    Larger ones take a block Lanczos from a fixed-seed PCG64 block of `top`
    columns. The basis Q, the rows of a buffer that doubles when full, grows
    by sym @ Q_last orthogonalized against all of Q twice, whose coefficients
    fill T = Q^T sym Q. Each time Q has grown by a quarter, Rayleigh-Ritz on
    T ends the loop if every Ritz residual ||r w_last|| is at most 1e-10 (r:
    the part of sym @ Q_last outside Q; w_last: the Ritz vector's last block
    in T's coordinates; the normalized cluster graph has spectral norm 1).
    Past min(n, (4 top n^3)^(1/4)) columns, where the Rayleigh-Ritz steps
    alone cost about one full eigh, one last check runs and the full eigh
    answers. Its vectors are another basis of each leading subspace than
    eigh's, all the row-normalized embedding sees. Same input, same bytes.
    """
    n = sym.shape[0]
    budget = min(n, (4 * top * n**3) ** 0.25)
    if n > EIGH_MAX_CLUSTERS and 2 * top <= budget:
        basis, t = np.empty((2 * top, n)), np.zeros((2 * top, 2 * top))
        basis[:top] = np.linalg.qr(np.random.Generator(np.random.PCG64(0)).standard_normal((n, top)))[0].T
        size, checked = top, 0
        while True:
            q, last = basis[:size], slice(size - top, size)
            y = basis[last] @ sym  # (sym @ Q_last)^T, as sym is symmetric
            h = q @ y.T
            r = y - h.T @ q
            c = q @ r.T
            r -= c.T @ q
            t[last, :size] = (h + c).T  # eigh reads the lower triangle alone
            if size + top > budget or size >= 1.25 * checked:
                checked = size
                values, w = np.linalg.eigh(t[:size, :size])
                if (np.linalg.norm(w[-top:, -top:].T @ r, axis=1) <= 1e-10).all():
                    return values[-top:], q.T @ w[:, -top:]
            if size + top > budget:
                break
            if size + top > len(basis):
                basis = np.empty((2 * len(basis), n))  # rows not yet written take no memory
                basis[:size] = q
                t = np.pad(t[:size, :size], (0, len(basis) - size))
            # where r is rank-deficient its QR invents columns that need not be
            # orthogonal to the basis; one more projection makes them so
            new = np.linalg.qr(r.T)[0]
            basis[size:size + top] = np.linalg.qr(new - q.T @ (q @ new))[0].T
            size += top
    values, vectors = np.linalg.eigh(sym)
    return values[-top:], vectors[:, -top:].copy()


def _sweep_starts(edges: _Edges, values: np.ndarray, u: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """Object labels of the sweep-cut starts (Shi & Malik, TPAMI 2000).

    Each of the k + 1 leading eigenvectors v of the normalized W_c, with the
    eigenvalues and u = D_c^-1/2 v from `_tcuts`' full eigh,
    gives one axis through all N + n_c nodes: a cluster sits at u, an object
    at the transfer D_o^-1 B u over the eigenvalue's square root, so both
    sides lie on one scale. A start splits the nodes k - 1 times, each time
    at the sorted prefix of one segment that raises the normalized cut
    least. There is one start per axis and one that may take any axis at
    each split.
    """
    n, nc, deg = edges.columns.shape[0], edges.n_clusters, edges.degrees
    # a null direction's eigenvalue rounds to about 0 or below; its objects then sit near 0
    scale = np.sqrt(np.maximum(values, np.finfo(float).tiny))
    axes = np.vstack([_transfer(edges, edges.weights / deg[:n, None], u) / scale, u]).T
    live = edges.weights > 0
    ends = np.column_stack([np.nonzero(live)[0], n + edges.columns[live]])
    w = edges.weights[live]

    def splits(segments, sorted_nodes):
        """(rise, prefix) of each segment's best split into prefix P and rest Q
        in the sorted order: the cut rises by 1 + 2 rise, where rise = in_S /
        vol_S - in_P / vol_P - in_Q / vol_Q and in_X weighs X's inner edges."""
        for s in range(segments.max() + 1):
            order = sorted_nodes[segments[sorted_nodes] == s]
            rank = np.full(n + nc, -1)
            rank[order] = np.arange(order.size)
            r = rank[ends]
            inner = (r >= 0).all(axis=1)
            lo, hi, w_in = r[inner].min(axis=1), r[inner].max(axis=1), w[inner]
            in_p = np.cumsum(np.bincount(hi, w_in, order.size))[:-1]
            in_q = w_in.sum() - np.cumsum(np.bincount(lo, w_in, order.size))[:-1]
            vol_p, vol_q = np.cumsum(deg[order])[:-1], np.cumsum(deg[order][::-1])[-2::-1]
            rise = w_in.sum() / deg[order].sum() - in_p / vol_p - in_q / vol_q
            if rise.size:
                yield rise.min(), order[: rise.argmin() + 1]

    orders = np.argsort(axes, axis=1, kind="stable")
    for choice in [[a] for a in range(len(orders))] + [range(len(orders))]:
        segments = np.zeros(n + nc, dtype=np.int64)
        for new in range(1, k):
            candidates = (c for a in choice for c in splits(segments, orders[a]))
            segments[min(candidates, key=lambda c: c[0])[1]] = new
        yield segments[:n]


def _refine_partition(
    edges: _Edges, labels: np.ndarray, k: int, max_passes: int = 100
) -> tuple[np.ndarray, float]:
    """Greedy single-node moves descending the normalized cut of the full graph.

    Both node sides move; cluster nodes start at the segment holding most of
    their edge weight (the lowest such segment on a tie). Deterministic: nodes
    are scanned in index order (objects, then clusters) and a node moves to the first segment that
    lowers the cut by more than 1e-12 over the best found so far, unless it
    is the last node of its segment. Returns the object labels and the final
    full-graph cut value.

    Exact block scan: the gains of REFINE_BLOCK consecutive nodes are
    evaluated in one numpy pass against the current state, with the same
    floating-point operations as a node-by-node loop. Only the first node
    that improves moves, and the scan resumes right after it, so every node
    is judged on the state a node-by-node loop would show it, and the moves,
    labels and cut value are that loop's. The state is each node's link
    weight into each segment, (N + n_c) x k; an object move updates the
    links of its M clusters, a cluster move those of its members (read from
    a CSR of the live edges, built once). A pass costs O((N + n_c) k) array
    work plus one block evaluation per move.
    """
    columns, weights, nc, deg = edges.columns, edges.weights, edges.n_clusters, edges.degrees
    n, m = columns.shape
    nodes = n + nc
    live = weights > 0
    cluster_weight = np.zeros(nc)
    cluster_weight[columns[live]] = weights[live]
    member_of = columns[live]
    objects = np.broadcast_to(np.arange(n)[:, None], (n, m))[live]
    # a stable sort of ints of 16 bits or less is a radix sort: same permutation
    members = objects[np.argsort(member_of.astype(np.min_scalar_type(nc)), kind="stable")]
    starts = np.concatenate([[0], np.cumsum(np.bincount(member_of, minlength=nc))])

    full = np.empty(nodes, dtype=np.int64)
    full[:n] = labels
    # links[v, s] = total edge weight from node v into segment s
    links = np.empty((nodes, k))
    cells = (columns * k + labels[:, None]).ravel()
    links[n:] = np.bincount(cells, weights=weights.ravel(), minlength=nc * k).reshape(nc, k)
    full[n:] = links[n:].argmax(axis=1)
    cells = (np.arange(n)[:, None] * k + full[n + columns]).ravel()
    links[:n] = np.bincount(cells, weights=weights.ravel(), minlength=n * k).reshape(n, k)
    vol = np.bincount(full, weights=deg, minlength=k)
    assoc = np.bincount(full, weights=links[np.arange(nodes), full], minlength=k)
    counts = np.bincount(full, minlength=k)

    def term(volume, a):
        return (volume - a) / volume

    current = float(term(vol, assoc).sum())
    for _ in range(max_passes):
        improved = False
        v = 0
        while v < nodes:
            block = slice(v, min(v + REFINE_BLOCK, nodes))
            s0, d, link = full[block], deg[block], links[block]
            rows = np.arange(s0.size)
            best_s, best_val = s0.copy(), np.full(s0.size, current)
            # nodes that may not move can divide 0 by 0; their values are discarded
            with np.errstate(divide="ignore", invalid="ignore"):
                stay = term(vol, assoc)
                base = current - stay[s0]
                leave = term(vol[s0] - d, assoc[s0] - 2.0 * link[rows, s0])
                for s1 in range(k):
                    candidate = base - stay[s1] + leave + term(vol[s1] + d, assoc[s1] + 2.0 * link[:, s1])
                    better = (s1 != s0) & (candidate < best_val - 1e-12)
                    best_s[better] = s1
                    best_val[better] = candidate[better]
            movers = np.flatnonzero((best_s != s0) & (counts[s0] > 1))
            if not movers.size:
                v = block.stop
                continue
            j = movers[0]
            u, s_from, s_to = v + j, int(s0[j]), int(best_s[j])
            vol[s_from] -= deg[u]
            vol[s_to] += deg[u]
            assoc[s_from] -= 2.0 * links[u, s_from]
            assoc[s_to] += 2.0 * links[u, s_to]
            counts[s_from] -= 1
            counts[s_to] += 1
            if u < n:
                touched, moved = n + columns[u, live[u]], weights[u, live[u]]
            else:
                touched, moved = members[starts[u - n]:starts[u - n + 1]], cluster_weight[u - n]
            links[touched, s_from] -= moved
            links[touched, s_to] += moved
            full[u] = s_to
            current = float(best_val[j])
            improved = True
            v = u + 1
        if not improved:
            break
    return full[:n], current


def tcut_partition(graph: BipartiteGraph, k: int, seed=0) -> ConsensusResult:
    """Partition object nodes into k segments by a transfer-cut spectral method.

    Pipeline: scale edge weights by their maximum (the normalized-cut
    objective is scale-invariant), build the cluster-side graph
    W_c = B^T D_o^-1 B, take the k smallest eigenpairs of its normalized
    Laplacian, transfer eigenvectors to objects via D_o^-1 B, row-normalize,
    run seeded k-means on the embedding, then polish the segments with
    deterministic greedy node moves that lower the graph's normalized cut.
    Small graphs (k ** n_c within SWEEP_START_LIMIT) also refine the starts
    of `_sweep_starts` and keep one whose cut is lower by more than 1e-12.
    Deterministic for a fixed seed. This is `_tcuts` at one k.

    The eigenpairs come from `_top_eigenvectors`: a full eigh on graphs of
    at most EIGH_MAX_CLUSTERS positive-weight clusters, a block Lanczos on
    larger ones. Both give the same leading subspaces up to rounding, and the
    row-normalized embedding depends on them alone, so the labels agree
    unless k-means meets a tie within rounding. At 1,020 clusters the
    Lanczos takes about 20 ms against 0.18 s for the eigh.

    The steps read the N x M edges of the graph's view (see `_Edges`).
    Objects with equal label rows have equal edges, so the live-edge check,
    the components and the transfers of the embedding and the sweeps run
    once per distinct row of the view and are gathered to the objects, with
    each row's M-term sum made as each of its objects' would be. W_c
    (`_cluster_graph`), the degrees, k-means and the refinement's block
    scan (`_refine_partition`) run over the objects, in object order, so
    every sum keeps its bits. Memory is O(N M + n_c^2); no dense N x n_c
    affinity is built.

    If the graph splits into more than k connected components, components are
    assigned greedily to k labels instead (largest k-1 kept apart, remainder
    pooled) and a PartitionWarning is issued. Raises ValueError if k is
    infeasible or some object has only zero-weight clusters.
    """
    return ConsensusResult(labels=_tcuts(graph, [k], seed)[0], k=k, method="tcut")


def _tcuts(graph: BipartiteGraph, ks, seed=0) -> list[np.ndarray]:
    """`tcut_partition`'s labels at every k of `ks`, from one spectral stage.

    The checks, components, edges and normalized W_c are built once, and one
    `_top_eigenvectors` call takes the max(ks) + 1 leading pairs, of which
    each k reads the last k: on the eigh path the bits a cut at k alone
    reads, on the Lanczos path the same subspaces up to rounding. Only those
    pairs outlive the stage, so no n_c x n_c array is alive during the
    transfers, k-means and refinements. No stage is built when every k takes
    the components fallback.
    """
    n, nc = graph.n_objects, int(np.count_nonzero(graph.weights))
    for k in ks:
        if not 2 <= k <= min(n, nc):
            raise ValueError(f"infeasible k: need 2 <= k <= min(objects={n}, clusters={nc}), got {k}")
    _require_live_edges(graph.view, graph.weights)
    components = _connected_components(graph)
    n_components = int(components.max()) + 1
    spectral = [k for k in ks if k >= n_components]
    if spectral:
        edges = _edges(graph)
        sym = _cluster_graph(edges)
        inv_sqrt = 1.0 / np.sqrt(sym.sum(axis=1))
        sym *= inv_sqrt[:, None]
        sym *= inv_sqrt[None, :]
        _add_transpose(sym)
        sym /= 2
        values, vectors = _top_eigenvectors(sym, max(spectral) + 1)
        del sym

    labels = {}
    for k in dict.fromkeys(ks):
        if n_components > k:
            message = f"graph has {n_components} connected components but k={k}; assigning components greedily"
            warnings.warn(message, PartitionWarning, stacklevel=3)
            order = np.argsort(-np.bincount(components), kind="stable")
            mapping = np.full(n_components, k - 1, dtype=np.int64)
            mapping[order[: k - 1]] = np.arange(k - 1)
            labels[k] = relabel_first_appearance(mapping[components])
            continue
        embedding = _transfer(edges, edges.weights / edges.degrees[:n, None], vectors[:, -k:])
        norms = np.linalg.norm(embedding, axis=1)
        norms[norms == 0] = 1.0
        embedding /= norms[:, None]
        raw = kmeans(embedding, k, seed=seed)
        del embedding  # so that the refinement's peak memory does not hold it
        refined, value = _refine_partition(edges, raw, k)
        # only graphs of a few clusters pass the gate, and they take the eigh path
        if k**nc <= SWEEP_START_LIMIT:
            for start in _sweep_starts(edges, values[-k - 1:], inv_sqrt[:, None] * vectors[:, -k - 1:], k):
                # a start that leaves a segment without objects has no finite cut value
                if np.bincount(start, minlength=k).all():
                    alt, alt_value = _refine_partition(edges, start, k)
                    if alt_value < value - 1e-12:
                        refined, value = alt, alt_value
        labels[k] = relabel_first_appearance(refined)
        n_groups = int(labels[k].max()) + 1
        if n_groups < k:
            warnings.warn(f"only {n_groups} non-empty object segments for k={k}", PartitionWarning, stacklevel=3)
    return [labels[k] for k in ks]


def lwgp(
    view: EnsembleView,
    k: int,
    theta: float = DEFAULT_THETA,
    seed=0,
    report: ValidityReport | None = None,
) -> ConsensusResult:
    """Locally weighted graph partitioning: annotate, build the graph, transfer-cut.

    Passing a precomputed `report` skips the validity annotation (and ignores
    `theta`). k=1 short-circuits to the all-in-one clustering.
    """
    if k == 1:
        return ConsensusResult(labels=np.zeros(view.n_objects, dtype=np.int64), k=1, method="lwgp")
    if report is None:
        report = annotate_validity(view, theta)
    cut = tcut_partition(build_lwbg(view, report), k, seed=seed)
    return ConsensusResult(labels=cut.labels, k=k, method="lwgp")
