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
from typing import NamedTuple

import numpy as np

from .ensemble import ConsensusResult, EnsembleView, relabel_first_appearance
from .kmeans import kmeans
from .validity import DEFAULT_THETA, ValidityReport, annotate_validity

__all__ = [
    "PartitionWarning",
    "BipartiteGraph",
    "build_lwbg",
    "tcut_partition",
    "lwgp",
]


class PartitionWarning(UserWarning):
    """The requested segment count could not be realized exactly."""


# Exact search over cluster-side segment assignments is enabled while
# k ** n_clusters stays at or below this budget; larger graphs use the
# spectral embedding alone (plus greedy refinement).
INDUCED_SEARCH_LIMIT = 20_000

# Graphs with at most this many positive-weight clusters take the k leading
# eigenvectors of the normalized cluster graph from a full eigh, larger ones
# from the block Lanczos of _top_eigenvectors. Measured crossover on one
# thread, k = 2..5, Voronoi ensembles of three blobs: the Lanczos is faster
# from about 450 clusters with 10% label noise, and from about 700 without
# noise, where it needs the most blocks.
EIGH_MAX_CLUSTERS = 700

# Consecutive nodes whose move gains _refine_partition evaluates in one numpy
# pass; a larger block wastes more work past each move, a smaller one pays
# more per-call overhead between moves.
REFINE_BLOCK = 256


@dataclass(frozen=True)
class BipartiteGraph:
    """Membership edges between N object nodes and n_c cluster nodes.

    Object i has one edge per base clustering, to cluster cluster_ids[i, m];
    every edge into cluster c weighs weights[c], the cluster's ECI. A cluster
    of weight 0 has no edges. The M clusters of a row are distinct, as in
    every EnsembleView, where each column numbers its own clusters.
    """

    cluster_ids: np.ndarray
    weights: np.ndarray

    @property
    def n_objects(self) -> int:
        return self.cluster_ids.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.weights.size

    def affinity(self) -> np.ndarray:
        """Dense N x n_c edge-weight matrix (zero where no edge), zero-weight clusters left out."""
        keep = self.weights > 0
        column = np.cumsum(keep) - 1
        objects, cells = np.nonzero(keep[self.cluster_ids])
        clusters = self.cluster_ids[objects, cells]
        b = np.zeros((self.n_objects, int(column[-1]) + 1))
        b[objects, column[clusters]] = self.weights[clusters]
        return b


def _require_live_edges(cluster_ids: np.ndarray, weights: np.ndarray, advice: str = "") -> None:
    """Raise ValueError naming the first object whose clusters all weigh 0."""
    isolated = np.flatnonzero(~(weights > 0)[cluster_ids].any(axis=1))
    if isolated.size:
        raise ValueError(
            f"{isolated.size} objects (first {isolated[0]}) have only zero-weight clusters{advice}"
        )


def build_lwbg(view: EnsembleView, report: ValidityReport) -> BipartiteGraph:
    """Build the reliability-weighted bipartite graph of an annotated ensemble.

    Raises ValueError if all of some object's cluster weights underflow to 0.
    """
    if len(report.eci) != view.n_clusters:
        raise ValueError(
            f"report covers {len(report.eci)} clusters, view has {view.n_clusters}"
        )
    _require_live_edges(
        view.cluster_ids, report.eci, f" at theta={report.theta:g}; use a larger theta"
    )
    return BipartiteGraph(cluster_ids=view.cluster_ids, weights=report.eci)


class _Edges(NamedTuple):
    """A graph's N x M edges with its zero-weight clusters removed.

    columns[i, m] is the id, among positive-weight clusters, of object i's
    m-th cluster, and weights[i, m] is that edge's weight divided by the
    largest edge weight (the normalized cut is scale-invariant). An edge into
    a zero-weight cluster has column 0 and weight 0.
    """

    columns: np.ndarray
    weights: np.ndarray
    n_clusters: int


def _edges(graph: BipartiteGraph) -> _Edges:
    keep = graph.weights > 0
    live = keep[graph.cluster_ids]
    columns = np.where(live, (np.cumsum(keep) - 1)[graph.cluster_ids], 0)
    weights = np.where(live, graph.weights[graph.cluster_ids], 0.0)
    return _Edges(columns, weights / weights.max(), int(keep.sum()))


def _connected_components(graph: BipartiteGraph) -> np.ndarray:
    """Component id per object node; zero-weight clusters join nothing.

    Min-label propagation object -> cluster -> object plus pointer jumping
    (a label always names an object of the same component), until each
    component carries its least object index.
    """
    ids = graph.cluster_ids
    dead = ~(graph.weights > 0)
    comp = np.arange(graph.n_objects)
    while True:
        low = np.full(graph.n_clusters, graph.n_objects)
        np.minimum.at(low, ids, comp[:, None])
        low[dead] = graph.n_objects
        step = np.minimum(comp, low[ids].min(axis=1))
        step = step[step]
        if np.array_equal(step, comp):
            return relabel_first_appearance(comp)
        comp = step


def _partition_ncut(b: np.ndarray, obj_labels: np.ndarray, cl_labels: np.ndarray, k: int) -> float:
    """Normalized cut of a k-way partition of all nodes (inf on empty volume)."""
    zo = np.zeros((b.shape[0], k))
    zo[np.arange(b.shape[0]), obj_labels] = 1.0
    zc = np.zeros((b.shape[1], k))
    zc[np.arange(b.shape[1]), cl_labels] = 1.0
    vol = zo.T @ b.sum(axis=1) + zc.T @ b.sum(axis=0)
    if (vol <= 0).any():
        return np.inf
    assoc = 2.0 * np.diag(zo.T @ b @ zc)
    return float(((vol - assoc) / vol).sum())


def _best_induced_partition(b: np.ndarray, k: int) -> np.ndarray | None:
    """Exact search over all k ** n_c cluster-side assignments (small graphs only).

    Each assignment pulls every object into the segment holding the largest
    share of its edge weight; the best full-graph normalized cut wins (None
    if every cut has a segment of zero volume).
    """
    nc = b.shape[1]
    best_value = np.inf
    best_labels = None
    digits = k ** np.arange(nc)
    for code in range(k**nc):
        assignment = code // digits % k  # base-k digits of code, least significant first
        zc = np.zeros((nc, k))
        zc[np.arange(nc), assignment] = 1.0
        obj_labels = (b @ zc).argmax(axis=1)
        ncut = _partition_ncut(b, obj_labels, assignment, k)
        if ncut < best_value - 1e-12:
            best_value = ncut
            best_labels = obj_labels.copy()
    return best_labels


def _cluster_graph(edges: _Edges, share: np.ndarray) -> np.ndarray:
    """W_c = B^T D_o^-1 B from the edges, where share = D_o^-1 B per edge.

    Filled one ensemble column at a time: column a's live edges reach the
    rows between their least and greatest cluster id, and one bincount over
    (row, cluster) keys of all N x M edges fills those rows. Memory stays
    O(N M + n_c^2); no N x M^2 pair list and no N x n_c matrix is built.
    """
    columns, weights, nc = edges
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


def _transfer(edges: _Edges, share: np.ndarray, f_cluster: np.ndarray) -> np.ndarray:
    """Object rows of D_o^-1 B f_cluster, an M-term sum per object."""
    f_obj = np.zeros((edges.columns.shape[0], f_cluster.shape[1]))
    for m in range(share.shape[1]):
        f_obj += share[:, m, None] * f_cluster[edges.columns[:, m]]
    return f_obj


def _top_eigenvectors(sym: np.ndarray, k: int) -> np.ndarray:
    """The k leading eigenvectors of a symmetric matrix, by block Lanczos.

    Blocks of k columns, starting from a fixed-seed PCG64 block, grow an
    orthonormal basis Q of the Krylov space. Each new product sym @ Q_last is
    orthogonalized against all of Q twice, and the coefficients fill
    T = Q^T sym Q. After each block, Rayleigh-Ritz on T gives the k leading
    Ritz pairs. The loop stops once every Ritz residual ||r w_last|| is at
    most 1e-10 (r is the part of sym @ Q_last outside Q, w_last the last
    block of the Ritz vector in T's coordinates; the normalized cluster
    graph has spectral norm 1). If the basis would first outgrow the matrix,
    or (4 k n^3)^(1/4) columns, beyond which the Rayleigh-Ritz steps alone
    cost about one full eigh, the full eigh answers instead.

    Columns come in ascending eigenvalue order, as from eigh, but the basis
    of the leading subspace is another one: the transfer cut only needs the
    subspace, since its row-normalized embedding is seen through row norms
    and distances alone. Deterministic: the same input gives the same bytes.
    """
    n = sym.shape[0]
    budget = min(n, (4 * k * n**3) ** 0.25)
    rng = np.random.Generator(np.random.PCG64(0))
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    basis = q
    t = np.zeros((0, 0))
    while True:
        y = sym @ q
        h = basis.T @ y
        r = y - basis @ h
        c = basis.T @ r
        r -= basis @ c
        h += c
        t = np.block([[t, h[:-k]], [h[:-k].T, h[-k:]]])
        _, w = np.linalg.eigh(t)
        w = w[:, -k:]
        if (np.linalg.norm(r @ w[-k:], axis=0) <= 1e-10).all():
            return basis @ w
        if basis.shape[1] + k > budget:
            return np.linalg.eigh(sym)[1][:, -k:]
        # where r is rank-deficient its QR invents columns that need not be
        # orthogonal to the basis; one more projection makes them so
        q, _ = np.linalg.qr(r)
        q, _ = np.linalg.qr(q - basis @ (basis.T @ q))
        basis = np.hstack([basis, q])


def _embedding(edges: _Edges, k: int) -> np.ndarray:
    """Row-normalized object embedding: the k leading eigenvectors of the
    normalized W_c, transferred to the objects through D_o^-1 B.

    The eigenvectors come from a full eigh while W_c has at most
    EIGH_MAX_CLUSTERS rows and from `_top_eigenvectors` beyond that."""
    share = edges.weights / edges.weights.sum(axis=1)[:, None]  # D_o^-1 B, one entry per edge
    w_c = _cluster_graph(edges, share)
    inv_sqrt = 1.0 / np.sqrt(w_c.sum(axis=1))
    w_c *= inv_sqrt[:, None]
    w_c *= inv_sqrt[None, :]
    sym = w_c + w_c.T
    del w_c
    sym /= 2
    if edges.n_clusters <= EIGH_MAX_CLUSTERS:
        vecs = np.linalg.eigh(sym)[1][:, -k:]
    else:
        vecs = _top_eigenvectors(sym, k)
    f_obj = _transfer(edges, share, vecs)
    norms = np.linalg.norm(f_obj, axis=1)
    norms[norms == 0] = 1.0
    return f_obj / norms[:, None]


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
    columns, weights, nc = edges
    n, m = columns.shape
    nodes = n + nc
    live = weights > 0
    cluster_weight = np.zeros(nc)
    cluster_weight[columns[live]] = weights[live]
    member_of = columns[live]
    objects = np.broadcast_to(np.arange(n)[:, None], (n, m))[live]
    members = objects[np.argsort(member_of, kind="stable")]
    starts = np.concatenate([[0], np.cumsum(np.bincount(member_of, minlength=nc))])

    deg = np.concatenate(
        [weights.sum(axis=1), np.bincount(columns.ravel(), weights=weights.ravel(), minlength=nc)]
    )
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
    Small graphs (k ** n_c within INDUCED_SEARCH_LIMIT) additionally search
    every cluster-side segment assignment exactly and keep whichever start
    refines to the lower cut. Deterministic for a fixed seed.

    The eigenpairs come from a full eigh on graphs of at most
    EIGH_MAX_CLUSTERS positive-weight clusters and from the block Lanczos of
    `_top_eigenvectors` on larger ones, which stops at Ritz residuals of
    1e-10. Both give the same leading subspace up to rounding, and the
    row-normalized embedding depends on that subspace alone, so the labels
    agree unless k-means meets a tie within rounding. At 1,020 clusters the
    Lanczos takes about 40 ms against 0.25 s for the eigh.

    Every step reads the N x M edges of `graph.cluster_ids` (see `_Edges`):
    object degrees and the embedding are M-term sums per object, W_c is
    filled by `_cluster_graph`, and the refinement is the block scan of
    `_refine_partition`. The spectral path therefore needs O(N M + n_c^2)
    memory and never builds the dense N x n_c affinity; only the exhaustive
    search on small graphs does.

    If the graph splits into more than k connected components, components are
    assigned greedily to k labels instead (largest k-1 kept apart, remainder
    pooled) and a PartitionWarning is issued. Raises ValueError if k is
    infeasible or some object has only zero-weight clusters.
    """
    n, nc = graph.n_objects, int((graph.weights > 0).sum())
    if not 2 <= k <= min(n, nc):
        raise ValueError(
            f"infeasible k: need 2 <= k <= min(objects={n}, clusters={nc}), got {k}"
        )
    _require_live_edges(graph.cluster_ids, graph.weights)
    components = _connected_components(graph)
    n_components = int(components.max()) + 1
    if n_components > k:
        warnings.warn(
            f"graph has {n_components} connected components but k={k}; "
            "assigning components greedily",
            PartitionWarning,
            stacklevel=2,
        )
        sizes = np.bincount(components)
        order = np.argsort(-sizes, kind="stable")
        mapping = np.full(n_components, k - 1, dtype=np.int64)
        mapping[order[: k - 1]] = np.arange(k - 1)
        labels = relabel_first_appearance(mapping[components])
        return ConsensusResult(labels=labels, k=k, method="tcut")

    edges = _edges(graph)
    raw = kmeans(_embedding(edges, k), k, seed=seed)
    refined, value = _refine_partition(edges, raw, k)
    if k**nc <= INDUCED_SEARCH_LIMIT:
        b = graph.affinity()
        induced = _best_induced_partition(b / b.max(), k)
        # a start that leaves a segment without objects has no finite cut value
        if induced is not None and np.bincount(induced, minlength=k).all():
            alt, alt_value = _refine_partition(edges, induced, k)
            if alt_value < value - 1e-12:
                refined = alt
    labels = relabel_first_appearance(refined)
    n_groups = int(labels.max()) + 1
    if n_groups < k:
        warnings.warn(
            f"only {n_groups} non-empty object segments for k={k}",
            PartitionWarning,
            stacklevel=2,
        )
    return ConsensusResult(labels=labels, k=k, method="tcut")


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
        return ConsensusResult(
            labels=np.zeros(view.n_objects, dtype=np.int64), k=1, method="lwgp"
        )
    if report is None:
        report = annotate_validity(view, theta)
    graph = build_lwbg(view, report)
    cut = tcut_partition(graph, k, seed=seed)
    return ConsensusResult(labels=cut.labels, k=k, method="lwgp")
