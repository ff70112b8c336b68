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


@dataclass(frozen=True)
class BipartiteGraph:
    """Membership edges between N object nodes and n_c cluster nodes.

    Object i has one edge per base clustering, to cluster cluster_ids[i, m];
    every edge into cluster c weighs weights[c], the cluster's ECI. A cluster
    of weight 0 has no edges.
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


def build_lwbg(view: EnsembleView, report: ValidityReport) -> BipartiteGraph:
    """Build the reliability-weighted bipartite graph of an annotated ensemble.

    Raises ValueError if all of some object's cluster weights underflow to 0.
    """
    if len(report.eci) != view.n_clusters:
        raise ValueError(
            f"report covers {len(report.eci)} clusters, view has {view.n_clusters}"
        )
    isolated = np.flatnonzero(~(report.eci > 0)[view.cluster_ids].any(axis=1))
    if isolated.size:
        raise ValueError(
            f"at theta={report.theta:g}, {isolated.size} objects (first {isolated[0]}) "
            "have only zero-weight clusters; use a larger theta"
        )
    return BipartiteGraph(cluster_ids=view.cluster_ids, weights=report.eci)


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
    share of its edge weight; the best full-graph normalized cut wins.
    """
    nc = b.shape[1]
    if k**nc > INDUCED_SEARCH_LIMIT:
        return None
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


def _refine_partition(
    b: np.ndarray, labels: np.ndarray, k: int, max_passes: int = 100
) -> tuple[np.ndarray, float]:
    """Greedy single-node moves descending the normalized cut of the full graph.

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

    If the graph splits into more than k connected components, components are
    assigned greedily to k labels instead (largest k-1 kept apart, remainder
    pooled) and a PartitionWarning is issued.
    """
    n, nc = graph.n_objects, int((graph.weights > 0).sum())
    if not 2 <= k <= min(n, nc):
        raise ValueError(
            f"infeasible k: need 2 <= k <= min(objects={n}, clusters={nc}), got {k}"
        )
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

    b = graph.affinity()
    b = b / b.max()
    deg_obj = b.sum(axis=1)
    w_c = b.T @ (b / deg_obj[:, None])
    deg_c = w_c.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg_c)
    sym = inv_sqrt[:, None] * w_c * inv_sqrt[None, :]
    sym = (sym + sym.T) / 2
    _, vecs = np.linalg.eigh(sym)
    f_cluster = vecs[:, -k:]
    f_obj = (b / deg_obj[:, None]) @ f_cluster
    norms = np.linalg.norm(f_obj, axis=1)
    norms[norms == 0] = 1.0
    embedding = f_obj / norms[:, None]
    raw = kmeans(embedding, k, seed=seed)
    refined, value = _refine_partition(b, raw, k)
    induced = _best_induced_partition(b, k)
    if induced is not None:
        alt, alt_value = _refine_partition(b, induced, k)
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
