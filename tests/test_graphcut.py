"""Bipartite graph construction and the transfer-cut partitioner."""

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from lwec import (
    BipartiteGraph,
    LabelMatrix,
    PartitionWarning,
    ValidityReport,
    annotate_validity,
    build_ensemble_view,
    build_lwbg,
    lwea,
    lwgp,
    make_gaussian_blobs,
    tcut_partition,
)
from lwec import graphcut
from lwec.graphcut import _connected_components

import reference as ref
from conftest import blob_voronoi_view, cluster_members, label_arrays, random_label_array, repeated_rows


def graph_from(view, theta=0.5):
    return build_lwbg(view, annotate_validity(view, theta))


def blocks_view(sizes, copies):
    """M identical columns whose clusters are contiguous blocks of the given sizes."""
    col = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
    return build_ensemble_view(LabelMatrix.from_array(np.column_stack([col] * copies)))


class TestBuildLwbg:
    def test_edge_count_and_weights(self, worked_view):
        report = annotate_validity(worked_view, 0.5)
        graph = build_lwbg(worked_view, report)
        assert graph.cluster_ids.size == 16 * 3
        assert (graph.weights > 0).all() and (graph.weights <= 1).all()
        assert np.allclose(graph.weights[graph.cluster_ids], report.eci[worked_view.cluster_ids])

    def test_stable_trio_cluster_degree(self, worked_view):
        graph = graph_from(worked_view)
        trio = 1  # cluster id of column 0's second cluster
        incident = graph.weights[graph.cluster_ids[graph.cluster_ids == trio]]
        assert incident.size == 3
        assert np.allclose(incident, incident[0])
        assert incident[0] == 1.0  # zero uncertainty -> full reliability

    def test_membership_edges_only(self, worked_view):
        graph = graph_from(worked_view)
        b = ref.affinity_ref(graph)
        for c, members in enumerate(cluster_members(worked_view)):
            members = set(members.tolist())
            for obj in range(16):
                if obj in members:
                    assert b[obj, c] > 0
                else:
                    assert b[obj, c] == 0.0

    def test_dimension_mismatch_rejected(self, worked_view):
        bad = ValidityReport(np.zeros(2), np.ones(2), 1.0, 3)
        with pytest.raises(ValueError):
            build_lwbg(worked_view, bad)

    def test_random_ensembles_edge_invariants(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, 6))
            view = build_ensemble_view(
                LabelMatrix.from_array(random_label_array(rng, n, m))
            )
            graph = graph_from(view, theta=0.4)
            assert graph.cluster_ids.size == n * m
            assert (graph.weights > 0).all() and (graph.weights <= 1).all()
            report = annotate_validity(view, 0.4)
            assert np.array_equal(
                graph.weights[graph.cluster_ids], report.eci[view.cluster_ids]
            )


class TestTcutPartition:
    def test_two_disconnected_blocks_found_exactly(self):
        view = blocks_view([4, 5], copies=3)
        result = tcut_partition(graph_from(view), 2, seed=0)
        assert result.labels.tolist() == [0] * 4 + [1] * 5

    def test_repeated_clustering_recovered(self):
        sizes = [4, 3, 5]
        view = blocks_view(sizes, copies=4)
        result = tcut_partition(graph_from(view), 3, seed=1)
        assert result.labels.tolist() == [0] * 4 + [1] * 3 + [2] * 5

    def test_infeasible_k_rejected(self):
        view = blocks_view([3, 3], copies=1)  # two cluster nodes only
        graph = graph_from(view)
        with pytest.raises(ValueError, match="infeasible"):
            tcut_partition(graph, 3, seed=0)
        with pytest.raises(ValueError, match="infeasible"):
            tcut_partition(graph, 1, seed=0)

    def test_more_components_than_k_warns_and_pools(self):
        view = blocks_view([4, 3, 2], copies=2)
        graph = graph_from(view)
        with pytest.warns(PartitionWarning):
            result = tcut_partition(graph, 2, seed=0)
        # largest component kept apart, the two smaller ones pooled
        assert result.labels.tolist() == [0] * 4 + [1] * 5

    def test_scaling_weights_by_two_is_invariant(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            view = build_ensemble_view(
                LabelMatrix.from_array(random_label_array(rng, 14, 3))
            )
            graph = graph_from(view, theta=0.4)
            scaled = BipartiteGraph(graph.view, graph.weights * 2.0)
            a = tcut_partition(graph, 3, seed=trial)
            b = tcut_partition(scaled, 3, seed=trial)
            assert np.array_equal(a.labels, b.labels)

    def test_seed_determinism(self):
        rng = np.random.default_rng(23)
        view = build_ensemble_view(LabelMatrix.from_array(random_label_array(rng, 20, 4)))
        graph = graph_from(view)
        a = tcut_partition(graph, 4, seed=99)
        b = tcut_partition(graph, 4, seed=99)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.filterwarnings("ignore::lwec.graphcut.PartitionWarning")
    def test_cut_quality_near_exhaustive_optimum_k2(self):
        # checked against the exact minimum normalized cut over all 2-partitions
        # of the full node set
        for graph, seed in k2_instances():
            b = ref.affinity_ref(graph)
            result = tcut_partition(graph, 2, seed=seed)
            achieved = ref.best_completion_ncut(b, result.labels, 2)
            optimum = ref.exhaustive_ncut_k2(b)
            assert achieved <= optimum * 1.05 + 1e-12

    def test_k2_oracle_equals_node_pair_products(self):
        # the block-product oracle against the full node-pair product it
        # replaced, on every 21st of the 420 k = 2 graphs; a zero optimum
        # (a disconnected graph) is rounding noise in both
        for graph, _ in itertools.islice(k2_instances(), 0, None, 21):
            b = ref.affinity_ref(graph)
            assert ref.exhaustive_ncut_k2(b) == pytest.approx(ref.exhaustive_ncut_k2_node_pairs_ref(b), rel=1e-12, abs=1e-15)

    def test_cut_quality_near_induced_optimum_k3(self):
        # 100 connected-enough graphs (N 6-12, M 1-3, 2-3 clusters per column,
        # >= 3 positive-weight clusters, <= 3 components), all small enough for
        # the sweep starts, against the best cluster-induced 3-way cut
        rng = np.random.default_rng(7)
        achieved, optimum = [], []
        while len(optimum) < 100:
            n, m = int(rng.integers(6, 13)), int(rng.integers(1, 4))
            view = build_ensemble_view(
                LabelMatrix.from_array(random_label_array(rng, n, m, max_clusters=3))
            )
            graph = graph_from(view, theta=0.4)
            if (graph.weights > 0).sum() < 3 or _connected_components(graph).max() >= 3:
                continue
            b = ref.affinity_ref(graph)
            achieved.append(ref.best_completion_ncut(b, tcut_partition(graph, 3, seed=0).labels, 3))
            optimum.append(ref.induced_partition_optimum(b, 3))
        achieved, optimum = np.array(achieved), np.array(optimum)
        assert (achieved > optimum * 1.05 + 1e-12).sum() <= 2
        assert (achieved <= optimum * 1.10 + 1e-12).all()


def test_assignment_oracles_equal_scoring_each_assignment():
    # the oracles score cluster assignments in blocks; one by one they are these loops
    rng = np.random.default_rng(13)
    for _ in range(12):
        n, m = int(rng.integers(4, 9)), int(rng.integers(1, 3))
        view = build_ensemble_view(LabelMatrix.from_array(random_label_array(rng, n, m, max_clusters=3)))
        b = ref.affinity_ref(graph_from(view, theta=0.4))
        nc = b.shape[1]
        for k in (2, 3):
            obj_labels = rng.integers(0, k, size=n)
            induced, completion = np.inf, np.inf
            for assignment in itertools.product(range(k), repeat=nc):
                zc = np.zeros((nc, k))
                zc[np.arange(nc), assignment] = 1.0
                cl_labels = np.asarray(assignment)
                induced = min(induced, ref.ncut_value(b, (b @ zc).argmax(axis=1), cl_labels, k))
                completion = min(completion, ref.ncut_value(b, obj_labels, cl_labels, k))
            assert ref.induced_partition_optimum(b, k) == induced
            assert ref.best_completion_ncut(b, obj_labels, k) == completion


def k2_instances():
    """(graph, tcut seed) pairs: 20 graphs with N <= 10 and M <= 2 under drawn
    seeds, then a corpus of 400 graphs of at most 22 nodes (N 6-12, M 1-3,
    2-5 clusters per column, theta 0.4) under seed 0."""
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(6, 11))
        m = int(rng.integers(1, 3))
        view = build_ensemble_view(
            LabelMatrix.from_array(random_label_array(rng, n, m, max_clusters=3))
        )
        yield graph_from(view, theta=0.4), int(rng.integers(1000))
    rng = np.random.default_rng(5)
    kept = 0
    while kept < 400:
        n, m = int(rng.integers(6, 13)), int(rng.integers(1, 4))
        view = build_ensemble_view(LabelMatrix.from_array(random_label_array(rng, n, m)))
        graph = graph_from(view, theta=0.4)
        if n + (graph.weights > 0).sum() <= 22:
            kept += 1
            yield graph, 0


class TestLwgp:
    def test_k_one_short_circuit(self, worked_view):
        result = lwgp(worked_view, 1)
        assert result.labels.tolist() == [0] * 16
        assert result.method == "lwgp"

    def test_large_theta_matches_unit_weight_graph(self):
        view = blocks_view([5, 4, 6], copies=3)
        unit = ValidityReport(
            uncertainty=np.zeros(view.n_clusters),
            eci=np.ones(view.n_clusters),
            theta=1.0,
            ensemble_size=3,
        )
        unweighted = tcut_partition(build_lwbg(view, unit), 3, seed=7)
        weighted = lwgp(view, 3, theta=1e9, seed=7)
        assert np.array_equal(unweighted.labels, weighted.labels)

    def test_worked_example_cut_near_induced_optimum(self, worked_view):
        report = annotate_validity(worked_view, 0.5)
        graph = build_lwbg(worked_view, report)
        result = lwgp(worked_view, 3, theta=0.5, seed=0)
        b = ref.affinity_ref(graph)
        achieved = ref.best_completion_ncut(b, result.labels, 3)
        optimum = ref.induced_partition_optimum(b, 3)
        assert achieved <= optimum * 1.05 + 1e-12

    def test_composition_matches_stepwise(self):
        rng = np.random.default_rng(37)
        view = build_ensemble_view(LabelMatrix.from_array(random_label_array(rng, 15, 3)))
        report = annotate_validity(view, 0.6)
        stepwise = tcut_partition(build_lwbg(view, report), 3, seed=5)
        composed = lwgp(view, 3, theta=0.6, seed=5)
        assert np.array_equal(stepwise.labels, composed.labels)


class TestConnectedComponents:
    @given(label_arrays(max_n=12, max_m=3))
    @settings(max_examples=80)
    def test_matches_bfs_oracle(self, arr):
        m = LabelMatrix.from_array(arr)
        view = build_ensemble_view(m)
        graph = BipartiteGraph(view, np.ones(view.n_clusters))
        assert np.array_equal(_connected_components(graph), ref.components_ref(m.labels))

    def test_shuffled_two_column_chain_is_one_component(self):
        # column 0 pairs objects (0, 1), (2, 3), ...; column 1 pairs (1, 2),
        # (3, 4), ...: one path through all objects, in shuffled row order
        n = 2000
        idx = np.arange(n)
        arr = np.column_stack([idx // 2, (idx + 1) // 2])[np.random.default_rng(41).permutation(n)]
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        expected = ref.components_ref(view.labels.labels)
        assert expected.max() == 0
        assert np.array_equal(_connected_components(graph_from(view)), expected)

    def test_disconnected_blocks(self):
        view = blocks_view([4, 3, 2], copies=2)
        components = _connected_components(graph_from(view))
        assert components.tolist() == [0] * 4 + [1] * 3 + [2] * 2
        assert np.array_equal(components, ref.components_ref(view.labels.labels))

    def test_zero_weight_cluster_joins_nothing(self):
        # a third column puts every object in one cluster; at weight 0 that
        # cluster has no edges, so the blocks of the first two stay apart
        col = np.repeat([0, 1, 2], [4, 3, 2])
        arr = np.column_stack([col, col, np.zeros(9, dtype=int)])
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        weights = np.ones(view.n_clusters)
        weights[-1] = 0.0
        graph = BipartiteGraph(view, weights)
        assert np.array_equal(_connected_components(graph), ref.components_ref(arr[:, :2]))
        pair = BipartiteGraph(build_ensemble_view(LabelMatrix.from_array(arr[:, :2])), weights[:-1])
        assert np.array_equal(ref.affinity_ref(graph), ref.affinity_ref(pair))


class TestZeroWeights:
    def test_some_underflowing_weights_give_clean_labels(self, blob_view_m20):
        eci = annotate_validity(blob_view_m20, 1e-3).eci
        assert 0 < (eci == 0).sum() < eci.size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph_labels = lwgp(blob_view_m20, 3, theta=1e-3, seed=0).labels
            tree_labels = lwea(blob_view_m20, 3, theta=1e-3).labels
        assert np.unique(graph_labels).size == 3
        assert np.unique(tree_labels).size == 3

    @pytest.mark.parametrize("method", ["lwea", "lwgp"])
    def test_object_with_only_zero_weight_clusters_rejected(self, blob_view_m20, method):
        assert annotate_validity(blob_view_m20, 1e-9).eci.any()
        consensus = {"lwea": lwea, "lwgp": lambda view, k, theta: lwgp(view, k, theta=theta, seed=0)}[method]
        with pytest.raises(ValueError, match=r"194 objects \(first 0\) have only zero-weight clusters at theta=1e-09"):
            consensus(blob_view_m20, 3, theta=1e-9)

    def test_all_weights_zero_rejected(self):
        rng = np.random.default_rng(61)
        view = build_ensemble_view(LabelMatrix.from_array(random_label_array(rng, 300, 10)))
        assert not annotate_validity(view, 1e-300).eci.any()
        with pytest.raises(ValueError, match="theta=1e-300"):
            lwea(view, 3, theta=1e-300)
        with pytest.raises(ValueError, match="theta=1e-300"):
            lwgp(view, 3, theta=1e-300, seed=0)


def exact_label_array(rng, n, clusters_per_column):
    """n x M labels whose column m has exactly clusters_per_column[m] non-empty clusters."""
    return np.column_stack(
        [rng.permutation(np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)]))
         for c in clusters_per_column]
    )


def weighted_graph(rng, nodes, clusters_per_column, choices=None):
    """A graph with N + (positive-weight clusters) == nodes over random labels.

    Cluster weights are drawn from `choices`, or uniformly from [0.05, 1) if
    None; only the first column's clusters may weigh 0, so every object keeps
    an edge.
    """
    n_c, first = sum(clusters_per_column), clusters_per_column[0]
    weights = rng.uniform(0.05, 1.0, n_c) if choices is None else rng.choice(choices, n_c)
    weights[first:] = np.where(weights[first:] > 0, weights[first:], 1.0)
    arr = exact_label_array(rng, nodes - int((weights > 0).sum()), clusters_per_column)
    view = build_ensemble_view(LabelMatrix.from_array(arr))
    return BipartiteGraph(view, weights)


def scaled_affinity(graph):
    b = ref.affinity_ref(graph)
    return b / b.max()


def spread_sizes(total, widest=32):
    """Cluster counts of ceil(total / widest) columns, within one of each
    other, adding up to total."""
    m = -(-total // widest)
    return [total // m + (i < total % m) for i in range(m)]


def normalized_cluster_graph(graph):
    """D_c^-1/2 W_c D_c^-1/2 from the dense affinity, W_c = B^T D_o^-1 B."""
    b = scaled_affinity(graph)
    w_c = b.T @ (b / b.sum(axis=1)[:, None])
    inv_sqrt = 1.0 / np.sqrt(w_c.sum(axis=1))
    return (w_c + w_c.T) / 2 * inv_sqrt[:, None] * inv_sqrt[None, :]


def subspace_gap(v, u):
    """||V V^T U - U||: how far the columns of U reach outside span(V)."""
    return np.linalg.norm(v @ (v.T @ u) - u)


def full_eigh_calls(monkeypatch, n):
    """Record every np.linalg.eigh call on an n x n matrix."""
    calls = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        if a.shape == (n, n):
            calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


class TestRefineBlockScan:
    """The block scan must make exactly the moves of the node-by-node loop."""

    COLUMNS = (4, 3, 5)  # clusters per column; the first column's may weigh 0

    def node_counts(self):
        block = graphcut.REFINE_BLOCK
        return (block - 1, block, block + 1, 2 * block + 1)

    def check(self, graph, labels, k, max_passes, exact):
        edges = graphcut._edges(graph)
        got_labels, got_value = graphcut._refine_partition(edges, labels, k, max_passes)
        b = scaled_affinity(graph)
        want_labels, want_value = ref.refine_partition_loop_ref(b, labels, k, max_passes)
        assert np.array_equal(got_labels, want_labels)
        if exact:
            assert got_value == want_value
        else:
            assert got_value == pytest.approx(want_value, rel=0, abs=1e-12)

    @pytest.mark.parametrize("max_passes", [1, 2, 100])
    def test_dyadic_weights_exact(self, max_passes):
        # sums of 0.25 / 0.5 / 1 are exact in any order, so ties stay ties and
        # the cut value must come out bit for bit
        rng = np.random.default_rng(71 + max_passes)
        for nodes in self.node_counts():
            for k in (2, 3, 4):
                graph = weighted_graph(rng, nodes, self.COLUMNS, [0.0, 0.25, 0.5, 1.0])
                labels = rng.integers(0, k, size=graph.n_objects)
                self.check(graph, labels, k, max_passes, exact=True)

    @pytest.mark.parametrize("max_passes", [1, 2, 100])
    def test_real_weights_within_1e12(self, max_passes):
        rng = np.random.default_rng(83 + max_passes)
        for nodes in self.node_counts():
            for k in (2, 3, 5):
                graph = weighted_graph(rng, nodes, self.COLUMNS)
                while True:
                    # the loop starts each cluster from a BLAS product that
                    # may round two equal sums apart, so no cluster may split
                    # evenly between its two largest segments
                    labels = rng.integers(0, k, size=graph.n_objects)
                    counts = np.zeros((graph.n_clusters, k))
                    np.add.at(counts, (graph.cluster_ids, labels[:, None]), 1)
                    top = np.sort(counts, axis=1)
                    if (top[:, -1] > top[:, -2]).all():
                        break
                self.check(graph, labels, k, max_passes, exact=False)

    def test_duplicate_rows_unit_weights_exact(self):
        # duplicate rows and unit weights tie almost every gain
        rng = np.random.default_rng(97)
        for trial in range(20):
            rows = exact_label_array(rng, 30, (3, 3, 2, 4))
            arr = rows[rng.integers(0, 30, size=graphcut.REFINE_BLOCK + 20)]
            view = build_ensemble_view(LabelMatrix.from_array(arr))
            graph = BipartiteGraph(view, np.ones(view.n_clusters))
            k = int(rng.integers(2, 5))
            labels = arr[:, trial % 4] % k
            labels[:k] = np.arange(k)  # every segment starts non-empty, as after k-means
            self.check(graph, labels, k, 100, exact=True)


class TestSparseSpectral:
    """W_c, degrees and the transferred embedding equal the dense formulas."""

    def graphs(self):
        rng = np.random.default_rng(101)
        for trial in range(12):
            arr = random_label_array(rng, 60, 5, max_clusters=7)
            view = build_ensemble_view(LabelMatrix.from_array(arr))
            weights = rng.uniform(0.05, 1.0, view.n_clusters)
            weights[rng.random(view.n_clusters) < 0.2] = 0.0
            spared = 0
            if trial % 3 == 0:  # one ensemble column whose clusters all weigh 0
                column = int(rng.integers(view.n_clusterings))
                weights[view.column_offsets[column]:view.column_offsets[column + 1]] = 0.0
                spared = (column + 1) % view.n_clusterings
            isolated = ~(weights > 0)[view.cluster_ids].any(axis=1)
            weights[view.cluster_ids[isolated, spared]] = 0.5
            yield BipartiteGraph(view, weights)

    def test_matches_dense_formulas(self):
        rng = np.random.default_rng(103)
        dead_columns, repeats = 0, set()
        for graph in self.graphs():
            dead_columns += (~(graph.weights[graph.cluster_ids] > 0).any(axis=0)).sum()
            b = scaled_affinity(graph)
            edges = graphcut._edges(graph)
            assert edges.n_clusters == b.shape[1]
            deg_obj = edges.weights.sum(axis=1)
            assert np.allclose(deg_obj, b.sum(axis=1), rtol=1e-12, atol=0)
            share = edges.weights / deg_obj[:, None]
            w_c = graphcut._cluster_graph(edges)
            dense_share = b / b.sum(axis=1)[:, None]
            dense_w_c = b.T @ dense_share
            assert np.allclose(w_c, dense_w_c, rtol=1e-12, atol=0)
            assert np.allclose(w_c.sum(axis=1), dense_w_c.sum(axis=1), rtol=1e-12, atol=0)
            f_cluster = rng.standard_normal((b.shape[1], 3))
            f_obj = graphcut._transfer(edges, share, f_cluster)[edges.row]
            assert np.allclose(f_obj, dense_share @ f_cluster, rtol=1e-12, atol=1e-15)
            repeats.add(assert_cluster_graph_bits(graph, edges, share, w_c))
        assert dead_columns > 0
        assert repeats == {False, True}

    @pytest.mark.parametrize(
        "n, ks, seed, noise",
        [
            (1000, np.rint(np.linspace(2, 32, 60)).astype(int), 10, 0.1),  # the wide-noisy family
            (10_000, np.rint(np.linspace(2, 100, 10)).astype(int), 1, 0.0),  # the lwgp-large family
        ],
        ids=["wide", "lwgp-large"],
    )
    def test_cluster_graph_keeps_the_loop_bits(self, n, ks, seed, noise):
        graph = graph_from(blob_voronoi_view(n, ks, seed, noise), 0.4)
        edges = graphcut._edges(graph)
        share = edges.weights / edges.degrees[:n, None]
        # no row repeats in the wide family; 76% of lwgp-large's objects repeat one
        assert assert_cluster_graph_bits(graph, edges, share, graphcut._cluster_graph(edges)) == (noise == 0)


def assert_cluster_graph_bits(graph, edges, share, w_c):
    """W_c has the bits of the row loop, and those of the object loop where
    no label row repeats; where rows repeat it is within 1e-14 relative of
    the object loop. Returns whether rows repeat."""
    assert np.array_equal(w_c, ref.cluster_graph_rows_ref(edges, share, graph.view.labels.labels))
    loop = ref.cluster_graph_loop_ref(edges, share)
    if edges.first.size == graph.n_objects:
        assert np.array_equal(w_c, loop)
        return False
    assert (np.abs(w_c - loop) <= 1e-14 * loop).all()
    return True


def live_labels(graph):
    """The graph's cluster ids with each edge into a zero-weight cluster
    replaced by a label of its own: the label matrix `components_ref` joins
    as the graph's live edges do."""
    n, m = graph.cluster_ids.shape
    own = graph.n_clusters + np.arange(n * m).reshape(n, m)
    return np.where(graph.weights[graph.cluster_ids] > 0, graph.cluster_ids, own)


class TestRepeatedRows:
    """The passes that run once per distinct label row (components, the
    live-edge check, the transfer, the refinement's member lists) equal the
    per-object oracles bit for bit where most rows repeat, and on graphs
    with zero-weight clusters and columns."""

    def graphs(self):
        rng = np.random.default_rng(131)
        for seed in (17, 18):
            view = build_ensemble_view(LabelMatrix.from_array(repeated_rows(seed)))
            yield BipartiteGraph(view, np.ones(view.n_clusters))
            weights = rng.uniform(0.05, 1.0, view.n_clusters)
            weights[view.column_offsets[1]:view.column_offsets[2]] = 0.0  # one dead column
            weights[view.column_offsets[3]] = 0.0
            yield BipartiteGraph(view, weights)
        # three blocks of rows that share no label: three components
        rows = rng.integers(0, 2, size=(30, 5)) + 2 * (np.arange(30) % 3)[:, None]
        view = build_ensemble_view(LabelMatrix.from_array(rows[rng.integers(0, 30, size=2000)]))
        yield BipartiteGraph(view, rng.uniform(0.05, 1.0, view.n_clusters))
        yield from TestSparseSpectral().graphs()

    def test_passes_equal_the_per_object_oracles(self):
        rng = np.random.default_rng(137)
        components = set()
        for graph in self.graphs():
            got = _connected_components(graph)
            assert np.array_equal(got, ref.components_ref(live_labels(graph)))
            components.add(int(got.max()) + 1)
            edges = graphcut._edges(graph)
            share = edges.weights / edges.degrees[: graph.n_objects, None]
            f_cluster = rng.standard_normal((edges.n_clusters, 3))
            want = ref.transfer_objects_ref(edges, share, f_cluster)
            assert np.array_equal(graphcut._transfer(edges, share, f_cluster)[edges.row], want)
        assert {1, 3} <= components

    def test_isolated_objects_are_counted_through_their_rows(self):
        view = build_ensemble_view(LabelMatrix.from_array(repeated_rows(17)))
        ids = view.cluster_ids
        weights = np.ones(view.n_clusters)
        weights[ids[1000]] = 0.0  # every cluster of object 1000's row weighs 0
        isolated = np.flatnonzero((ids == ids[1000]).all(axis=1))
        assert 1 < isolated.size < 1000 < isolated[-1]
        with pytest.raises(ValueError, match=rf"^{isolated.size} objects \(first {isolated[0]}\)"):
            tcut_partition(BipartiteGraph(view, weights), 3)

    def test_refinement_with_wide_cluster_ids(self):
        # n_c = 300 > 255 and repeated rows: a moved cluster finds its members through the rows
        rng = np.random.default_rng(139)
        rows = exact_label_array(rng, 300, (100, 100, 100))
        arr = np.vstack([rows, rows[rng.integers(0, 300, size=200)]])
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        graph = BipartiteGraph(view, rng.choice([0.25, 0.5, 1.0], view.n_clusters))
        assert np.min_scalar_type(graph.n_clusters) == np.uint16
        labels = rng.integers(0, 3, size=graph.n_objects)
        TestRefineBlockScan().check(graph, labels, 3, 100, exact=True)


class TestTopEigenvectors:
    """The block Lanczos finds eigh's leading eigenpairs, and the transfer cut
    built on them gives eigh's labels."""

    @pytest.fixture
    def lanczos(self, monkeypatch):
        """Send every matrix, however small, to the block Lanczos."""
        monkeypatch.setattr(graphcut, "EIGH_MAX_CLUSTERS", 0)

    @staticmethod
    def check(sym, pairs, top, k):
        """`top` pairs, orthonormal, with the values of eigh's tail, whose last
        k vectors span eigh's leading k-dimensional subspace."""
        values, vectors = pairs
        expected_values, expected = np.linalg.eigh(sym)
        assert values.shape == (top,) and vectors.shape == (sym.shape[0], top)
        assert np.abs(vectors.T @ vectors - np.eye(top)).max() <= 1e-12
        assert np.abs(values - expected_values[-top:]).max() <= 1e-10
        assert subspace_gap(vectors[:, -k:], expected[:, -k:]) <= 1e-8

    @pytest.mark.parametrize(
        "n, ks, noise",
        [
            (200, np.rint(np.linspace(2, 15, 10)).astype(int), 0.0),  # n_c = 85
            (1000, np.rint(np.linspace(2, 32, 30)).astype(int), 0.1),  # n_c = 510
            (1500, np.rint(np.linspace(2, 39, 40)).astype(int), 0.0),  # n_c = 820
        ],
    )
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_matches_eigh_subspace(self, lanczos, n, ks, noise, k):
        # _tcuts asks for k + 1 pairs: the sweep starts read one more axis
        sym = normalized_cluster_graph(graph_from(blob_voronoi_view(n, ks, 3, noise), 0.4))
        self.check(sym, graphcut._top_eigenvectors(sym, k + 1), k + 1, k)

    @pytest.mark.parametrize("columns", [8, 30])  # n_c 2 x 96 and 2 x 360
    def test_two_components_double_eigenvalue_one(self, lanczos, columns):
        ks = np.rint(np.linspace(2, 22, columns)).astype(int)
        halves = [blob_voronoi_view(500, ks, seed, 0.1).labels.labels for seed in (5, 6)]
        arr = np.vstack([halves[0], halves[1] + halves[0].max(axis=0) + 1])
        graph = graph_from(build_ensemble_view(LabelMatrix.from_array(arr)), 0.4)
        assert _connected_components(graph).max() == 1
        sym = normalized_cluster_graph(graph)
        values = np.linalg.eigh(sym)[0]
        assert np.allclose(values[-2:], 1.0) and values[-3] < 1.0 - 1e-3
        self.check(sym, graphcut._top_eigenvectors(sym, 3), 3, 3)

    @pytest.mark.parametrize("size", [20, 250])  # n 60 and 750
    def test_invariant_krylov_space_converges_without_eigh(self, monkeypatch, lanczos, size):
        # three equal blocks with all entries 1/size: eigenvalues 1 (three
        # times) and 0, so two blocks of three span an invariant space
        sym = np.kron(np.eye(3), np.full((size, size), 1.0 / size))
        calls = full_eigh_calls(monkeypatch, sym.shape[0])
        values, v = graphcut._top_eigenvectors(sym, 3)
        assert calls == []
        assert np.isfinite(v).all()
        assert np.abs(values - 1.0).max() <= 1e-12
        assert np.abs(sym @ v - v).max() <= 1e-12
        indicators = np.kron(np.eye(3), np.ones((size, 1))) / np.sqrt(size)
        assert subspace_gap(v, indicators) <= 1e-12

    def test_rank_deficient_block(self, monkeypatch, lanczos):
        # eigenvalues 1, 0.9, 0.8, 0.7, 0.6 and 0.3 (55 times): with blocks of
        # four the Krylov space spans 4, 8, then 9 dimensions, so the third
        # block adds one direction and its QR invents three
        rng = np.random.default_rng(109)
        u, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        values = np.concatenate([[1.0, 0.9, 0.8, 0.7, 0.6], np.full(55, 0.3)])
        sym = (u * values) @ u.T
        sym = (sym + sym.T) / 2
        calls = full_eigh_calls(monkeypatch, 60)
        pairs = graphcut._top_eigenvectors(sym, 4)
        assert calls == []
        self.check(sym, pairs, 4, 4)
        assert subspace_gap(pairs[1], u[:, :4]) <= 1e-8

    @pytest.mark.parametrize("offset", [0, 1])
    def test_threshold_sizes(self, monkeypatch, offset):
        n_c = graphcut.EIGH_MAX_CLUSTERS + offset
        graph = graph_from(blob_voronoi_view(1000, spread_sizes(n_c), 8), 0.4)
        assert int((graph.weights > 0).sum()) == n_c
        sym = normalized_cluster_graph(graph)
        self.check(sym, graphcut._top_eigenvectors(sym, 4), 4, 3)
        # at most EIGH_MAX_CLUSTERS clusters take the full eigh, more the Lanczos
        calls = full_eigh_calls(monkeypatch, n_c)
        tcut_partition(graph, 3, seed=0)
        assert calls == [(n_c, n_c)] * (1 - offset)

    def test_deterministic_bytes(self):
        ks = np.rint(np.linspace(2, 39, 40)).astype(int)
        sym = normalized_cluster_graph(graph_from(blob_voronoi_view(1500, ks, 4), 0.4))
        assert sym.shape[0] > graphcut.EIGH_MAX_CLUSTERS
        values, vectors = graphcut._top_eigenvectors(sym, 4)
        again = graphcut._top_eigenvectors(sym.copy(), 4)
        assert again[0].tobytes() == values.tobytes() and again[1].tobytes() == vectors.tobytes()

    def test_wide_noisy_labels_match_full_eigh(self, monkeypatch):
        # the benchmark's wide-noisy family: N = 1,000, M = 60 columns of
        # 2..32 clusters, 10% label noise
        ks = np.rint(np.linspace(2, 32, 60)).astype(int)
        view = blob_voronoi_view(1000, ks, 10, noise=0.1)
        assert view.n_clusters == 1020 > graphcut.EIGH_MAX_CLUSTERS
        graph = graph_from(view, 0.4)
        labels = {k: tcut_partition(graph, k, seed=0).labels for k in (2, 3, 5)}
        monkeypatch.setattr(graphcut, "EIGH_MAX_CLUSTERS", view.n_clusters)
        for k, got in labels.items():
            assert np.array_equal(got, tcut_partition(graph, k, seed=0).labels)

    def test_lwgp_large_labels_match_full_eigh(self, monkeypatch):
        # the benchmark's lwgp-large family: N = 10,000, M = 10 columns of
        # 2..100 clusters
        view = blob_voronoi_view(10_000, np.rint(np.linspace(2, 100, 10)).astype(int), 1)
        assert view.n_clusters == 510 > graphcut.EIGH_MAX_CLUSTERS
        graph = graph_from(view, 0.4)
        labels = {k: tcut_partition(graph, k, seed=0).labels for k in (2, 3, 5)}
        monkeypatch.setattr(graphcut, "EIGH_MAX_CLUSTERS", view.n_clusters)
        for k, got in labels.items():
            assert np.array_equal(got, tcut_partition(graph, k, seed=0).labels)


# lwgp labels of blob_view_m20 (seed 0) by (theta, k), recorded with the
# dense-affinity transfer cut; k = 5 at theta = 1.0 differs in object 97
GOLDEN_K2 = (
    "0111110101100101111001110110110111101100101111100101101011101111101111111011110001011110100001"
    "1010110111001111101110110111011001010101101110010011111111001110111111111010010011111101110110"
    "111101001101"
)
GOLDEN_K3 = (
    "0122210101100102221002210210110112202100102222100101201022201221201211212022110002022220200001"
    "2010210121001111201110210221012001020102101120020022111222001120122211221010020012211102110220"
    "122102001102"
)
GOLDEN_K5 = (
    "0122310101104102321002214314114112342104143322100101301423301331341211313032110442022220244001"
    "2010210121401111301110210331413401034102141124034033111322001120132311231410020013311142110220"
    "122103001103"
)
GOLDEN_K5_THETA_1 = (
    "0122310101104102321002214314114112342104143322100101301423301331341211313032110442022220244001"
    "2014210121401111301110210331413401034102141124034033111322001120132311231410020013311142110220"
    "122103001103"
)
GOLDEN = {
    **{(theta, 2): GOLDEN_K2 for theta in (0.2, 0.4, 1.0)},
    **{(theta, 3): GOLDEN_K3 for theta in (0.2, 0.4, 1.0)},
    (0.2, 5): GOLDEN_K5,
    (0.4, 5): GOLDEN_K5,
    (1.0, 5): GOLDEN_K5_THETA_1,
}


@pytest.mark.parametrize("theta, k", sorted(GOLDEN))
def test_golden_lwgp_labels(blob_view_m20, theta, k):
    labels = lwgp(blob_view_m20, k, theta=theta, seed=0).labels
    assert "".join(map(str, labels)) == GOLDEN[theta, k]


def test_isolated_object_rejected_by_tcut():
    # object 2 has only clusters 2 and 6, both of weight 0
    ids = np.array([[0, 4], [1, 5], [2, 6], [3, 7], [0, 5], [1, 4], [3, 7], [0, 4]])
    view = build_ensemble_view(LabelMatrix.from_array(ids - [0, 4]))
    assert np.array_equal(view.cluster_ids, ids)
    weights = np.ones(8)
    weights[[2, 6]] = 0.0
    graph = BipartiteGraph(view, weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"1 objects \(first 2\) have only zero-weight"):
            tcut_partition(graph, 3, seed=0)


def test_short_weights_rejected():
    # one weight per cluster of the view, named here, not by a numpy
    # broadcast deep inside the cut: short, long and 2-D vectors fail
    view = build_ensemble_view(LabelMatrix.from_array(np.random.default_rng(0).integers(0, 4, size=(60, 3))))
    n_c = view.n_clusters
    for shape in [(n_c - 1,), (n_c + 1,), (n_c, 1)]:
        with pytest.raises(ValueError, match=rf"^view has {n_c} clusters, got weights of shape {re.escape(str(shape))}$"):
            BipartiteGraph(view, np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_bad_weight_rejected(bad):
    # a NaN weight was cut as 0, an infinite one failed in eigh, a negative
    # one dropped its cluster
    view = build_ensemble_view(LabelMatrix.from_array(np.random.default_rng(0).integers(0, 3, size=(40, 4))))
    weights = annotate_validity(view, 0.4).eci.copy()
    weights[2] = bad
    with pytest.raises(ValueError, match=r"^weights must be finite and >= 0$"):
        BipartiteGraph(view, weights)


def test_spectral_path_builds_no_dense_affinity():
    # N = 10,000 blob points and M = 10 Voronoi columns of 2..100 clusters, as
    # in the lwgp-large benchmark: the dense N x n_c affinity alone is ~39 MiB
    rng = np.random.default_rng(107)
    centers = [[0.0, 0.0], [9.0, 9.0], [18.0, 0.0]]
    x, _ = make_gaussian_blobs(10_000, centers, spread=3.0, seed=7)
    columns = []
    for k in np.rint(np.linspace(2, 100, 10)).astype(int):
        sites = x[rng.choice(len(x), size=k, replace=False)]
        columns.append(((x[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2).argmin(axis=1))
    view = build_ensemble_view(LabelMatrix.from_array(np.column_stack(columns)))
    graph = graph_from(view, theta=0.4)
    assert _connected_components(graph).max() == 0  # the spectral path runs
    tracemalloc.start()
    try:
        tcut_partition(graph, 3, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < graph.n_objects * graph.n_clusters * 8 / 4


def gated_view():
    """40 objects, 2 columns of 2 labels: n_c = 4, inside the sweep-start gate at k = 3."""
    rng = np.random.default_rng(11)
    rng.integers(2, 4)
    rng.integers(2, 5)
    return build_ensemble_view(LabelMatrix.from_array(rng.integers(0, 2, size=(40, 2))))


def test_sweep_start_with_an_empty_segment_is_skipped(monkeypatch):
    # the first sweep start puts only cluster nodes in one of three segments;
    # refining that start would divide 0 by 0
    view = gated_view()
    starts = []
    sweep_starts = graphcut._sweep_starts
    monkeypatch.setattr(graphcut, "_sweep_starts", lambda *args: (starts.append(s) or s for s in sweep_starts(*args)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        labels = lwgp(view, 3, theta=0.4).labels
    assert any(np.bincount(start, minlength=3).min() == 0 for start in starts)
    # the labels of the unfixed code, run with warnings ignored
    expected = [0, 1, 0, 2, 1, 0, 0, 1, 1, 0, 2, 2, 0, 0, 2, 2, 2, 1, 1, 1,
                2, 2, 0, 0, 1, 0, 1, 1, 0, 0, 0, 2, 1, 2, 2, 1, 2, 1, 0, 0]
    assert labels.tolist() == expected


def test_one_spectrum_per_cut(monkeypatch):
    # the sweep starts reuse the eigenpairs of the spectral embedding: one
    # cluster graph and one n_c x n_c eigh per cut
    graph = graph_from(gated_view(), 0.4)
    assert 3 ** graph.n_clusters <= graphcut.SWEEP_START_LIMIT
    calls = full_eigh_calls(monkeypatch, graph.n_clusters)
    built = []
    cluster_graph = graphcut._cluster_graph
    monkeypatch.setattr(graphcut, "_cluster_graph", lambda *args: built.append(1) or cluster_graph(*args))
    tcut_partition(graph, 3, seed=0)
    assert len(calls) == len(built) == 1


@pytest.mark.parametrize("theta, k", [(0.4, 3), (0.2, 2), (1.0, 5)])
def test_full_eigh_embedding_matches_reference_bytes(monkeypatch, blob_view_m20, theta, k):
    # the embedding that the cut hands to k-means, one row per distinct label row, gathered to the objects
    embeddings = []
    lloyd = graphcut._lloyd
    monkeypatch.setattr(graphcut, "_lloyd", lambda x, k, seed, row: embeddings.append(x[row]) or lloyd(x, k, seed, row))
    for view in (gated_view(), blob_view_m20):
        graph = graph_from(view, theta)
        edges = graphcut._edges(graph)
        if edges.n_clusters < k:
            continue
        embeddings.clear()
        graphcut._tcuts(graph, [k])
        assert embeddings[0].tobytes() == ref.embedding_eigh_ref(edges, k).tobytes()


def test_lanczos_path_holds_one_cluster_graph():
    # the benchmark's wide-noisy family (n_c = 1,020): W_c is symmetrized in
    # place, so no second n_c x n_c array is alive at the peak
    ks = np.rint(np.linspace(2, 32, 60)).astype(int)
    graph = graph_from(blob_voronoi_view(1000, ks, 10, noise=0.1), 0.4)
    n_c = graph.n_clusters
    assert n_c > graphcut.EIGH_MAX_CLUSTERS
    tcut_partition(graph, 3, seed=0)
    tracemalloc.start()
    try:
        tcut_partition(graph, 3, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n_c * n_c * 8


def test_lwgp_large_call_peak_memory():
    # the lwgp-large family: 2,388 distinct label rows of N = 10,000, n_c = 510.
    # W_c, the embedding and the refinement's member lists come from the rows:
    # one call peaks at 5.97 MiB, against 7.01 MiB when they ran over the objects
    view = blob_voronoi_view(10_000, np.rint(np.linspace(2, 100, 10)).astype(int), 1)
    lwgp(view, 3, theta=0.4)  # the view keeps its rows and uncertainty table from here on
    tracemalloc.start()
    try:
        lwgp(view, 3, theta=0.4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * 2**20


def disconnected_blocks_view(blocks):
    """`blocks` groups of 30 objects that share no cluster: 2 columns of 3 labels per group."""
    rng = np.random.default_rng(29)
    arr = np.vstack([rng.integers(0, 3, size=(30, 2)) + 3 * b for b in range(blocks)])
    return build_ensemble_view(LabelMatrix.from_array(arr))


class TestSharedStage:
    """`_tcuts` builds one cluster graph and one spectral stage for all its
    k, and each k's labels are those of a cut at that k alone."""

    @staticmethod
    def cut(monkeypatch, graph, ks):
        """Cut every k of `ks` in one call and compare each k's labels with a
        cut at k alone. Returns the call's PartitionWarning messages and the
        cluster graphs, full eighs and `_top_eigenvectors` calls (by top) it made."""
        made = {"graphs": 0, "eighs": full_eigh_calls(monkeypatch, int(np.count_nonzero(graph.weights))), "tops": []}
        cluster_graph, top = graphcut._cluster_graph, graphcut._top_eigenvectors

        def counting(*args):
            made["graphs"] += 1
            return cluster_graph(*args)

        monkeypatch.setattr(graphcut, "_cluster_graph", counting)
        monkeypatch.setattr(graphcut, "_top_eigenvectors", lambda a, t: made["tops"].append(t) or top(a, t))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            labels = graphcut._tcuts(graph, ks, seed=3)
        monkeypatch.undo()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartitionWarning)
            for k, got in zip(ks, labels, strict=True):
                assert np.array_equal(got, graphcut._tcuts(graph, [k], seed=3)[0])
        return [str(w.message) for w in caught if issubclass(w.category, PartitionWarning)], made

    def test_eigh_path(self, monkeypatch, blob_view_m20):
        graph = graph_from(blob_view_m20, 0.4)
        assert graph.n_clusters <= graphcut.EIGH_MAX_CLUSTERS
        caught, made = self.cut(monkeypatch, graph, [5, 2, 8, 3, 5])
        assert made == {"graphs": 1, "eighs": [(graph.n_clusters,) * 2], "tops": [9]}
        assert caught == []

    def test_lanczos_path_runs_once(self, monkeypatch):
        # the wide-noisy family of test_wide_noisy_labels_match_full_eigh
        view = blob_voronoi_view(1000, np.rint(np.linspace(2, 32, 60)).astype(int), 10, noise=0.1)
        graph = graph_from(view, 0.4)
        assert graph.n_clusters > graphcut.EIGH_MAX_CLUSTERS
        caught, made = self.cut(monkeypatch, graph, [3, 2, 5])
        assert made == {"graphs": 1, "eighs": [], "tops": [6]}
        assert caught == []

    def test_sweep_start_graph(self, monkeypatch):
        graph = graph_from(gated_view(), 0.4)
        assert 4 ** graph.n_clusters <= graphcut.SWEEP_START_LIMIT
        _, made = self.cut(monkeypatch, graph, [3, 2, 4])
        assert made["graphs"] == len(made["eighs"]) == 1

    def test_more_components_than_the_smallest_k(self, monkeypatch):
        graph = graph_from(disconnected_blocks_view(4), 0.4)
        assert _connected_components(graph).max() == 3
        caught, made = self.cut(monkeypatch, graph, [2, 5, 3, 4])
        assert caught == [f"graph has 4 connected components but k={k}; assigning components greedily" for k in (2, 3)]
        assert made["graphs"] == len(made["eighs"]) == 1
        # every k below the component count: no spectral stage is built
        caught, made = self.cut(monkeypatch, graph, [3, 2])
        assert len(caught) == 2 and made["graphs"] == 0 and made["eighs"] == []
