"""Bipartite graph construction and the transfer-cut partitioner."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from lwec import (
    BipartiteGraph,
    ExperimentConfig,
    LabelMatrix,
    PartitionWarning,
    ValidityReport,
    annotate_validity,
    build_ensemble_view,
    build_lwbg,
    draw_ensemble,
    generate_pool,
    lwea,
    lwgp,
    make_gaussian_blobs,
    tcut_partition,
)
from lwec.graphcut import _connected_components

import reference as ref
from conftest import label_arrays, random_label_array


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
        b = graph.affinity()
        for c, members in enumerate(worked_view.members()):
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
            scaled = BipartiteGraph(graph.cluster_ids, graph.weights * 2.0)
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
        # >= 20 random instances, N <= 10, M <= 2, checked against the exact
        # minimum normalized cut over all 2-partitions of the full node set
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 20:
            n = int(rng.integers(6, 11))
            m = int(rng.integers(1, 3))
            view = build_ensemble_view(
                LabelMatrix.from_array(random_label_array(rng, n, m, max_clusters=3))
            )
            graph = graph_from(view, theta=0.4)
            b = graph.affinity()
            result = tcut_partition(graph, 2, seed=int(rng.integers(1000)))
            achieved = ref.best_completion_ncut(b, result.labels, 2)
            optimum = ref.exhaustive_ncut_k2(b)
            assert achieved <= optimum * 1.05 + 1e-12
            checked += 1


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
        b = graph.affinity()
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
        graph = BipartiteGraph(view.cluster_ids, np.ones(view.n_clusters))
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
        graph = BipartiteGraph(view.cluster_ids, weights)
        assert np.array_equal(_connected_components(graph), ref.components_ref(arr[:, :2]))
        pair = BipartiteGraph(view.cluster_ids[:, :2], weights[:-1])
        assert np.array_equal(graph.affinity(), pair.affinity())


@pytest.fixture(scope="module")
def blob_view_m20():
    """200 blob points, a 20-member k-means pool, and all 20 members drawn."""
    x, _ = make_gaussian_blobs(200, [[0.0, 0.0], [9.0, 9.0], [18.0, 0.0]], spread=1.0, seed=1)
    pool = generate_pool(x, ExperimentConfig(pool_size=20, ensemble_size=20, seed=0))
    return build_ensemble_view(draw_ensemble(pool, 20, seed=3))


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

    def test_object_with_only_zero_weight_clusters_rejected(self, blob_view_m20):
        assert annotate_validity(blob_view_m20, 1e-9).eci.any()
        with pytest.raises(ValueError, match="theta=1e-09"):
            lwgp(blob_view_m20, 3, theta=1e-9, seed=0)

    def test_all_weights_zero_rejected(self):
        rng = np.random.default_rng(61)
        view = build_ensemble_view(LabelMatrix.from_array(random_label_array(rng, 300, 10)))
        assert not annotate_validity(view, 1e-300).eci.any()
        with pytest.raises(ValueError, match="theta=1e-300"):
            lwea(view, 3, theta=1e-300)
        with pytest.raises(ValueError, match="theta=1e-300"):
            lwgp(view, 3, theta=1e-300, seed=0)
