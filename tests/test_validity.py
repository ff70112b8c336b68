"""Cluster uncertainty and reliability-weight behavior, checked against naive oracles."""

import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from lwec import (
    LabelMatrix,
    annotate_validity,
    build_ensemble_view,
    eci,
    uncertainty_table,
)
from lwec.validity import write_validity_csv

import reference as ref
from conftest import WORKED_UNCERTAINTY, column_members, label_arrays, random_label_array


def cluster_sources(view) -> np.ndarray:
    """Source column of every pooled cluster, by cluster id."""
    return np.repeat(np.arange(view.n_clusterings), np.diff(view.column_offsets))


class TestUncertaintyWrtClustering:
    def test_worked_example_split_2_3_3(self, worked_view):
        big = worked_view.members()[0]
        assert big.size == 8
        assert uncertainty_table(worked_view)[0, 1] == pytest.approx(1.56, abs=0.01)

    def test_contained_cluster_is_zero(self, worked_view):
        table = uncertainty_table(worked_view)
        for col in range(3):
            assert table[1, col] == 0.0

    def test_uniform_four_way_split_is_two_bits(self):
        arr = np.column_stack([np.zeros(4, dtype=int), np.arange(4)])
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        assert uncertainty_table(view)[0, 1] == 2.0

    def test_own_column_exactly_zero(self):
        rng = np.random.default_rng(0)
        view = build_ensemble_view(LabelMatrix.from_array(random_label_array(rng, 12, 3)))
        table = uncertainty_table(view)
        for c, source in enumerate(cluster_sources(view)):
            assert table[c, source] == 0.0

    @given(label_arrays(max_n=8, max_m=3))
    @settings(max_examples=80)
    def test_bounded_by_log_cluster_count(self, arr):
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        counts = view.labels.clusters_per_column
        table = uncertainty_table(view)
        assert table.shape == (view.n_clusters, view.n_clusterings)
        for c in range(view.n_clusters):
            for col in range(view.n_clusterings):
                h = table[c, col]
                assert 0.0 <= h <= math.log2(counts[col]) + 1e-12

    @given(label_arrays(max_n=8, max_m=3))
    @settings(max_examples=80)
    def test_matches_contingency_oracle(self, arr):
        m = LabelMatrix.from_array(arr)
        view = build_ensemble_view(m)
        table = uncertainty_table(view)
        for c, members in enumerate(view.members()):
            for col in range(view.n_clusterings):
                expected = ref.cluster_uncertainty_ref(m.labels, members, col)
                assert table[c, col] == pytest.approx(expected, abs=1e-12)

    def test_exhaustive_tiny_ensembles(self):
        # every pair of set partitions of 4 objects, as a 2-column ensemble
        partitions = []
        for assignment in itertools.product(range(4), repeat=4):
            dense = []
            seen = {}
            for a in assignment:
                dense.append(seen.setdefault(a, len(seen)))
            if dense not in partitions:
                partitions.append(dense)
        assert len(partitions) == 15  # Bell(4)
        for p1, p2 in itertools.product(partitions, repeat=2):
            arr = np.column_stack([p1, p2])
            m = LabelMatrix.from_array(arr)
            view = build_ensemble_view(m)
            table = uncertainty_table(view)
            for c, members in enumerate(view.members()):
                for col in range(2):
                    expected = ref.cluster_uncertainty_ref(m.labels, members, col)
                    got = table[c, col]
                    assert abs(got - expected) <= 1e-12

    def test_relabel_invariance_of_target_column(self):
        rng = np.random.default_rng(3)
        arr = random_label_array(rng, 15, 2)
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        # permute the labels of column 1 (2 -> 0, 0 -> 1, 1 -> 2, ...)
        perm = rng.permutation(int(arr[:, 1].max()) + 1)
        relabeled = arr.copy()
        relabeled[:, 1] = perm[arr[:, 1]]
        view2 = build_ensemble_view(LabelMatrix.from_array(relabeled))
        table, table2 = uncertainty_table(view), uncertainty_table(view2)
        # column 0 is unchanged, so its clusters keep their ids
        for c in range(len(column_members(view, 0))):
            assert table[c, 1] == pytest.approx(table2[c, 1], abs=1e-12)


class TestUncertaintyTableBits:
    """One bincount per target column gives the pairwise loop's table bit for bit."""

    @given(label_arrays(max_n=30, max_m=6, max_clusters=6))
    @settings(max_examples=120)
    def test_equals_pairwise_loop(self, arr):
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        assert np.array_equal(uncertainty_table(view), ref.uncertainty_table_pairwise_ref(view))

    def test_equals_pairwise_loop_wide_noisy(self):
        # N = 1000, M = 60 columns of 2..32 clusters, 10% of labels redrawn
        rng = np.random.default_rng(113)
        truth = rng.integers(0, 3, size=1000)
        columns = []
        for k in np.rint(np.linspace(2, 32, 60)).astype(int):
            col = (truth + 3 * rng.integers(0, 4, size=1000)) % k
            noisy = rng.random(1000) < 0.1
            col[noisy] = rng.integers(0, k, size=noisy.sum())
            columns.append(col)
        arr = np.column_stack(columns)
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        assert view.n_clusterings == 60
        assert np.array_equal(uncertainty_table(view), ref.uncertainty_table_pairwise_ref(view))


class TestUncertaintyWrtEnsemble:
    # the ensemble uncertainty of cluster c is annotate_validity(...).uncertainty[c]

    def test_worked_example_sum(self, worked_view):
        total = annotate_validity(worked_view, 0.5).uncertainty
        assert total[0] == pytest.approx(2.56, abs=0.01)

    def test_stable_trio_zero(self, worked_view):
        assert annotate_validity(worked_view, 0.5).uncertainty[1] == 0.0

    def test_identical_columns_all_zero(self):
        col = np.array([0, 1, 2, 0, 1, 2, 0])
        view = build_ensemble_view(LabelMatrix.from_array(np.column_stack([col] * 4)))
        assert (annotate_validity(view, 0.5).uncertainty == 0.0).all()

    @given(label_arrays(max_n=8, max_m=3))
    @settings(max_examples=50)
    def test_additivity_term_by_term(self, arr):
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        totals = annotate_validity(view, 0.5).uncertainty
        table = uncertainty_table(view)
        for c in range(view.n_clusters):
            explicit = sum(table[c, col] for col in range(view.n_clusterings))
            assert totals[c] == pytest.approx(explicit, abs=1e-12)


class TestEci:
    def test_zero_uncertainty_is_one(self):
        for theta, m in [(0.1, 1), (0.5, 3), (10.0, 100)]:
            assert eci(0.0, theta, m) == 1.0

    def test_worked_values_match_high_precision_oracle(self):
        got = eci(2.56, 0.5, 3)
        assert got == pytest.approx(ref.eci_decimal(2.56, 0.5, 3), abs=1e-12)
        assert got == pytest.approx(0.1815, abs=5e-4)
        got = eci(0.72, 0.5, 3)
        assert got == pytest.approx(ref.eci_decimal(0.72, 0.5, 3), abs=1e-12)
        assert got == pytest.approx(0.6188, abs=5e-4)

    def test_grid_matches_high_precision_oracle(self):
        for h in (0.0, 0.1, 0.72, 1.0, 2.56, 5.0, 12.0):
            for theta in (0.2, 0.4, 0.5, 1.0, 8.0):
                for m in (1, 3, 10, 100):
                    assert eci(h, theta, m) == pytest.approx(
                        ref.eci_decimal(h, theta, m), abs=1e-12
                    )

    def test_monotone_decreasing_in_uncertainty(self):
        values = [eci(h, 0.4, 3) for h in np.linspace(0, 10, 25)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0 < v <= 1 for v in values)

    def test_large_theta_flattens_toward_one(self):
        rng = np.random.default_rng(8)
        view = build_ensemble_view(LabelMatrix.from_array(random_label_array(rng, 40, 5)))
        report = annotate_validity(view, theta=1e6)
        assert (report.eci > 0.999).all()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            eci(1.0, 0.0, 3)
        with pytest.raises(ValueError):
            eci(1.0, -0.5, 3)
        with pytest.raises(ValueError):
            eci(1.0, 0.4, 0)
        with pytest.raises(ValueError):
            eci(-0.1, 0.4, 3)


class TestAnnotateValidity:
    def test_worked_example_uncertainty_vector(self, worked_view):
        report = annotate_validity(worked_view, theta=0.5)
        assert report.uncertainty == pytest.approx(WORKED_UNCERTAINTY, abs=0.01)

    def test_matches_per_cluster_ops(self):
        rng = np.random.default_rng(11)
        view = build_ensemble_view(LabelMatrix.from_array(random_label_array(rng, 25, 4)))
        report = annotate_validity(view, theta=0.7)
        table = uncertainty_table(view)
        for c in range(view.n_clusters):
            assert report.uncertainty[c] == pytest.approx(table[c].sum(), abs=1e-12)
            assert report.eci[c] == pytest.approx(
                eci(report.uncertainty[c], 0.7, view.n_clusterings), abs=1e-12
            )

    def test_single_clustering_all_ones(self):
        view = build_ensemble_view(LabelMatrix.from_array(np.array([[0], [1], [0], [2]])))
        report = annotate_validity(view, theta=0.4)
        assert (report.uncertainty == 0.0).all()
        assert (report.eci == 1.0).all()

    def test_object_permutation_invariance(self):
        # dense ids are assigned by first appearance, so clusters are matched
        # by member set; each cluster's values must not depend on object order
        rng = np.random.default_rng(21)
        arr = random_label_array(rng, 18, 3)
        perm = rng.permutation(18)
        inverse = np.argsort(perm)
        view1 = build_ensemble_view(LabelMatrix.from_array(arr))
        view2 = build_ensemble_view(LabelMatrix.from_array(arr[perm]))
        r1 = annotate_validity(view1, 0.5)
        r2 = annotate_validity(view2, 0.5)
        by_members = {
            (source, frozenset(members.tolist())): c
            for c, (source, members) in enumerate(zip(cluster_sources(view2), view2.members()))
        }
        for c, (source, members) in enumerate(zip(cluster_sources(view1), view1.members())):
            moved = frozenset(int(inverse[o]) for o in members)
            twin = by_members[(source, moved)]
            assert r1.uncertainty[c] == pytest.approx(r2.uncertainty[twin], abs=1e-12)
            assert r1.eci[c] == pytest.approx(r2.eci[twin], abs=1e-12)

    def test_later_theta_leaves_earlier_report_alone(self, worked_view):
        # the view holds no per-cluster state, so a theta sweep cannot leave
        # the last theta's values behind in an earlier report or its export
        early = annotate_validity(worked_view, theta=0.2)
        text = io.StringIO()
        write_validity_csv(early, worked_view, text)
        annotate_validity(worked_view, theta=0.9)
        again = io.StringIO()
        write_validity_csv(early, worked_view, again)
        assert again.getvalue() == text.getvalue()
        assert np.array_equal(early.eci, annotate_validity(worked_view, theta=0.2).eci)

    @given(label_arrays(max_n=8, max_m=3))
    @settings(max_examples=50)
    def test_matches_enumerated_oracle(self, arr):
        m = LabelMatrix.from_array(arr)
        view = build_ensemble_view(m)
        report = annotate_validity(view, theta=0.4)
        expected = ref.all_uncertainties_ref(m.labels)
        assert np.allclose(report.uncertainty, expected, atol=1e-12)

    def test_rejects_bad_theta(self, worked_view):
        with pytest.raises(ValueError):
            annotate_validity(worked_view, theta=0.0)

    def test_rejects_nan_theta(self, worked_view):
        with pytest.raises(ValueError, match="theta must be positive, got nan"):
            annotate_validity(worked_view, theta=math.nan)
        with pytest.raises(ValueError, match="theta must be positive, got nan"):
            eci(1.0, math.nan, 3)

    def test_infinite_theta_gives_unit_weights(self, worked_view):
        assert (annotate_validity(worked_view, theta=math.inf).eci == 1.0).all()
        assert eci(2.5, math.inf, 3) == 1.0

    def test_csv_export(self, worked_view, tmp_path):
        report = annotate_validity(worked_view, theta=0.5)
        out = tmp_path / "validity.csv"
        write_validity_csv(report, worked_view, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "cluster,source,size,uncertainty,eci"
        assert len(lines) == 1 + worked_view.n_clusters
        first = lines[1].split(",")
        assert first[:3] == ["0", "0", "8"]
        assert float(first[3]) == pytest.approx(2.56, abs=0.01)
