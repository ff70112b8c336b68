"""Co-association builders against triple-loop oracles and structural properties."""

import io

import numpy as np
import pytest
from hypothesis import given, settings

from lwec import (
    LabelMatrix,
    ValidityReport,
    annotate_validity,
    build_ca,
    build_ensemble_view,
    build_lwca,
)
from lwec import coassoc
from lwec.coassoc import write_lower_triangle
from lwec.ensemble import BLOCK_ROWS

import reference as ref
from conftest import blob_voronoi_view, cluster_members, label_arrays, random_label_array, repeated_rows


def unit_report(view) -> ValidityReport:
    n = view.n_clusters
    return ValidityReport(
        uncertainty=np.zeros(n), eci=np.ones(n), theta=1.0, ensemble_size=view.n_clusterings
    )


class TestBuildCa:
    def test_stable_trio_pairs_are_one(self, worked_view):
        ca = build_ca(worked_view)
        trio = cluster_members(worked_view)[1]
        for i in trio:
            for j in trio:
                assert ca.dense()[i, j] == 1.0

    def test_never_coclustered_pair_is_zero(self):
        arr = np.array([[0, 0], [0, 1], [1, 1]])
        ca = build_ca(build_ensemble_view(LabelMatrix.from_array(arr)))
        assert ca.dense()[0, 2] == 0.0

    def test_single_clustering_is_indicator(self):
        col = np.array([0, 1, 0, 2, 1, 0])
        ca = build_ca(build_ensemble_view(LabelMatrix.from_array(col[:, None])))
        assert set(np.unique(ca.dense())) == {0.0, 1.0}
        assert ca.dense()[0, 2] == 1.0
        assert ca.dense()[0, 1] == 0.0

    def test_diagonal_is_exactly_one(self):
        rng = np.random.default_rng(2)
        for m in (1, 3, 7):
            view = build_ensemble_view(LabelMatrix.from_array(random_label_array(rng, 12, m)))
            assert (np.diag(build_ca(view).dense()) == 1.0).all()

    @given(label_arrays(max_n=10, max_m=3))
    @settings(max_examples=60)
    def test_matches_triple_loop_oracle(self, arr):
        m = LabelMatrix.from_array(arr)
        ca = build_ca(build_ensemble_view(m))
        assert np.abs(ca.dense() - ref.ca_ref(m.labels)).max() <= 1e-12


class TestBuildLwca:
    def test_unit_weights_reduce_to_plain_ca(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            view = build_ensemble_view(LabelMatrix.from_array(random_label_array(rng, 15, 4)))
            ca = build_ca(view)
            lwca = build_lwca(view, unit_report(view))
            assert np.array_equal(ca.dense(), lwca.dense())

    def test_single_shared_cluster_contributes_weight_over_m(self):
        # objects 0 and 1 share a cluster only in column 0
        arr = np.array([[0, 0, 0], [0, 1, 1], [1, 1, 0], [1, 0, 1]])
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        report = annotate_validity(view, theta=0.5)
        shared = view.cluster_ids[0, 0]
        lwca = build_lwca(view, report)
        assert lwca.dense()[0, 1] == pytest.approx(report.eci[shared] / 3, abs=1e-12)

    def test_worked_example_pair_inside_stable_trio(self, worked_view):
        report = annotate_validity(worked_view, theta=0.5)
        lwca = build_lwca(worked_view, report)
        trio = cluster_members(worked_view)[1]
        i, j = int(trio[0]), int(trio[1])
        containing = [worked_view.cluster_ids[i, col] for col in range(3)]
        expected = sum(report.eci[c] for c in containing) / 3
        assert lwca.dense()[i, j] == pytest.approx(expected, abs=1e-12)

    def test_diagonal_is_mean_reliability(self):
        rng = np.random.default_rng(6)
        view = build_ensemble_view(LabelMatrix.from_array(random_label_array(rng, 14, 5)))
        report = annotate_validity(view, theta=0.3)
        lwca = build_lwca(view, report)
        expected = report.eci[view.cluster_ids].mean(axis=1)
        assert np.allclose(np.diag(lwca.dense()), expected, atol=1e-12)

    def test_dimension_mismatch_rejected(self, worked_view):
        bad = ValidityReport(
            uncertainty=np.zeros(3), eci=np.ones(3), theta=1.0, ensemble_size=3
        )
        with pytest.raises(ValueError, match="clusters"):
            build_lwca(worked_view, bad)

    @given(label_arrays(max_n=10, max_m=3))
    @settings(max_examples=60)
    def test_matches_triple_loop_oracle(self, arr):
        m = LabelMatrix.from_array(arr)
        view = build_ensemble_view(m)
        report = annotate_validity(view, theta=0.5)
        lwca = build_lwca(view, report)
        assert np.abs(lwca.dense() - ref.lwca_ref(m.labels, report.eci)).max() <= 1e-12


class TestProperties:
    def test_symmetry_and_domination_on_random_ensembles(self):
        # >= 100 random ensembles up to N = 50
        rng = np.random.default_rng(123)
        for trial in range(100):
            n = int(rng.integers(3, 51))
            m = int(rng.integers(1, 8))
            view = build_ensemble_view(
                LabelMatrix.from_array(random_label_array(rng, n, m, max_clusters=6))
            )
            ca = build_ca(view).dense()
            lwca = build_lwca(view, annotate_validity(view, theta=0.4)).dense()
            assert np.array_equal(ca, ca.T)
            assert np.array_equal(lwca, lwca.T)
            assert (ca >= 0).all() and (ca <= 1).all()
            assert (lwca >= 0).all()
            assert (lwca <= ca + 1e-15).all()

    def test_object_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        arr = random_label_array(rng, 16, 3)
        perm = rng.permutation(16)
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        view_p = build_ensemble_view(LabelMatrix.from_array(arr[perm]))
        ca = build_ca(view).dense()
        ca_p = build_ca(view_p).dense()
        assert np.array_equal(ca_p, ca[np.ix_(perm, perm)])
        report = annotate_validity(view, 0.5)
        report_p = annotate_validity(view_p, 0.5)
        lwca = build_lwca(view, report).dense()
        lwca_p = build_lwca(view_p, report_p).dense()
        assert np.abs(lwca_p - lwca[np.ix_(perm, perm)]).max() <= 1e-12


class TestMicroclusterStorage:
    """The matrix is stored once per distinct label row; `dense()` must be
    the N x N accumulation it replaced, bit for bit."""

    @given(label_arrays(max_n=30, max_m=4))
    @settings(max_examples=80)
    def test_dense_equals_the_n_by_n_accumulation(self, arr):
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        assert np.array_equal(build_ca(view).dense(), ref.coassoc_dense_ref(view, np.ones(view.n_clusters)))
        for theta in (0.05, 0.5):
            report = annotate_validity(view, theta)
            if report.eci.any():
                assert np.array_equal(build_lwca(view, report).dense(), ref.coassoc_dense_ref(view, report.eci))

    @pytest.mark.parametrize("theta", [1e-9, 1e-3, 0.4])
    def test_zero_weight_clusters_do_not_split_rows(self, blob_view_m20, theta):
        report = annotate_validity(blob_view_m20, theta)
        lwca = build_lwca(blob_view_m20, report)
        assert np.array_equal(lwca.dense(), ref.coassoc_dense_ref(blob_view_m20, report.eci))
        assert lwca.values.shape[0] <= np.unique(blob_view_m20.cluster_ids, axis=0).shape[0]

    @pytest.mark.parametrize("dead, p", [([], 6), ([4, 5, 6], 3), ([5, 6], 4), ([0, 5, 6], 4), ([2, 5], 6)])
    def test_rows_agreeing_on_live_clusters_share_a_row(self, dead, p):
        # label rows merge where they differ only at zero-weight clusters
        arr = np.array([[0, 0, 0], [0, 0, 1], [1, 1, 2], [0, 1, 0], [1, 1, 1], [0, 0, 2], [1, 1, 2]])
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        weights = np.ones(view.n_clusters)
        weights[dead] = 0.0  # clusters 4, 5, 6 are column 2's, 0 and 1 column 0's
        report = ValidityReport(uncertainty=np.zeros_like(weights), eci=weights, theta=0.4, ensemble_size=3)
        ids = view.cluster_ids
        leaf = build_lwca(view, report).leaf
        assert np.array_equal(leaf, ref.distinct_rows_ref(np.where(weights[ids] > 0, ids, -1))[0])
        assert leaf.max() + 1 == p
        assert np.array_equal(build_ca(view).leaf, view._rows[0])

    def test_rows_numbered_by_smallest_member(self):
        arr = np.array([[1, 0], [0, 1], [1, 0], [0, 0], [0, 1]])
        ca = build_ca(build_ensemble_view(LabelMatrix.from_array(arr)))
        assert ca.n == 5
        assert ca.leaf.tolist() == [0, 1, 0, 2, 1]


    @pytest.mark.parametrize("dead", [False, True])  # True: four columns weigh 0, so label rows merge
    def test_builders_sort_no_object_sized_array(self, monkeypatch, dead):
        view = build_ensemble_view(LabelMatrix.from_array(repeated_rows(8, n=500)))
        report = annotate_validity(view, 0.4)
        if dead:
            eci = report.eci.copy()
            eci[: view.column_offsets[4]] = 0.0
            report = ValidityReport(report.uncertainty, eci, report.theta, report.ensemble_size)
        sizes = []
        for name in ("argsort", "sort"):
            original = getattr(np, name)

            def counting(a, *args, original=original, **kwargs):
                sizes.append(np.size(a))
                return original(a, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        # a harness draw scores each view with both builders; each sorts over
        # the view's distinct label rows, not over its objects
        lwca = build_lwca(view, report)
        build_ca(view)
        assert sizes and max(sizes) < view.n_objects
        assert (lwca.values.shape[0] < view._rows[1].size) == dead


class TestTriangleScatter:
    """Each cluster adds to one triangle of the stored matrix, a few rows per
    call, which is then mirrored in blocks of rows: on ensembles where no
    label row repeats, so the matrix spans several mirror blocks, `dense()`
    must still be the N x N accumulation bit for bit."""

    @pytest.fixture(scope="class")
    def noisy_labels(self):
        # 700 objects, 30 Voronoi columns of 2..27 clusters, 10% label noise:
        # 699 distinct label rows
        return blob_voronoi_view(700, np.rint(np.linspace(2, 27, 30)).astype(int), 11, noise=0.1).labels.labels

    @pytest.mark.parametrize("extra", ["none", "one cluster", "singletons"])
    @pytest.mark.parametrize("theta", [None, 0.4, 1e-3])
    @pytest.mark.parametrize("scatter_pairs", [coassoc.SCATTER_PAIRS, 3000])  # 3000: a few rows per call
    def test_dense_equals_the_n_by_n_accumulation(self, monkeypatch, noisy_labels, extra, theta, scatter_pairs):
        monkeypatch.setattr(coassoc, "SCATTER_PAIRS", scatter_pairs)
        n = noisy_labels.shape[0]
        columns = {"none": [], "one cluster": [np.zeros(n, dtype=np.int64)], "singletons": [np.arange(n)]}
        view = build_ensemble_view(LabelMatrix.from_array(np.column_stack([noisy_labels, *columns[extra]])))
        if theta is None:
            weights = np.ones(view.n_clusters)
            matrix = build_ca(view)
        else:
            report = annotate_validity(view, theta)
            weights = report.eci
            matrix = build_lwca(view, report)
        if theta == 1e-3:
            assert 0 < (weights == 0).sum() < weights.size
        if theta != 1e-3 or extra == "singletons":
            assert matrix.values.shape[0] >= n - 1 > 3 * BLOCK_ROWS
        assert np.array_equal(matrix.dense(), ref.coassoc_dense_ref(view, weights))
        assert np.array_equal(matrix.values, matrix.values.T)
        assert not matrix.values.flags.writeable


class TestDump:
    def test_lower_triangle_shape(self, worked_view):
        ca = build_ca(worked_view)
        buf = io.StringIO()
        write_lower_triangle(ca, buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == worked_view.n_objects
        assert [len(line.split(",")) for line in lines] == list(range(1, 17))
        assert float(lines[0]) == 1.0
