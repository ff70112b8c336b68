"""Pool generation, ensemble draws, NMI scoring, and the experiment protocol."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwec import (
    ExperimentConfig,
    build_ca,
    draw_ensemble,
    generate_pool,
    kmeans,
    make_gaussian_blobs,
    nmi,
    run_experiment,
)
from lwec.harness import read_features, sqrt_k_ceiling, validate_features, write_features
from lwec.kmeans import _lloyd

import reference as ref


class TestKmeans:
    def test_two_separated_pairs(self):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
        labels = kmeans(x, 2, seed=3)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_k_equals_n_each_point_alone(self):
        x = np.arange(10, dtype=float).reshape(5, 2) * 3
        labels = kmeans(x, 5, seed=1)
        assert sorted(labels.tolist()) == [0, 1, 2, 3, 4]

    def test_fixed_seed_is_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        a = kmeans(x, 4, seed=123)
        b = kmeans(x, 4, seed=123)
        assert np.array_equal(a, b)

    def test_k_out_of_range(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError):
            kmeans(x, 5, seed=0)
        with pytest.raises(ValueError):
            kmeans(x, 0, seed=0)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(7)
        checked = 0
        for trial in range(30):
            x = rng.normal(size=(60, 2)) + rng.integers(0, 3, size=(60, 1)) * 8
            _, _, objective, repairs = _lloyd(x, int(rng.integers(2, 5)), seed=trial)
            if repairs:
                continue
            assert (np.diff(objective) <= 1e-9).all()
            checked += 1
        assert checked >= 25

    def test_all_clusters_non_empty(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            n = int(rng.integers(8, 30))
            x = rng.normal(size=(n, 2))
            k = int(rng.integers(2, min(8, n) + 1))
            labels = kmeans(x, k, seed=trial)
            assert np.unique(labels).size == k


@pytest.fixture(scope="module")
def features():
    x, _ = make_gaussian_blobs(100, [[0, 0], [6, 6], [12, 0]], spread=1.0, seed=2)
    return x


@pytest.fixture(scope="module")
def blobs():
    return make_gaussian_blobs(60, [[0, 0], [8, 8], [16, 0]], spread=0.8, seed=5)


class TestPool:
    def test_k_range_respected(self, features):
        config = ExperimentConfig(pool_size=30, ensemble_size=5, seed=4)
        pool = generate_pool(features, config)
        assert len(pool) == 30
        k_max = sqrt_k_ceiling(features.shape[0])
        for member in pool:
            assert 2 <= np.unique(member).size <= k_max

    def test_same_seed_same_pool(self, features):
        config = ExperimentConfig(pool_size=10, ensemble_size=5, seed=8)
        a = generate_pool(features, config)
        b = generate_pool(features, config)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_too_few_objects_rejected(self):
        config = ExperimentConfig(pool_size=5, ensemble_size=2, seed=0)
        with pytest.raises(ValueError, match="at least 4"):
            generate_pool(np.zeros((3, 2)), config)

    def test_draw_whole_pool(self, features):
        config = ExperimentConfig(pool_size=8, ensemble_size=8, seed=1)
        pool = generate_pool(features, config)
        matrix = draw_ensemble(pool, 8, seed=5)
        assert matrix.n_clusterings == 8
        drawn = {tuple(matrix.labels[:, c]) for c in range(8)}
        expected = {tuple(np.unique(m, return_inverse=True)[1]) for m in pool}
        # dense remap preserves partitions, so compare as relabeled tuples
        assert len(drawn) == len(expected)

    def test_draw_single_member(self, features):
        pool = generate_pool(features, ExperimentConfig(pool_size=6, ensemble_size=2, seed=3))
        matrix = draw_ensemble(pool, 1, seed=11)
        assert matrix.n_clusterings == 1

    def test_draw_reproducible_and_distinct(self, features):
        pool = generate_pool(features, ExperimentConfig(pool_size=12, ensemble_size=4, seed=3))
        a = draw_ensemble(pool, 6, seed=21)
        b = draw_ensemble(pool, 6, seed=21)
        assert np.array_equal(a.labels, b.labels)
        with pytest.raises(ValueError):
            draw_ensemble(pool, 13, seed=0)


class TestNmi:
    def test_identical_labelings(self):
        assert nmi([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0

    def test_permuted_relabeling(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([5, 5, 9, 9, 0, 0])
        assert nmi(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_crossing_partition_is_zero(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_both_trivial_is_one(self):
        assert nmi([3, 3, 3], [0, 0, 0]) == 1.0

    def test_one_trivial_is_zero(self):
        assert nmi([0, 0, 0], [0, 1, 0]) == 0.0

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            nmi([0, 1], [0, 1, 2])
        with pytest.raises(ValueError):
            nmi([], [])

    @given(st.integers(0, 2**32 - 1), st.integers(4, 30))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_range_and_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 3, size=n)
        forward = nmi(a, b)
        assert 0.0 <= forward <= 1.0
        assert forward == pytest.approx(nmi(b, a), abs=1e-12)
        assert forward == pytest.approx(min(1.0, max(0.0, ref.nmi_ref(a, b))), abs=1e-12)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(13)
        a = rng.integers(0, 5, size=50)
        b = rng.integers(0, 4, size=50)
        perm = rng.permutation(5)
        assert nmi(perm[a], b) == pytest.approx(nmi(a, b), abs=1e-12)


class TestExperiment:
    def test_deterministic_report(self, blobs):
        x, y = blobs
        config = ExperimentConfig(pool_size=8, ensemble_size=8, runs=1, seed=17)
        a = run_experiment(x, y, config)
        b = run_experiment(x, y, config)
        for method in a.method_nmi:
            assert np.array_equal(a.method_nmi[method], b.method_nmi[method])
        out_a, out_b = io.StringIO(), io.StringIO()
        a.to_csv(out_a)
        b.to_csv(out_b)
        assert out_a.getvalue() == out_b.getvalue()

    def test_theta_grid_shape(self, blobs):
        x, y = blobs
        grid = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 2.0, 4.0, 8.0)
        config = ExperimentConfig(
            pool_size=10, ensemble_size=5, runs=2, seed=23, theta_grid=grid
        )
        report = run_experiment(x, y, config)
        rows = [r for r in report.sweep_rows if r.parameter == "theta"]
        assert len(rows) == 2 * len(grid)
        for method in ("lwea", "lwgp"):
            values = [r.value for r in rows if r.method == method]
            assert tuple(values) == grid

    def test_theta_grid_builds_plain_coassociation_once_per_draw(self, monkeypatch):
        import lwec.harness as harness

        calls = []

        def counting_build_ca(view):
            calls.append(view)
            return build_ca(view)

        monkeypatch.setattr(harness, "build_ca", counting_build_ca)
        x, y = make_gaussian_blobs(60, [[0, 0], [4, 4], [8, 0]], spread=1.8, seed=5)
        config = ExperimentConfig(
            pool_size=10, ensemble_size=4, runs=2, seed=23, theta_grid=(0.2, 0.4, 1.0)
        )
        out = io.StringIO()
        run_experiment(x, y, config).to_csv(out)
        # eac ignores theta: it is scored in the main runs only
        assert len(calls) == config.runs
        assert out.getvalue() == (
            "method,parameter,value,runs,mean_nmi,std_nmi\n"
            "lwea,theta,0.4,2,0.715215,0.023959\n"
            "lwgp,theta,0.4,2,0.689691,0.049483\n"
            "eac,theta,0.4,2,0.654942,0.058456\n"
            "base,theta,0.4,2,0.648728,0.017100\n"
            "lwea,theta,0.2,2,0.680441,0.010815\n"
            "lwgp,theta,0.2,2,0.642136,0.001928\n"
            "lwea,theta,0.4,2,0.715215,0.023959\n"
            "lwgp,theta,0.4,2,0.689691,0.049483\n"
            "lwea,theta,1,2,0.715215,0.023959\n"
            "lwgp,theta,1,2,0.665732,0.025524\n"
        )

    def test_m_grid_rows(self, blobs):
        x, y = blobs
        config = ExperimentConfig(
            pool_size=10, ensemble_size=5, runs=2, seed=29, m_grid=(2, 5, 10)
        )
        report = run_experiment(x, y, config)
        rows = [r for r in report.sweep_rows if r.parameter == "M"]
        assert {r.method for r in rows} == {"lwea", "lwgp", "eac", "base"}
        assert sorted({int(r.value) for r in rows}) == [2, 5, 10]

    def test_consensus_beats_base_on_easy_blobs(self, blobs):
        x, y = blobs
        config = ExperimentConfig(pool_size=20, ensemble_size=8, runs=3, seed=31)
        report = run_experiment(x, y, config)
        base = report.base_mean_per_run.mean()
        assert report.method_nmi["lwea"].mean() >= base
        assert report.method_nmi["lwgp"].mean() >= base

    def test_best_k_policy_runs(self, blobs):
        x, y = blobs
        config = ExperimentConfig(
            pool_size=8, ensemble_size=4, runs=1, seed=37, k_policy="best-k"
        )
        report = run_experiment(x, y, config)
        assert set(report.method_nmi) == {"lwea", "lwgp", "eac"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(pool_size=0)
        with pytest.raises(ValueError):
            ExperimentConfig(ensemble_size=200, pool_size=100)
        with pytest.raises(ValueError):
            ExperimentConfig(theta=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(k_policy="bogus")
        with pytest.raises(ValueError):
            ExperimentConfig(k_policy="fixed")

    def test_nan_theta_rejected(self):
        with pytest.raises(ValueError, match="theta must be positive"):
            ExperimentConfig(theta=float("nan"))

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"theta_grid": (0.4, -1.0)}, r"theta must be positive, got -1\.0"),
            ({"theta_grid": (float("nan"),)}, "theta must be positive, got nan"),
            ({"m_grid": (5, 500)}, r"ensemble size must be in \[1, 100\], got 500"),
            ({"m_grid": (0,)}, r"ensemble size must be in \[1, 100\], got 0"),
        ],
    )
    def test_bad_sweep_grid_fails_before_any_kmeans(self, monkeypatch, blobs, grid, message):
        import lwec.harness as harness

        calls = []

        def counting_kmeans(*args, **kwargs):
            calls.append(args)
            return kmeans(*args, **kwargs)

        monkeypatch.setattr(harness, "kmeans", counting_kmeans)
        x, y = blobs
        with pytest.raises(ValueError, match=message):
            run_experiment(x, y, ExperimentConfig(runs=1, seed=3, **grid))
        assert calls == []

    def test_truth_length_checked(self, blobs):
        x, _ = blobs
        config = ExperimentConfig(pool_size=4, ensemble_size=2, runs=1, seed=0)
        with pytest.raises(ValueError, match="length"):
            run_experiment(x, np.zeros(7), config)


class TestFeatureIo:
    def test_roundtrip(self, tmp_path):
        x = np.array([[1.5, -2.25], [0.0, 3.125]])
        path = tmp_path / "features.csv"
        write_features(x, str(path))
        again = read_features(path.read_text())
        assert np.array_equal(x, again)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            validate_features(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            validate_features(np.array([[np.nan, 1.0], [0.0, 2.0]]))
        with pytest.raises(ValueError, match="ragged"):
            read_features("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="empty"):
            read_features("# header only\n")

    def test_blob_generator_deterministic(self):
        a = make_gaussian_blobs(21, [[0, 0], [5, 5]], spread=0.3, seed=6)
        b = make_gaussian_blobs(21, [[0, 0], [5, 5]], spread=0.3, seed=6)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert a[0].shape == (21, 2)
        assert np.bincount(a[1]).tolist() == [11, 10]
