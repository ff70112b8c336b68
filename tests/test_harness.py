"""Pool generation, ensemble draws, NMI scoring, and the experiment protocol."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwec import (
    ExperimentConfig,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        x = np.random.default_rng(3).normal(size=(20, 2))
        x[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kmeans(x, 3, seed=0)

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one column"):
            kmeans(np.zeros((5, 0)), 2, seed=0)


@st.composite
def lloyd_cases(draw):
    """(points, k, seed): d in 1..10, k anywhere in [1, n], with plain normal
    coordinates, coordinates rounded to 0.1 (ties), or a few distinct rounded
    rows repeated (duplicates, which force empty-cluster repairs)."""
    d = draw(st.integers(1, 10))
    n = draw(st.integers(1, 80))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    layout = draw(st.sampled_from(("normal", "rounded", "duplicates")))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * 3
    if layout == "rounded":
        x = np.round(x, 1)
    elif layout == "duplicates":
        x = np.round(x[rng.integers(0, max(1, n // 4), size=n)], 1)
    return x, k, seed


def assert_lloyd_matches_ref(x, k, seed):
    labels, centers, objective, repairs = _lloyd(x, k, seed)
    want = ref.lloyd_ref(x, k, seed)
    assert np.array_equal(labels, want[0])
    assert centers.tobytes() == want[1].tobytes()
    assert objective.tobytes() == want[2].tobytes()
    assert repairs == want[3]


class TestLloydExact:
    """The vectorised Lloyd step gives the per-cluster `mean` step's bits."""

    @given(lloyd_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case):
        assert_lloyd_matches_ref(*case)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_matches_reference_on_fixed_corpus(self, d):
        # clusters of 8 or more members in one column and distances over 8 or
        # more columns are where numpy's pairwise sums differ from a left-to-right one
        rng = np.random.default_rng(100 + d)
        for trial in range(12):
            n = int(rng.integers(30, 150))
            x = rng.normal(size=(n, d)) * 10 ** rng.uniform(-2, 2)
            assert_lloyd_matches_ref(x, int(rng.integers(1, 9)), trial)


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

    def test_named_members_equal_reference_pool(self, features):
        config = ExperimentConfig(pool_size=12, ensemble_size=4, seed=6)
        want = ref.generate_pool_ref(features, config)
        full = generate_pool(features, config)
        part = generate_pool(features, config, members=[9, 2, 2, 5])
        assert all(np.array_equal(a, b) for a, b in zip(full, want))
        for t, member in enumerate(part):
            if t in (2, 5, 9):
                assert np.array_equal(member, want[t])
            else:
                assert member is None

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

    def test_best_k_cuts_each_dendrogram_in_one_pass(self, monkeypatch, blobs):
        import lwec.graphcut as graphcut
        import lwec.harness as harness
        from lwec import build_ensemble_view, cut_dendrogram, lwgp
        from lwec.coassoc import _ca, _lwca
        from lwec.evidence import _dendrogram
        from lwec.validity import annotate_validity

        x, y = blobs
        pool = generate_pool(x, ExperimentConfig(pool_size=8, ensemble_size=8, seed=3))
        view = build_ensemble_view(draw_ensemble(pool, 8, seed=4))
        ks = list(range(2, sqrt_k_ceiling(y.size) + 1))
        calls = []
        cuts = harness._cuts

        def counting(dendrogram, wanted):
            calls.append(list(wanted))
            return cuts(dendrogram, wanted)

        monkeypatch.setattr(harness, "_cuts", counting)
        # lwgp: one cluster graph and one full eigh for every k
        built, eighs = [], []
        cluster_graph, eigh = graphcut._cluster_graph, np.linalg.eigh
        monkeypatch.setattr(graphcut, "_cluster_graph", lambda *args: built.append(1) or cluster_graph(*args))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
        scores = harness._score_methods(view, y, 3, 0.4, 5, best_k=True)
        monkeypatch.undo()
        assert calls == [ks, ks]
        assert len(built) == len(eighs) == 1
        report = annotate_validity(view, 0.4)
        for method, dendrogram in (("lwea", _dendrogram(*_lwca(view, report))), ("eac", _dendrogram(*_ca(view)))):
            assert scores[method] == max(nmi(cut_dendrogram(dendrogram, k).labels, y) for k in ks)
        assert scores["lwgp"] == max(nmi(lwgp(view, k, seed=5, report=report).labels, y) for k in ks)

    def test_fixed_k_of_one_scores_the_all_in_one_labeling(self, blobs):
        # one segment shares no information with the three blobs
        x, y = blobs
        config = ExperimentConfig(pool_size=6, ensemble_size=4, runs=1, seed=3, k_policy="fixed", fixed_k=1)
        report = run_experiment(x, y, config)
        assert {method: scores.tolist() for method, scores in report.method_nmi.items()} == {
            "lwea": [0.0],
            "lwgp": [0.0],
            "eac": [0.0],
        }

    def test_best_k_bounds_lwgp_by_the_positive_weight_clusters(self):
        import lwec.harness as harness
        from lwec import LabelMatrix, build_ensemble_view, lwgp
        from lwec.validity import annotate_validity

        # truth twice and a 9-way refinement of it: at theta 5e-4 the six truth
        # clusters weigh 0, so 9 of the 15 clusters are live, while the best-k
        # sweep runs k up to ceil(sqrt(100)) = 10
        truth = np.arange(100) % 3
        fine = truth + 3 * (np.arange(100) // 3 % 3)
        view = build_ensemble_view(LabelMatrix.from_array(np.column_stack([truth, truth, fine])))
        report = annotate_validity(view, 5e-4)
        assert np.count_nonzero(report.eci) == 9 and view.n_clusters == 15
        scores = harness._score_methods(view, truth, 3, 5e-4, 5, best_k=True)
        assert set(scores) == {"lwea", "lwgp", "eac"}
        assert scores["lwgp"] == max(nmi(lwgp(view, k, seed=5, report=report).labels, truth) for k in range(2, 10))

    def test_theta_grid_builds_plain_coassociation_once_per_draw(self, monkeypatch):
        import lwec.harness as harness

        calls = []
        plain = harness._ca

        def counting_ca(view):
            calls.append(view)
            return plain(view)

        monkeypatch.setattr(harness, "_ca", counting_ca)
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

    def test_theta_grid_scores_each_theta_once(self, monkeypatch, blobs):
        import lwec.harness as harness

        calls = []
        weighted = harness._lwca

        def counting_lwca(view, report):
            calls.append(report)
            return weighted(view, report)

        monkeypatch.setattr(harness, "_lwca", counting_lwca)
        x, y = blobs
        grid = (0.2, 0.4, 1.0, 0.2)
        config = ExperimentConfig(pool_size=10, ensemble_size=4, runs=2, seed=23, theta_grid=grid)
        report = run_experiment(x, y, config)
        assert len(calls) == config.runs * len({config.theta, *grid})
        rows = [r for r in report.rows() if r.parameter == "theta"]
        assert [r.value for r in rows[4:]] == [0.2, 0.2, 0.4, 0.4, 1.0, 1.0, 0.2, 0.2]
        for method in ("lwea", "lwgp"):
            by_value = {}
            for r in rows:
                if r.method == method:
                    by_value.setdefault(r.value, []).append(r.per_run)
            for per_run in by_value.values():
                assert all(np.array_equal(per_run[0], other) for other in per_run[1:])

    def test_kmeans_runs_once_per_drawn_member(self, monkeypatch, blobs):
        import lwec.harness as harness

        calls = []

        def counting_kmeans(x, k, seed):
            calls.append(seed.entropy[2])
            return kmeans(x, k, seed=seed)

        monkeypatch.setattr(harness, "kmeans", counting_kmeans)
        x, y = blobs
        config = ExperimentConfig(pool_size=40, ensemble_size=3, runs=2, seed=17, m_grid=(2, 4))
        run_experiment(x, y, config)
        draws = [(config.ensemble_size, (config.seed, 1, r)) for r in range(config.runs)]
        draws += [(m, (config.seed, 3, m, r)) for m in config.m_grid for r in range(config.runs)]
        drawn: list[int] = []
        for m, path in draws:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(path)))
            drawn += rng.choice(config.pool_size, size=m, replace=False).tolist()
        # some member is drawn twice and some never, so both the memo and the skip are tested
        assert len(set(drawn)) < min(len(drawn), config.pool_size)
        assert sorted(calls) == sorted(set(drawn))

    @pytest.mark.parametrize("k_policy", ["true-k", "best-k"])
    def test_report_equals_one_from_reference_pool(self, monkeypatch, blobs, k_policy):
        import lwec.harness as harness

        x, y = blobs
        config = ExperimentConfig(
            pool_size=30, ensemble_size=5, runs=2, seed=41, k_policy=k_policy,
            theta_grid=(0.2, 0.4), m_grid=(3, 8),
        )
        out = io.StringIO()
        run_experiment(x, y, config).to_csv(out)
        monkeypatch.setattr(
            harness, "generate_pool", lambda features, cfg, members=None: ref.generate_pool_ref(features, cfg)
        )
        want = io.StringIO()
        run_experiment(x, y, config).to_csv(want)
        assert out.getvalue() == want.getvalue()

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


# to_csv of the report below: a repeated theta reuses the scores of its first
# occurrence, and each repeated ensemble size makes its own draws
GOLDEN_REPORTS = {
    "true-k": (
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
        "lwea,theta,0.2,2,0.680441,0.010815\n"
        "lwgp,theta,0.2,2,0.642136,0.001928\n"
        "lwea,M,3,2,0.614265,0.099133\n"
        "lwgp,M,3,2,0.603194,0.088062\n"
        "eac,M,3,2,0.654942,0.058456\n"
        "base,M,3,2,0.651001,0.015370\n"
        "lwea,M,8,2,0.681617,0.009638\n"
        "lwgp,M,8,2,0.676803,0.036595\n"
        "eac,M,8,2,0.691256,0.000000\n"
        "base,M,8,2,0.638354,0.011673\n"
        "lwea,M,3,2,0.614265,0.099133\n"
        "lwgp,M,3,2,0.603194,0.088062\n"
        "eac,M,3,2,0.654942,0.058456\n"
        "base,M,3,2,0.651001,0.015370\n"
    ),
    "best-k": (
        "method,parameter,value,runs,mean_nmi,std_nmi\n"
        "lwea,theta,0.4,2,0.715215,0.023959\n"
        "lwgp,theta,0.4,2,0.705773,0.033401\n"
        "eac,theta,0.4,2,0.719627,0.036053\n"
        "base,theta,0.4,2,0.648728,0.017100\n"
        "lwea,theta,0.2,2,0.695105,0.003849\n"
        "lwgp,theta,0.2,2,0.674347,0.030063\n"
        "lwea,theta,0.4,2,0.715215,0.023959\n"
        "lwgp,theta,0.4,2,0.705773,0.033401\n"
        "lwea,theta,1,2,0.715215,0.023959\n"
        "lwgp,theta,1,2,0.696437,0.024064\n"
        "lwea,theta,0.2,2,0.695105,0.003849\n"
        "lwgp,theta,0.2,2,0.674347,0.030063\n"
        "lwea,M,3,2,0.693460,0.023163\n"
        "lwgp,M,3,2,0.680776,0.010479\n"
        "eac,M,3,2,0.707699,0.047981\n"
        "base,M,3,2,0.651001,0.015370\n"
        "lwea,M,8,2,0.683492,0.011513\n"
        "lwgp,M,8,2,0.690053,0.026570\n"
        "eac,M,8,2,0.707261,0.012256\n"
        "base,M,8,2,0.638354,0.011673\n"
        "lwea,M,3,2,0.693460,0.023163\n"
        "lwgp,M,3,2,0.680776,0.010479\n"
        "eac,M,3,2,0.707699,0.047981\n"
        "base,M,3,2,0.651001,0.015370\n"
    ),
}


@pytest.mark.parametrize("k_policy", sorted(GOLDEN_REPORTS))
def test_golden_report_with_repeated_grid_values(monkeypatch, k_policy):
    import lwec.harness as harness

    calls = {"ca": 0, "lwca": 0}
    plain, weighted = harness._ca, harness._lwca

    def counting_ca(view):
        calls["ca"] += 1
        return plain(view)

    def counting_lwca(view, report):
        calls["lwca"] += 1
        return weighted(view, report)

    monkeypatch.setattr(harness, "_ca", counting_ca)
    monkeypatch.setattr(harness, "_lwca", counting_lwca)
    x, y = make_gaussian_blobs(60, [[0, 0], [4, 4], [8, 0]], spread=1.8, seed=5)
    config = ExperimentConfig(
        pool_size=10, ensemble_size=4, runs=2, seed=23, k_policy=k_policy,
        theta_grid=(0.2, 0.4, 1.0, 0.2), m_grid=(3, 8, 3),
    )
    out = io.StringIO()
    run_experiment(x, y, config).to_csv(out)
    assert out.getvalue() == GOLDEN_REPORTS[k_policy]
    # eac once per draw; lwea at each distinct theta of a main draw and once per M-grid draw
    assert calls == {"ca": 2 + 3 * 2, "lwca": 2 * 3 + 3 * 2}


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

    @pytest.mark.parametrize("text, message", [
        ("1.0,2.0\n3.0,4.0\n# late\n", "^line 3: unexpected '#' row"),
        ("# x,y\n\n1.0,2.0\n# late\n3.0,4.0\n", "^line 4: unexpected '#' row"),
        ("1.0,2.0\n3.0,x\n", r"^line 2: non-numeric cell in '3.0,x'$"),
    ])
    def test_read_features_names_the_bad_line(self, text, message):
        # one table rule for every file: only a leading '#' row
        with pytest.raises(ValueError, match=message):
            read_features(text)

    @staticmethod
    def outcome(read, text):
        """The array a reader returns, as bits, or the type and message of what it raises."""
        try:
            return read(text).tobytes()
        except ValueError as exc:
            return type(exc).__name__, str(exc)

    @pytest.mark.parametrize("text", [
        "+.5,1\n-.5,1e-3\n", "1_0.5,2\n3,4_0\n", " 1.5 ,\t2\n3,\xa04\n",
        "4.9e-324,2.2250738585072009e-308\n-5e-324,1e-310\n",  # subnormals
        "inf,1\n2,3\n", "1,2\n-Infinity,3\n", "nan,1\n2,3\n",  # validate_features' error
        "1e999,1\n2,3\n", "1,2\n3\n", "1,2\n# late\n", "1,2\n3,x\n", "1,2\n3,\n",
    ])
    def test_read_features_matches_joined_cell_parser(self, text):
        # the C pass, or the row walk where it refuses a cell such as '1_0.5',
        # gives what one float() per cell gave
        want = self.outcome(lambda t: validate_features(ref.parse_table_join_ref(t, float, "feature file")), text)
        assert self.outcome(read_features, text) == want

    def test_read_features_round_trips_17_digit_reals(self):
        rng = np.random.default_rng(41)
        x = np.concatenate([
            rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, size=(40, 3)),
            rng.random((10, 3)) * 1e-310,  # subnormal
        ])
        text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in x) + "\n"
        want = validate_features(ref.parse_table_join_ref(text, float, "feature file"))
        assert read_features(text).tobytes() == want.tobytes() == x.tobytes()

    def test_blob_generator_deterministic(self):
        a = make_gaussian_blobs(21, [[0, 0], [5, 5]], spread=0.3, seed=6)
        b = make_gaussian_blobs(21, [[0, 0], [5, 5]], spread=0.3, seed=6)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert a[0].shape == (21, 2)
        assert np.bincount(a[1]).tolist() == [11, 10]
