"""Average-link dendrogram construction, cutting, and the weighted consensus."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from lwec import (
    CoassocMatrix,
    LabelMatrix,
    ValidityReport,
    annotate_validity,
    build_ca,
    build_dendrogram,
    build_ensemble_view,
    build_lwca,
    cut_dendrogram,
    eac,
    lwea,
    make_gaussian_blobs,
)

from lwec.coassoc import _ca
from lwec.ensemble import relabel_first_appearance
from lwec.evidence import _cuts, _dendrogram, _intra

import reference as ref
from conftest import blob_voronoi_view, label_arrays, random_label_array


def sym_matrix(values) -> CoassocMatrix:
    arr = np.asarray(values, dtype=np.float64)
    return CoassocMatrix(values=arr, kind="ca")


def random_similarity(rng, n):
    raw = rng.uniform(0, 1, size=(n, n))
    sym = (raw + raw.T) / 2
    np.fill_diagonal(sym, 1.0)
    return sym


class TestBuildDendrogram:
    def test_three_object_hand_example(self):
        m = sym_matrix([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
        d = build_dendrogram(m)
        assert len(d.merges) == 2
        first, second = d.merges
        assert (first.left, first.right, first.new_id) == (0, 1, 3)
        assert first.similarity == pytest.approx(0.9)
        assert (second.left, second.right, second.new_id) == (3, 2, 4)
        assert second.similarity == pytest.approx(0.15, abs=1e-12)

    def test_all_zero_matrix_deterministic_ties(self):
        d = build_dendrogram(sym_matrix(np.zeros((4, 4))))
        assert [(e.left, e.right, e.similarity) for e in d.merges] == [
            (0, 1, 0.0),
            (4, 2, 0.0),
            (5, 3, 0.0),
        ]

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_dendrogram(sym_matrix([[1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        values = np.array([[1.0, 0.2, bad], [0.2, 1.0, 0.5], [bad, 0.5, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            build_dendrogram(CoassocMatrix(values, "ca"))

    def test_negative_entry_rejected(self):
        # the demotion bound assumes entries >= 0: on this matrix the loop
        # merged (20, 11, 21) where the dense loop merges (18, 20, 21)
        values = np.array([[-0.3, -1 / 3], [-1 / 3, -1 / 3]])
        with pytest.raises(ValueError, match="^similarity matrix has a negative entry$"):
            build_dendrogram(CoassocMatrix(values, "ca", np.array([0] * 8 + [1] * 4)))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            build_dendrogram(CoassocMatrix(np.ones((2, 3)), "ca"))

    def test_asymmetric_matrix_rejected(self):
        values = np.array([[1.0, 0.9, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            build_dendrogram(sym_matrix(values))

    @pytest.mark.parametrize("leaf", [[0, 5], [0, -1, 1]])
    def test_leaf_naming_no_row_rejected(self, leaf):
        values = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match=r"leaf entries must be in \[0, 2\)"):
            build_dendrogram(CoassocMatrix(values, "ca", np.array(leaf)))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_rescan_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        values = random_similarity(rng, n)
        d = build_dendrogram(sym_matrix(values))
        expected = ref.average_link_ref(values)
        assert len(d.merges) == len(expected)
        for got, (left, right, new_id, sim) in zip(d.merges, expected):
            assert (got.left, got.right, got.new_id) == (left, right, new_id)
            assert got.similarity == pytest.approx(sim, abs=1e-12)


def merge_tuples(dendrogram):
    return [(e.left, e.right, e.new_id, e.similarity) for e in dendrogram.merges]


def voronoi_label_array(features, m, rng):
    """m columns, each assigning every object to the nearest of k random objects."""
    n = features.shape[0]
    cols = []
    for _ in range(m):
        k = int(rng.integers(2, int(np.ceil(np.sqrt(n))) + 1))
        centers = features[rng.choice(n, size=k, replace=False)]
        cols.append(((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1))
    return np.column_stack(cols)


class TestArgmaxOracleAtScale:
    """Exact merge-for-merge agreement with the full-matrix argmax loop."""

    @pytest.mark.parametrize("seed", range(3))
    def test_tied_integer_coassociation(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(100, 401))
        arr = random_label_array(rng, n, int(rng.integers(2, 6)), max_clusters=4)
        matrix = build_ca(build_ensemble_view(LabelMatrix.from_array(arr)))
        # few distinct values, so most maxima are tied
        assert np.unique(matrix.dense()).size <= arr.shape[1] + 1
        assert merge_tuples(build_dendrogram(matrix)) == ref.average_link_argmax_ref(matrix.dense())

    @pytest.mark.parametrize("seed", range(2))
    def test_blob_voronoi_lwca_with_inversions(self, seed):
        x, _ = make_gaussian_blobs(300, [[0, 0], [6, 0], [3, 5]], spread=1.5, seed=seed)
        arr = voronoi_label_array(x, 10, np.random.default_rng(seed))
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        matrix = build_lwca(view, annotate_validity(view, 0.4))
        expected = ref.average_link_argmax_ref(matrix.dense())
        sims = [merge[3] for merge in expected]
        assert any(later > earlier for earlier, later in zip(sims, sims[1:]))
        assert merge_tuples(build_dendrogram(matrix)) == expected

    @pytest.mark.parametrize("seed", [512, 1425])
    def test_tied_coassociation_with_every_row_distinct(self, seed):
        # an all-singleton column keeps every label row distinct (p = N), so
        # `_dendrogram` works in the matrix itself; on these seeds a merged
        # column ties a row's maximum cached to its right after a compaction
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(40, 200)), int(rng.integers(2, 4))
        arr = np.column_stack([np.arange(n), random_label_array(rng, n, m, max_clusters=6)])
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        expected = ref.average_link_argmax_ref(build_ca(view).dense())
        assert merge_tuples(build_dendrogram(build_ca(view))) == expected
        assert merge_tuples(_dendrogram(*_ca(view))) == expected

    def test_ties_made_by_rounding(self):
        # entries one or two ulps apart: a merged average can round up to
        # exactly tie a row's maximum from a column left of it
        near = np.nextafter(0.3, 0.0)
        palette = np.array([0.3, near, np.nextafter(near, 0.0), 0.1, 0.7])
        rng = np.random.default_rng(1)
        for _ in range(3000):
            n = int(rng.integers(4, 9))
            upper = np.triu(palette[rng.integers(0, palette.size, (n, n))], 1)
            values = upper + upper.T
            np.fill_diagonal(values, 1.0)
            got = merge_tuples(build_dendrogram(sym_matrix(values)))
            assert got == ref.average_link_argmax_ref(values)

    def test_all_zero_matrix(self):
        values = np.zeros((200, 200))
        got = merge_tuples(build_dendrogram(sym_matrix(values)))
        assert got == ref.average_link_argmax_ref(values)


class TestMicroclusters:
    """Objects with equal label rows share one row of the stored matrix; the
    dendrogram must still be the dense loop's, merge for merge."""

    @staticmethod
    def assert_dense_loop(matrix):
        expected = ref.average_link_argmax_ref(matrix.dense())
        assert merge_tuples(build_dendrogram(matrix)) == expected
        # the path of lwea and eac, on a writeable copy it may consume
        leaf = np.arange(matrix.n) if matrix.leaf is None else matrix.leaf
        assert merge_tuples(_dendrogram(np.array(matrix.values), leaf)) == expected

    @seed(24)
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_entries_above_one(self, data):
        # hand-built matrices reach 3, above any co-association: the loop
        # needs entries >= 0 only, not <= 1
        p = data.draw(st.integers(1, 6))
        palette = [0.0, 0.3, 1 / 3, 0.7, 1.0, 1.3, 2.0, 7 / 3, 2.1, 3.0]
        cells = data.draw(st.lists(st.sampled_from(palette), min_size=p * p, max_size=p * p))
        upper = np.triu(np.reshape(cells, (p, p)))
        values = upper + np.triu(upper, 1).T
        sizes = data.draw(st.lists(st.integers(1, 15 // p), min_size=p, max_size=p))
        members = data.draw(st.permutations(np.repeat(np.arange(p), sizes).tolist()))
        assume(len(members) >= 2)
        self.assert_dense_loop(CoassocMatrix(values, "lwca", relabel_first_appearance(np.array(members))))

    def test_worked_example_stores_one_row_per_distinct_label_row(self, worked_view):
        matrix = build_ca(worked_view)
        assert matrix.n == 16 and matrix.values.shape == (7, 7)
        assert matrix.leaf.tolist() == [0, 0, 1, 1, 2, 3, 3, 3, 4, 4, 4, 5, 6, 6, 6, 6]
        self.assert_dense_loop(matrix)

    @seed(5150)
    @given(label_arrays(min_n=4, max_n=59, min_m=1, max_m=5, max_clusters=4))
    @settings(max_examples=150, deadline=None)
    def test_tie_heavy_corpus(self, arr):
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        self.assert_dense_loop(build_ca(view))
        for theta in (0.05, 0.4, 1.0):
            report = annotate_validity(view, theta)
            if report.eci.any():
                self.assert_dense_loop(build_lwca(view, report))

    @pytest.mark.parametrize("theta", [1e-9, 1e-3, 0.01, 0.4])
    def test_blob_pool_across_thetas(self, blob_view_m20, theta):
        self.assert_dense_loop(build_lwca(blob_view_m20, annotate_validity(blob_view_m20, theta)))

    def test_voronoi_ensemble_at_n_1500(self):
        x, _ = make_gaussian_blobs(1500, [[0, 0], [6, 0], [3, 5]], spread=1.5, seed=5)
        arr = voronoi_label_array(x, 10, np.random.default_rng(5))
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        matrix = build_lwca(view, annotate_validity(view, 0.4))
        assert matrix.values.shape[0] < 1500
        self.assert_dense_loop(matrix)

    def test_group_tied_by_another_entry_is_demoted(self):
        # the pair's self-similarity 0.5 is also its entry with object 2
        self.assert_dense_loop(CoassocMatrix(np.array([[0.5, 0.5], [0.5, 1.0]]), "ca", np.array([0, 0, 1])))

    def test_group_row_above_its_diagonal_is_demoted(self):
        # a hand-built row may exceed its diagonal; object 0 then joins object 2 first
        self.assert_dense_loop(CoassocMatrix(np.array([[0.2, 0.9], [0.9, 1.0]]), "ca", np.array([0, 0, 1])))

    def test_group_window_holding_another_pair_is_demoted(self):
        # the 4 x 4 loop of four objects at s merges once one ulp below s,
        # and objects 4 and 5 meet at s, before that merge
        s = 0.7065469048855986
        _, low, chain = _intra(4, s, {})
        assert low < s and not chain
        values = np.array([[s, 0.01, 0.02], [0.01, 1.0, s], [0.02, s, 1.0]])
        self.assert_dense_loop(CoassocMatrix(values, "lwca", np.array([0, 0, 0, 0, 1, 2])))

    @pytest.mark.parametrize("group_first", [True, False])
    def test_group_tying_a_pair_completes_only_from_an_earlier_row(self, group_first):
        # a three-member group at S = 0.5 (its chain stays at 0.5) and objects
        # a, b, x: a joins b at 0.9, then ab meets x at (0.9 + 0.1) / 2 = 0.5,
        # a tie the dense loop breaks by row: the group wins when its rows come first
        objects = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.1], [0.9, 0.1, 1.0]])
        values = np.full((4, 4), 0.2)
        if group_first:
            values[0, 0], values[1:, 1:], leaf = 0.5, objects, [0, 0, 0, 1, 2, 3]
        else:
            values[3, 3], values[:3, :3], leaf = 0.5, objects, [0, 1, 2, 3, 3, 3]
        _, low, chain = _intra(3, 0.5, {})
        assert low == 0.5 and chain
        self.assert_dense_loop(CoassocMatrix(values, "lwca", np.array(leaf)))

    @pytest.mark.parametrize("path", ["build_dendrogram", "_dendrogram"])
    def test_merge_average_inside_a_group_window(self, path):
        # group 3 (eight objects) merges as low as 0.4859530530234622, below
        # S_3; the merge of 0 and 1 gives row 2 the value 0.48595305302346226
        values = np.array(
            [
                [1.0, 0.99, 0.8469061060469245, 0.0625],
                [0.99, 1.0, 0.125, 0.0625],
                [0.8469061060469245, 0.125, 1.0, 0.0625],
                [0.0625, 0.0625, 0.0625, 0.4859530530234623],
            ]
        )
        matrix = CoassocMatrix(values, "lwca", np.array([0, 1, 2] + [3] * 8))
        expected = ref.average_link_argmax_ref(matrix.dense())
        got = build_dendrogram(matrix) if path == "build_dendrogram" else _dendrogram(values.copy(), matrix.leaf)
        assert merge_tuples(got) == expected

    def test_hand_built_groups_near_their_self_similarity(self):
        # 2-6 rows of 1-8 members, diagonals at S or an ulp or two from it,
        # off-diagonals at S, an ulp or two around it, or above a diagonal:
        # merge averages and ties land on and beside the groups' intra merges
        rng = np.random.default_rng(1)
        for _ in range(500):
            s = rng.choice([0.4859530530234623, 0.7065469048855986, 0.8070616574286852, rng.uniform(0.3, 0.9)])
            down = np.nextafter(s, 0.0)
            near = np.array([np.nextafter(down, 0.0), down, s, np.nextafter(s, 1.0)])
            palette = np.concatenate((near, [s / 2, s + 0.1, 0.1]))
            p = int(rng.integers(2, 7))
            upper = np.triu(palette[rng.integers(0, palette.size, (p, p))], 1)
            values = upper + upper.T
            np.fill_diagonal(values, near[rng.integers(0, near.size, p)])
            # rows numbered by smallest member, as `_dendrogram` may consume them
            leaf = relabel_first_appearance(rng.permutation(np.repeat(np.arange(p), rng.integers(1, 9, p))))
            self.assert_dense_loop(CoassocMatrix(values, "lwca", leaf))

    def test_rows_out_of_member_order_with_unused_rows(self, blob_view_m20):
        # stored rows shuffled away from smallest-member order, plus two rows
        # no object uses, at 1.0 above every entry: both paths gather the used
        # rows, and the private one leaves the buffer it is handed as it was
        matrix = build_lwca(blob_view_m20, annotate_validity(blob_view_m20, 0.4))
        p = matrix.values.shape[0]
        assert p < matrix.n
        where = np.random.default_rng(4).permutation(p + 2)
        values = np.ones((p + 2, p + 2))
        values[np.ix_(where[:p], where[:p])] = matrix.values
        shuffled = CoassocMatrix(values, "lwca", where[matrix.leaf])
        assert np.array_equal(shuffled.dense(), matrix.dense())
        self.assert_dense_loop(shuffled)
        buffer = values.copy()
        _dendrogram(buffer, shuffled.leaf)
        assert np.array_equal(buffer, values)

    def test_single_group(self):
        self.assert_dense_loop(CoassocMatrix(np.array([[0.7]]), "lwca", np.zeros(9, dtype=np.int64)))

    def test_lwea_memory_below_half_the_dense_matrix(self):
        # blobs and Voronoi columns of 2..39 clusters, as in the lwea-dense
        # benchmark: about 40% of the label rows are distinct, and the stored
        # matrix and the loop's work copy are each p x p
        n = 1500
        angles = np.linspace(0.0, 2.0 * np.pi, 3, endpoint=False)
        x, _ = make_gaussian_blobs(n, 9.0 * np.column_stack([np.cos(angles), np.sin(angles)]), spread=3.0, seed=6)
        rng = np.random.default_rng(6)
        columns = []
        for k in rng.permutation(np.rint(np.linspace(2, 39, 10)).astype(int)):
            sites = x[rng.choice(n, size=k, replace=False)]
            columns.append(((x[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2).argmin(axis=1))
        view = build_ensemble_view(LabelMatrix.from_array(np.column_stack(columns)))
        lwea(view, 3, theta=0.4)
        tracemalloc.start()
        try:
            lwea(view, 3, theta=0.4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 2


class TestInPlaceLoop:
    """`lwea` and `eac` hand their freshly built matrix to the loop, which
    works in that buffer when every slot is one row; public
    `build_dendrogram` leaves its input as it was."""

    @pytest.mark.parametrize("noise", [0.0, 0.1])  # repeated label rows (p < N), then none (p = N)
    def test_lwea_memory_within_one_and_a_half_matrices(self, noise):
        n = 4000
        view = blob_voronoi_view(n, np.rint(np.linspace(2, 64, 40)).astype(int), 4, noise=noise)
        report = annotate_validity(view, 0.4)
        assert report.eci.all()
        p = np.unique(view.cluster_ids, axis=0).shape[0]
        assert p < 0.9 * n if noise == 0 else p == n
        tracemalloc.start()
        try:
            lwea(view, 3, report=report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the matrix, build_lwca's scatter temporaries and its mirror's
        # BLOCK_ROWS x p buffer; the loop adds no p x p copy
        assert peak <= 1.4 * p * p * 8

    def test_public_call_holds_one_work_copy(self):
        # the loop gathers one p x p work copy; each compaction packs the
        # window into one contiguous block, so the cache rebuild over it
        # copies nothing
        view = blob_voronoi_view(1000, np.rint(np.linspace(2, 32, 60)).astype(int), 10, noise=0.1)
        matrix = build_ca(view)
        p = matrix.values.shape[0]
        tracemalloc.start()
        try:
            build_dendrogram(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * p * p * 8

    @pytest.mark.parametrize("kind", ["ca", "lwca"])
    def test_public_call_leaves_the_matrix_alone(self, kind):
        view = blob_voronoi_view(300, [2, 4, 7, 11, 16], 2, noise=0.1)
        matrix = build_ca(view) if kind == "ca" else build_lwca(view, annotate_validity(view, 0.4))
        before = matrix.values.tobytes()
        build_dendrogram(matrix)
        assert matrix.values.tobytes() == before
        assert not matrix.values.flags.writeable

    def test_public_call_leaves_a_writeable_matrix_alone(self):
        values = random_similarity(np.random.default_rng(3), 30)
        before = values.copy()
        build_dendrogram(sym_matrix(values))
        assert np.array_equal(values, before)
        assert values.flags.writeable

    @pytest.mark.parametrize(
        "values, leaf, consumed, demoted",
        [
            # a pair tied by another entry, and a pair whose row passes its
            # diagonal: each is demoted before the first merge, which the
            # loop then makes in a new buffer
            ([[0.5, 0.5], [0.5, 1.0]], [0, 0, 1], True, True),
            ([[0.2, 0.9], [0.9, 1.0]], [0, 0, 1], True, True),
            # a pair that completes, and one row per object
            ([[0.9, 0.3], [0.3, 1.0]], [0, 0, 1], True, False),
            ([[1.0, 0.4, 0.2], [0.4, 1.0, 0.7], [0.2, 0.7, 1.0]], [0, 1, 2], True, False),
            # rows not numbered by smallest member, and a row no object uses
            ([[0.9, 0.3], [0.3, 1.0]], [1, 0, 0], False, False),
            ([[1.0, 0.4, 0.2], [0.4, 1.0, 0.7], [0.2, 0.7, 1.0]], [0, 0, 2], False, False),
        ],
    )
    def test_private_path_consumes_only_when_every_slot_is_one_row(self, values, leaf, consumed, demoted):
        # every used row is one slot; the loop works in a writeable buffer
        # whose rows are numbered by smallest member, each used
        matrix = CoassocMatrix(np.array(values), "ca", np.array(leaf))
        expected = ref.average_link_argmax_ref(matrix.dense())
        assert merge_tuples(build_dendrogram(matrix)) == expected
        buffer = np.array(values)
        assert merge_tuples(_dendrogram(buffer, matrix.leaf)) == expected
        assert consumed == (not np.array_equal(buffer, values))
        # a merge writes into the buffer's off-diagonal entries, a demotion does not
        off = ~np.eye(len(values), dtype=bool)
        assert np.array_equal(buffer[off], np.array(values)[off]) == (demoted or not consumed)

    def test_lwea_and_eac_consume_a_no_repeat_matrix(self, monkeypatch):
        import lwec.evidence as evidence

        seen = []

        def keeping(values, leaf):
            seen.append((values, values.copy()))
            return _dendrogram(values, leaf)

        monkeypatch.setattr(evidence, "_dendrogram", keeping)
        view = blob_voronoi_view(200, [4, 7, 11, 16, 23, 30, 40], 5, noise=0.3)
        assert np.unique(view.cluster_ids, axis=0).shape[0] == 200
        lwea(view, 3, theta=0.4)
        eac(view, 3)
        assert len(seen) == 2
        # the loop overwrote the buffer it was handed (its prefix ends as the
        # compacted matrix); a gathered work copy would leave it as built
        assert all(values.shape == (200, 200) and not np.array_equal(values, built) for values, built in seen)


def is_exact_chain(events, s):
    """Every merge at s or above, each taking the next member into member 0's region."""
    c = len(events) + 1
    pattern = all(event[:2] == (c + t - 1 if t else 0, t + 1) for t, event in enumerate(events))
    return pattern and min(event[3] for event in events) >= s


class TestIntra:
    """A group's intra merges are the full-argmax loop's on the c x c
    matrix filled with s, found without that matrix."""

    # the averages of these round below s at four and at eight members
    NON_CHAIN = [0.7065469048855986, 0.4859530530234623]
    # 200 regions are live at once among 1,000 members
    MANY_REGIONS = float.fromhex("0x1.99b5feba807b7p-2")

    @staticmethod
    def assert_oracle(c, s):
        events, low, chain = _intra(c, s, {})
        assert events == ref.average_link_argmax_ref(np.full((c, c), s))
        assert low == min(event[3] for event in events)
        assert chain == is_exact_chain(events, s)

    @seed(2323)
    @given(
        st.integers(2, 60),
        st.one_of(
            st.floats(0.0, 1.0),
            st.builds(lambda m, k: min(k, m) / m, st.integers(1, 60), st.integers(0, 60)),
            st.just(1.0),
            st.floats(0.0, 1e-300),
            st.sampled_from(NON_CHAIN),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_argmax_loop(self, c, s):
        self.assert_oracle(c, s)

    @pytest.mark.parametrize("s", NON_CHAIN + [MANY_REGIONS, 0.3, 0.9, 0.5])
    def test_matches_the_argmax_loop_at_300_members(self, s):
        self.assert_oracle(300, s)

    def test_regions_not_a_square_matrix(self):
        # the c x c matrix would take c^2 * 8 bytes
        c, s = 1000, self.MANY_REGIONS
        tracemalloc.start()
        try:
            _intra(c, s, {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < c * c * 8 / 2


def edge_reference(view, k, weights):
    """Labels of the dense pipeline: N x N accumulation, full-argmax loop, cut."""
    merges = ref.average_link_argmax_ref(ref.coassoc_dense_ref(view, weights))
    return ref.cut_ref(merges, view.n_objects, k)


class TestEdgeCases:
    """lwea and eac agree with the reference pipeline at the edges, or raise
    a named error."""

    CASES = {
        "single column": np.array([[0], [1], [0], [2], [1], [1], [2], [0]]),
        "single all-singleton column": np.arange(7)[:, None],
        # every label row distinct: s = p = N, the loop works in the matrix
        "all-singleton column": np.column_stack([np.arange(9), [0, 0, 1, 1, 2, 2, 0, 1, 2], [0, 1] * 4 + [1]]),
        "repeated columns": np.column_stack([[0, 1, 1, 0, 2, 2, 0]] * 3),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("theta", [0.4, None])  # None: eac
    def test_every_k_against_reference(self, name, theta):
        view = build_ensemble_view(LabelMatrix.from_array(self.CASES[name]))
        n = view.n_objects
        weights = np.ones(view.n_clusters) if theta is None else annotate_validity(view, theta).eci
        for k in range(1, n + 1):
            got = eac(view, k) if theta is None else lwea(view, k, theta=theta)
            assert np.array_equal(got.labels, edge_reference(view, k, weights)), k

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_k_equal_to_the_pooled_cluster_count(self, name):
        view = build_ensemble_view(LabelMatrix.from_array(self.CASES[name]))
        k = view.n_clusters
        if k > view.n_objects:
            with pytest.raises(ValueError, match="k must be in"):
                lwea(view, k, theta=0.4)
            with pytest.raises(ValueError, match="k must be in"):
                eac(view, k)
            return
        report = annotate_validity(view, 0.4)
        assert np.array_equal(lwea(view, k, report=report).labels, edge_reference(view, k, report.eci))
        assert np.array_equal(eac(view, k).labels, edge_reference(view, k, np.ones(k)))


class TestCutDendrogram:
    @pytest.fixture()
    def example(self):
        return build_dendrogram(
            sym_matrix([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
        )

    def test_k_equals_n_identity(self, example):
        assert cut_dendrogram(example, 3).labels.tolist() == [0, 1, 2]

    def test_k_one_single_cluster(self, example):
        assert cut_dendrogram(example, 1).labels.tolist() == [0, 0, 0]

    def test_k_two_reads_merge_history(self, example):
        assert cut_dendrogram(example, 2).labels.tolist() == [0, 0, 1]

    def test_out_of_range_rejected(self, example):
        with pytest.raises(ValueError):
            cut_dendrogram(example, 0)
        with pytest.raises(ValueError):
            cut_dendrogram(example, 4)

    @given(st.integers(0, 10_000), st.integers(4, 12))
    @settings(max_examples=60, deadline=None)
    def test_cuts_are_nested(self, seed, n):
        rng = np.random.default_rng(seed)
        d = build_dendrogram(sym_matrix(random_similarity(rng, n)))
        for k in range(1, n):
            coarse = cut_dendrogram(d, k).labels
            fine = cut_dendrogram(d, k + 1).labels
            # every fine cluster maps into exactly one coarse cluster,
            # and exactly two fine clusters share a coarse id
            pairs = {(f, c) for f, c in zip(fine.tolist(), coarse.tolist())}
            assert len(pairs) == k + 1
            coarse_ids = [c for _, c in pairs]
            assert len(set(coarse_ids)) == k

    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_every_k_from_one_replay(self, n):
        rng = np.random.default_rng(n)
        d = build_dendrogram(sym_matrix(random_similarity(rng, n)))
        ks = [2, n, 1, max(1, n // 3), 2, n - 1]  # unsorted, with a repeat
        cuts = _cuts(d, ks)
        assert len(cuts) == len(ks)
        for k, labels in zip(ks, cuts):
            assert np.array_equal(labels, cut_dendrogram(d, k).labels)
            assert np.array_equal(labels, ref.cut_ref(merge_tuples(d), n, k))
        with pytest.raises(ValueError):
            _cuts(d, [2, n + 1])

    def test_labels_ordered_by_smallest_member(self):
        rng = np.random.default_rng(77)
        d = build_dendrogram(sym_matrix(random_similarity(rng, 9)))
        for k in range(1, 10):
            labels = cut_dendrogram(d, k).labels
            firsts = [int(np.flatnonzero(labels == g)[0]) for g in range(k)]
            assert firsts == sorted(firsts)


class TestLwea:
    def test_unit_weights_equal_plain_evidence_accumulation(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(4, 20))
            m = int(rng.integers(1, 6))
            view = build_ensemble_view(
                LabelMatrix.from_array(random_label_array(rng, n, m))
            )
            unit = ValidityReport(
                uncertainty=np.zeros(view.n_clusters),
                eci=np.ones(view.n_clusters),
                theta=1.0,
                ensemble_size=m,
            )
            k = int(rng.integers(1, n + 1))
            assert np.array_equal(
                lwea(view, k, report=unit).labels, eac(view, k).labels
            )

    def test_repeated_clustering_recovered_exactly(self):
        col = np.array([0, 1, 2, 0, 1, 2, 1, 0, 2, 2])
        view = build_ensemble_view(LabelMatrix.from_array(np.column_stack([col] * 5)))
        result = lwea(view, 3)
        assert np.array_equal(result.labels, col)

    def test_worked_example_matches_chained_naive_pipeline(self, worked_matrix):
        labels = worked_matrix.labels
        uncertainties = ref.all_uncertainties_ref(labels)
        weights = np.array([ref.eci_decimal(u, 0.5, 3) for u in uncertainties])
        lwca = ref.lwca_ref(labels, weights)
        merges = ref.average_link_ref(lwca)
        expected = ref.cut_ref(merges, 16, 3)
        view = build_ensemble_view(worked_matrix)
        got = lwea(view, 3, theta=0.5)
        assert np.array_equal(got.labels, expected)
        assert got.method == "lwea"
        assert got.k == 3

    def test_column_order_invariance(self):
        rng = np.random.default_rng(41)
        arr = random_label_array(rng, 12, 4)
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        shuffled = build_ensemble_view(LabelMatrix.from_array(arr[:, [2, 0, 3, 1]]))
        for k in (2, 3, 5):
            assert np.array_equal(
                lwea(view, k, theta=0.4).labels, lwea(shuffled, k, theta=0.4).labels
            )

    def test_base_relabel_invariance(self):
        rng = np.random.default_rng(43)
        arr = random_label_array(rng, 12, 3)
        relabeled = arr.copy()
        for col in range(3):
            perm = rng.permutation(int(arr[:, col].max()) + 1)
            relabeled[:, col] = perm[arr[:, col]]
        a = lwea(build_ensemble_view(LabelMatrix.from_array(arr)), 3)
        b = lwea(build_ensemble_view(LabelMatrix.from_array(relabeled)), 3)
        assert np.array_equal(a.labels, b.labels)

    @given(label_arrays(min_n=4, max_n=10, max_m=3))
    @settings(max_examples=30, deadline=None)
    def test_full_composition_matches_stepwise(self, arr):
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        report = annotate_validity(view, 0.4)
        stepwise = cut_dendrogram(build_dendrogram(build_lwca(view, report)), 3 if view.n_objects >= 3 else 2)
        k = stepwise.k
        assert np.array_equal(lwea(view, k, theta=0.4).labels, stepwise.labels)
