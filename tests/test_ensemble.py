"""Label-matrix parsing, the pooled cluster view, and wire-format round trips."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwec import (
    ConsensusResult,
    DegenerateClusteringWarning,
    LabelMatrix,
    annotate_validity,
    build_ca,
    build_ensemble_view,
    build_lwbg,
    build_lwca,
    eac,
    lwea,
    lwgp,
    parse_label_matrix,
    read_labels,
    write_label_matrix,
    write_labels,
)
from lwec import ensemble
from lwec.ensemble import BLOCK_ROWS, _add_transpose, _dense_remap, _distinct_rows, relabel_first_appearance

import reference as ref
from conftest import cluster_members, column_members, label_arrays, random_label_array, repeated_rows


class TestParsing:
    def test_small_matrix_counts(self):
        m = parse_label_matrix("0,0\n0,1\n1,1")
        assert m.n_objects == 3
        assert m.n_clusterings == 2
        assert m.n_clusters_total == 4

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            parse_label_matrix("0,0\n0,1,1")

    def test_non_integer_cell_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            parse_label_matrix("0,0\n0,x")

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            parse_label_matrix("0,0\n0,-1")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_label_matrix("")
        with pytest.raises(ValueError, match="empty"):
            parse_label_matrix("# just a header\n\n")

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="at least 2 objects"):
            parse_label_matrix("0,1")

    def test_header_and_blanks_skipped(self):
        m = parse_label_matrix("# a,b\n\n0,0\n\n0,1\n1,1\n")
        assert m.n_objects == 3

    def test_header_after_data_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_label_matrix("0,0\n# too late\n1,1")

    def test_degenerate_column_warns(self):
        with pytest.warns(DegenerateClusteringWarning):
            parse_label_matrix("0,3\n1,3\n0,3")

    def test_file_object_source(self):
        m = parse_label_matrix(io.StringIO("0,0\n0,1\n1,1"))
        assert m.n_objects == 3

    def test_labels_remapped_dense_first_appearance(self):
        m = parse_label_matrix("7,10\n7,2\n3,2")
        assert m.labels[:, 0].tolist() == [0, 0, 1]
        assert m.labels[:, 1].tolist() == [0, 1, 1]
        assert m.original_labels == ((7, 3), (10, 2))

    def test_worked_example_shape(self, worked_matrix):
        assert worked_matrix.n_objects == 16
        assert worked_matrix.clusters_per_column == (3, 3, 3)
        assert worked_matrix.n_clusters_total == 9


def parse_outcome(parse, text):
    """The matrix a parser returns, or the type and message of what it raises."""
    try:
        matrix = parse(text)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return matrix.labels.tolist(), matrix.original_labels


class TestParserAgainstLineLoop:
    """`parse_label_matrix` parses all rows in one C pass and walks the rows in
    Python only where that pass refuses them; the line-by-line loop it replaced
    gives the same matrix and the same first error."""

    LINES = [
        "0,1", "1,0", "2,2", " 3 ,4 ", "5,6", "-0,1", "+1,2", "1\t,2",  # good rows
        # good rows only int() takes whole: the C pass refuses '1_0' and '٣';
        # '\xa0' pads a cell, and '\x0b' is a line break to str.splitlines
        "1_0,2", "٣,1", "0,\xa01", "\x0b2,0",
        "# header", "#x,1",  # a '#' row
        "1,2,3", "5", "", "   ",  # ragged rows and blank lines
        "1,-2", "-99999999999999999999,x",  # negative labels
        "a,1", "1.0,2", "1,", ",1", "1 2,3", "1, ,2",  # non-integer and whitespace cells
        "99999999999999999999,1",  # too large for int64
    ]

    @staticmethod
    def loop_outcome(text):
        """The line loop's outcome, except that where it overflows on an id past
        int64, after all its row checks passed, the parser names the first line
        holding such an id."""
        outcome = parse_outcome(ref.parse_label_matrix_loop_ref, text)
        if outcome[0] != "OverflowError":
            return outcome
        rows = [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1) if line.strip()]
        lineno = next(
            lineno for lineno, line in rows
            if not line.strip().startswith("#") and max(map(int, line.split(","))) > np.iinfo(np.int64).max
        )
        return "ValueError", f"line {lineno}: cluster label too large for int64"

    @pytest.mark.parametrize("text", [
        "", "\n\n", "# only a header\n", "0,1\n# stray\n1,0", "# a\n# b\n0,1\n1,0",
        "0,1\n1,0,1\n1,-1", "0,x\n1,0,1", "0,1\n1,-1\n1,x", " \n0 , 1\n\t\n1,0\n",
        "1,2\n99999999999999999999,3\n", "0,99999999999999999999\n1,2,3",
        "# h\n\n0,1\n 99999999999999999999 ,9223372036854775808\n",
    ])
    def test_named_cases(self, text):
        assert parse_outcome(parse_label_matrix, text) == self.loop_outcome(text)

    def test_malformed_corpus(self):
        rng = np.random.default_rng(2718)
        overflows = walked = 0
        for _ in range(3000):
            picks = rng.integers(0, len(self.LINES), size=int(rng.integers(0, 7)))
            text = "\n".join(self.LINES[i] for i in picks) + "\n" * int(rng.integers(0, 2))
            want = self.loop_outcome(text)
            overflows += str(want[1]).endswith("too large for int64")
            walked += isinstance(want[0], list) and ("1_0" in text or "٣" in text)
            assert parse_outcome(parse_label_matrix, text) == want
        assert overflows > 0 and walked > 0


class TestNumberingAgainstSort:
    """`_dense_remap` numbers by a scatter of first positions; the sort over
    the whole column it replaced gives the same dense labels and originals."""

    INT64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
    COLUMNS = st.one_of(
        st.lists(st.integers(0, 5), min_size=1, max_size=40).map(np.array),  # labels < 2N
        st.lists(st.integers(0, 200), min_size=1, max_size=12).map(np.array),  # labels >= 2N
        st.lists(st.integers(-5, 5), min_size=1, max_size=20).map(np.array),  # negative labels
        st.lists(
            st.one_of(st.sampled_from([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 1]), INT64),
            min_size=1, max_size=20,
        ).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(  # uint64 past int64
            st.one_of(st.integers(0, 3), st.integers(2**63, 2**64 - 1)), min_size=1, max_size=20,
        ).map(lambda v: np.array(v, dtype=np.uint64)),
        st.tuples(INT64, st.integers(1, 20)).map(lambda vn: np.full(vn[1], vn[0], dtype=np.int64)),  # all equal
    )

    @given(COLUMNS)
    @settings(max_examples=300)
    def test_same_numbering_as_sort(self, column):
        dense, original = _dense_remap(column)
        want_dense, want_original = ref.dense_remap_sort_ref(column)
        assert dense.dtype == np.int64 and dense.tolist() == want_dense.tolist()
        assert original == want_original
        assert all(type(v) is int for v in original)


class TestDistinctRows:
    """The view numbers its distinct label rows once, by first appearance:
    `np.unique` over the rows, renumbered, gives the same numbering."""

    @staticmethod
    def check(arr):
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        got = view._rows
        for have, want in zip(got, ref.distinct_rows_ref(view.labels.labels)):
            assert have.dtype == np.int64 and np.array_equal(have, want)
        row, first, counts = got
        assert np.array_equal(row[first], np.arange(first.size))
        assert np.array_equal(np.bincount(row), counts)
        assert np.array_equal(np.unique(row, return_index=True)[1], first)
        assert not any(array.flags.writeable for array in got)
        assert view._rows is got
        return got

    @given(label_arrays(max_n=30, max_m=5, max_clusters=6))
    @settings(max_examples=150)
    def test_equals_sorted_rows(self, arr):
        self.check(arr)

    def test_all_rows_equal(self):
        with pytest.warns(DegenerateClusteringWarning):
            row, first, counts = self.check(np.full((7, 3), 4))
        assert row.tolist() == [0] * 7 and first.tolist() == [0] and counts.tolist() == [7]

    def test_all_rows_distinct(self):
        rng = np.random.default_rng(2)
        row, first, counts = self.check(rng.permutation(50)[:, None] * np.ones(3, dtype=int))
        assert row.tolist() == first.tolist() == list(range(50)) and (counts == 1).all()

    def test_repeated_rows(self):
        row, _, counts = self.check(repeated_rows(17))
        assert counts.sum() == 2000 and counts.size <= 30

    def test_wide_keys_are_renumbered(self, monkeypatch):
        # 60 columns of 32 labels: 32^60 keys, far past 2^62, so the packed
        # key is renumbered every dozen columns
        rng = np.random.default_rng(9)
        base = np.column_stack([rng.permutation(np.arange(300) % 32) for _ in range(60)])
        arr = base[rng.integers(0, 300, size=400)]
        arr[:300] = base
        renumbered = []
        unique = np.unique

        def spy(a, *args, **kwargs):
            renumbered.append(a.size)
            return unique(a, *args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        row, _, counts = self.check(arr)
        assert len(renumbered) >= 5 and counts.size == 300
        assert np.array_equal(row, _distinct_rows(arr, [1 << 40] * 60)[0])

    def test_graph_numbers_its_own_rows(self):
        arr = repeated_rows(5, n=300)
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        # the graph reads the view's numbering; it keeps none of its own
        assert build_lwbg(view, annotate_validity(view, 0.4)).view._rows is view._rows

    def test_numbered_once_per_view(self, monkeypatch):
        calls = []
        number = ensemble._distinct_rows

        def spy(table, radices):
            calls.append(table)
            return number(table, radices)

        monkeypatch.setattr(ensemble, "_distinct_rows", spy)
        view = build_ensemble_view(LabelMatrix.from_array(repeated_rows(3, n=300)))
        report = annotate_validity(view, 0.4)
        lwea(view, 3, report=report)
        eac(view, 3)
        lwgp(view, 3, report=report)
        build_ca(view)
        assert len(calls) == 1 and calls[0] is view.labels.labels
        assert build_lwca(view, report).leaf is view._rows[0]


@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 5 * BLOCK_ROWS + 3])
def test_add_transpose_in_place_matches_the_out_of_place_sum(n):
    w = np.random.default_rng(n).random((n, n))
    expected = w + w.T
    assert _add_transpose(w) is w
    assert w.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [BLOCK_ROWS - 1, 5 * BLOCK_ROWS + 3])
def test_add_transpose_then_halving_the_diagonal_mirrors_a_lower_triangle(n):
    # the co-association's mirror: its strict upper triangle is 0
    w = np.tril(np.random.default_rng(n).random((n, n)))
    expected = np.tril(w) + np.tril(w, -1).T
    _add_transpose(w).flat[:: n + 1] /= 2
    assert w.tobytes() == expected.tobytes()


class TestEnsembleView:
    def test_worked_example_first_column_sizes(self, worked_view):
        sizes = [c.size for c in column_members(worked_view, 0)]
        assert sizes == [8, 3, 5]

    def test_single_degenerate_column(self):
        with pytest.warns(DegenerateClusteringWarning):
            m = LabelMatrix.from_array(np.full((5, 1), 9))
        view = build_ensemble_view(m)
        assert view.n_clusters == 1
        assert cluster_members(view)[0].tolist() == [0, 1, 2, 3, 4]

    def test_duplicate_columns_duplicate_members(self):
        col = np.array([0, 1, 0, 2, 1])
        view = build_ensemble_view(LabelMatrix.from_array(np.column_stack([col, col])))
        assert view.n_clusters == 6
        for a, b in zip(column_members(view, 0), column_members(view, 1)):
            assert a.tolist() == b.tolist()

    @given(label_arrays())
    @settings(max_examples=60)
    def test_columns_partition_objects(self, arr):
        view = build_ensemble_view(LabelMatrix.from_array(arr))
        n = view.n_objects
        for col in range(view.n_clusterings):
            seen = np.concatenate(column_members(view, col))
            assert sorted(seen.tolist()) == list(range(n))

    @given(label_arrays())
    @settings(max_examples=60)
    def test_cluster_count_is_column_sum(self, arr):
        m = LabelMatrix.from_array(arr)
        view = build_ensemble_view(m)
        assert view.n_clusters == sum(m.clusters_per_column)
        assert view.n_clusters == m.n_clusters_total


class TestRoundTrip:
    @given(label_arrays())
    @settings(max_examples=40)
    def test_parse_write_parse_identical(self, arr):
        m = LabelMatrix.from_array(arr)
        buf = io.StringIO()
        write_label_matrix(m, buf)
        again = parse_label_matrix(buf.getvalue())
        assert np.array_equal(m.labels, again.labels)

    def test_label_column_roundtrip(self, tmp_path):
        labels = np.array([0, 2, 1, 1, 0])
        path = tmp_path / "labels.txt"
        write_labels(labels, str(path))
        assert path.read_text() == "0\n2\n1\n1\n0\n"
        assert np.array_equal(read_labels(path.read_text()), labels)

    def test_read_labels_errors(self):
        with pytest.raises(ValueError, match="empty"):
            read_labels("")
        with pytest.raises(ValueError, match="non-integer"):
            read_labels("1\nx\n")

    @pytest.mark.parametrize("text, message", [
        ("0\n1\n# late\n1\n", "^line 3: unexpected '#' row"),
        ("# header\n0\n\n-1\n", "^line 4: negative cluster label$"),
        ("0\n1,1\n", r"^line 2: ragged rows \(2 cells, expected 1\)$"),
        ("# h\n0,1\n1,0\n", r"^line 2: ragged rows \(2 cells, expected 1\)$"),  # even rows, too wide
        ("# header only\n", "^empty label file$"),
    ])
    def test_read_labels_names_the_bad_line(self, text, message):
        # one table rule for every file: only a leading '#' row, no negative labels
        with pytest.raises(ValueError, match=message):
            read_labels(text)


class TestConsensusResult:
    def test_valid_result(self):
        res = ConsensusResult(labels=np.array([0, 1, 0]), k=2, method="lwea")
        assert res.n_groups == 2

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            ConsensusResult(labels=np.array([0, 2]), k=2, method="lwea")
        with pytest.raises(ValueError):
            ConsensusResult(labels=np.array([-1, 0]), k=2, method="lwea")

    def test_relabel_first_appearance(self):
        assert relabel_first_appearance(np.array([5, 3, 5, 9, 3])).tolist() == [0, 1, 0, 2, 1]
