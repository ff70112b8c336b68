"""Ensemble model: label matrices, the pooled cluster incidence, and wire formats.

A base clustering assigns every object exactly one cluster label; an ensemble
stacks M base clusterings over the same N objects column-wise. Labels are
remapped to dense 0-based integers per column on ingest (original labels are
kept for diagnostics), so downstream code can index clusters by dense id.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable

import numpy as np

__all__ = [
    "DegenerateClusteringWarning",
    "LabelMatrix",
    "EnsembleView",
    "ConsensusResult",
    "parse_label_matrix",
    "build_ensemble_view",
    "write_label_matrix",
    "read_labels",
    "write_labels",
    "relabel_first_appearance",
]

# rows per block of every in-place square pass; its one temporary is BLOCK_ROWS x n
BLOCK_ROWS = 64


class DegenerateClusteringWarning(UserWarning):
    """A base clustering puts every object into a single cluster."""


def _dense_remap(column: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Remap arbitrary integer labels to dense 0-based ids, in order of first appearance.

    No sort of the column: one reversed scatter of positions into a table
    indexed by label leaves each label's first position (numpy assigns repeated
    indices in order, so the earliest position is written last), and only the
    distinct labels are then argsorted by it. A column with a negative label or
    a label >= 2N is first compressed by `np.unique(..., return_inverse=True)`,
    so the table never exceeds 2N entries.
    """
    col = np.asarray(column)
    n = col.size
    uniq = None
    if n and (col.min() < 0 or col.max() >= 2 * n):
        uniq, col = np.unique(col, return_inverse=True)
    first = np.full(int(col.max()) + 1 if n else 0, n, dtype=np.int64)
    first[col[::-1]] = np.arange(n - 1, -1, -1)
    present = np.flatnonzero(first < n)
    order = present[np.argsort(first[present])]
    rank = np.empty(first.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank[col], tuple((order if uniq is None else uniq[order]).tolist())


def relabel_first_appearance(labels: np.ndarray) -> np.ndarray:
    """Canonical labeling: group ids renumbered 0..k-1 by first appearance.

    First appearance along the vector coincides with ordering groups by their
    smallest member index.
    """
    dense, _ = _dense_remap(np.asarray(labels))
    return dense


def _distinct_rows(table: np.ndarray, radices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the distinct rows of an N x M table of non-negative ints, column
    m below radices[m], by first appearance, so also by smallest object:
    returns (row, first, counts), where row[i] is object i's row, first[r]
    row r's smallest object and counts[r] its object count.

    The columns are packed into one int64 key, each column's radix times the
    key so far plus its value. `np.unique` renumbers the key densely only
    when the next column could take it past 2^62; `relabel_first_appearance`
    then numbers it.
    """
    n = table.shape[0]
    key = np.zeros(n, dtype=np.int64)
    bound = 1  # every key so far is below it
    for column, radix in zip(table.T, map(int, radices)):
        if bound * radix > 1 << 62:
            uniq, key = np.unique(key, return_inverse=True)
            bound = uniq.size
        key = key * radix + column
        bound *= radix
    row = relabel_first_appearance(key)
    counts = np.bincount(row)
    first = np.empty(counts.size, dtype=np.int64)
    first[row[::-1]] = np.arange(n - 1, -1, -1)
    return row, first, counts


def _add_transpose(a: np.ndarray) -> np.ndarray:
    """a + a^T in place, BLOCK_ROWS rows at a time in one buffer; x + y rounds
    the same either way round, so both halves get the out-of-place sum's bits."""
    n = a.shape[0]
    buf = np.empty((min(BLOCK_ROWS, n), n))
    for r in range(0, n, BLOCK_ROWS):
        b = min(r + BLOCK_ROWS, n)
        block = np.add(a[r:b, r:], a[r:, r:b].T, out=buf[: b - r, : n - r])
        a[r:b, r:] = block
        a[r:, r:b] = block.T
    return a


@dataclass(frozen=True, eq=False)
class LabelMatrix:
    """N x M integer matrix; column m holds base clustering m as dense 0-based labels."""

    labels: np.ndarray
    original_labels: tuple[tuple[int, ...], ...]

    @classmethod
    def from_array(cls, raw) -> "LabelMatrix":
        arr = np.asarray(raw)
        if arr.ndim != 2:
            raise ValueError(f"label matrix must be 2-D, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("label matrix must contain integers")
        n, m = arr.shape
        if n < 2:
            raise ValueError(f"need at least 2 objects, got {n}")
        if m < 1:
            raise ValueError("need at least 1 base clustering")
        dense = np.empty((n, m), dtype=np.int64)
        originals = []
        for col in range(m):
            dense[:, col], orig = _dense_remap(arr[:, col])
            originals.append(orig)
            if len(orig) == 1:
                warnings.warn(
                    f"base clustering {col} is degenerate (single cluster)",
                    DegenerateClusteringWarning,
                    stacklevel=2,
                )
        dense.flags.writeable = False
        return cls(labels=dense, original_labels=tuple(originals))

    @property
    def n_objects(self) -> int:
        return self.labels.shape[0]

    @property
    def n_clusterings(self) -> int:
        return self.labels.shape[1]

    @property
    def clusters_per_column(self) -> tuple[int, ...]:
        return tuple(len(orig) for orig in self.original_labels)

    @property
    def n_clusters_total(self) -> int:
        return sum(self.clusters_per_column)


@dataclass(frozen=True, eq=False)
class EnsembleView:
    """Label matrix plus cluster_ids[i, m], the pooled id of object i's cluster in
    column m: the only representation of the pooled clusters. Column m's clusters
    get ids column_offsets[m] .. column_offsets[m + 1] - 1, in dense label order.

    Objects with equal label rows are interchangeable to the cluster
    uncertainty, the co-association and the bipartite graph, so those passes
    run once per distinct row (`_rows`, numbered once per view) and gather
    their per-object results through it."""

    labels: LabelMatrix
    column_offsets: np.ndarray
    cluster_ids: np.ndarray

    @property
    def n_objects(self) -> int:
        return self.labels.n_objects

    @property
    def n_clusterings(self) -> int:
        return self.labels.n_clusterings

    @property
    def n_clusters(self) -> int:
        return int(self.column_offsets[-1])

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_distinct_rows` of the label matrix, (row, first, counts): built on
        first use, then kept read-only for the view's lifetime."""
        rows = _distinct_rows(self.labels.labels, self.labels.clusters_per_column)
        for array in rows:
            array.flags.writeable = False
        return rows

    @cached_property
    def _uncertainty(self) -> np.ndarray:
        """`validity.uncertainty_table(self)`: built on first use, then kept
        read-only for the view's lifetime."""
        from .validity import _uncertainty_table  # validity imports this module

        table = _uncertainty_table(self)
        table.flags.writeable = False
        return table


def build_ensemble_view(labels: LabelMatrix) -> EnsembleView:
    """Number the pooled clusters of a label matrix column by column.

    The dense per-column label representation makes the partition invariants
    (disjoint, non-empty clusters covering all objects within a column) hold
    by construction.
    """
    offsets = np.concatenate(([0], np.cumsum(labels.clusters_per_column)))
    cluster_ids = labels.labels + offsets[:-1][None, :]
    cluster_ids.flags.writeable = False
    offsets.flags.writeable = False
    return EnsembleView(labels=labels, column_offsets=offsets, cluster_ids=cluster_ids)


@dataclass(frozen=True, eq=False)
class ConsensusResult:
    """A consensus labeling: length-N vector with values in [0, k)."""

    labels: np.ndarray
    k: int
    method: str

    def __post_init__(self):
        arr = np.asarray(self.labels, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("labels must be a non-empty 1-D vector")
        if arr.min() < 0 or arr.max() >= self.k:
            raise ValueError(f"labels must lie in [0, {self.k})")
        arr.flags.writeable = False
        object.__setattr__(self, "labels", arr)

    @property
    def n_groups(self) -> int:
        return int(np.unique(self.labels).size)


def _read_text(source: str | IO[str] | Iterable[str]) -> str:
    if hasattr(source, "read"):
        return source.read()
    if isinstance(source, str):
        return source
    return "\n".join(source)


def _write_text(text: str, out: str | IO[str]) -> None:
    """Write to an open text stream, or create the file at path `out`."""
    if hasattr(out, "write"):
        out.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def parse_label_matrix(source: str | IO[str] | Iterable[str]) -> LabelMatrix:
    """Parse the label-matrix wire format.

    Comma-separated integers, one row per object, one column per base
    clustering; an optional single leading '#' header row and blank lines are
    skipped, as in every lwec file. Raises ValueError on empty input, or naming
    the first bad line: a later '#' row, a ragged row, a non-integer or negative
    cell. A single-label column is accepted but flagged with DegenerateClusteringWarning.

    The rows are parsed in one C-level `np.loadtxt` pass. Whatever that pass
    refuses (every fault, and cells only Python's `int()` takes, such as
    '1_0') falls back to a Python walk over the rows, which returns the same
    matrix or names the first bad line; an id past int64 is reported only
    after every row passed its checks.
    """
    return LabelMatrix.from_array(_parse_table(source, int, "label matrix"))


def _parse_table(source: str | IO[str] | Iterable[str], cast: type, what: str, width: int = 0) -> np.ndarray:
    """A table of `parse_label_matrix`'s format as a 2-D array of `cast` (int or
    float) cells, int cells non-negative; `width` cells a row, or the first row's."""
    lines = _read_text(source).splitlines()
    rows = [row for line in lines if (row := line.strip())]
    if rows and rows[0].startswith("#"):
        rows = rows[1:]
    if not rows:
        raise ValueError(f"empty {what}")
    width = width or rows[0].count(",") + 1
    dtype = np.int64 if cast is int else np.float64
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # older numpy reads '1.0' as an int, with only a DeprecationWarning
            table = np.loadtxt(rows, delimiter=",", dtype=dtype, comments=None, ndmin=2)
        if table.shape[1] == width and (cast is float or table.min() >= 0):
            return table
    except (ValueError, OverflowError, Warning):
        pass
    # the C pass refused the table: walk its rows for the first bad line, or
    # for cells only int() and float() take; both ignore a cell's whitespace
    numbered = [(lineno, row) for lineno, line in enumerate(lines, start=1) if (row := line.strip())][-len(rows) :]
    values = []
    for lineno, row in numbered:
        if row.startswith("#"):
            raise ValueError(f"line {lineno}: unexpected '#' row (only a single leading header is allowed)")
        try:
            values.append([cast(cell) for cell in row.split(",")])
        except ValueError:
            raise ValueError(f"line {lineno}: non-{'integer' if cast is int else 'numeric'} cell in {row!r}") from None
        if cast is int and min(values[-1]) < 0:
            raise ValueError(f"line {lineno}: negative cluster label")
        if len(values[-1]) != width:
            raise ValueError(f"line {lineno}: ragged rows ({len(values[-1])} cells, expected {width})")
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:  # an int cell past int64
        lineno = next(lineno for (lineno, _), row in zip(numbered, values) if max(row) > np.iinfo(np.int64).max)
        raise ValueError(f"line {lineno}: cluster label too large for int64") from None


def write_label_matrix(matrix: LabelMatrix, out: str | IO[str]) -> None:
    """Serialize dense labels as CSV (the same wire format parse accepts)."""
    text = "\n".join(",".join(map(str, row)) for row in matrix.labels.tolist()) + "\n"
    _write_text(text, out)


def read_labels(source: str | IO[str] | Iterable[str]) -> np.ndarray:
    """Read a single-column label file: one non-negative integer per line."""
    return _parse_table(source, int, "label file", width=1).ravel()


def write_labels(labels: np.ndarray, out: str | IO[str]) -> None:
    """Write one integer label per line (0-based)."""
    _write_text("\n".join(map(str, np.asarray(labels, dtype=np.int64).tolist())) + "\n", out)
