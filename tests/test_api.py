"""Public names resolve, the attributes that perfbench/bench.py reads keep their
shapes, and records that hold arrays compare by identity."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lwec
from lwec import (
    ConsensusResult,
    LabelMatrix,
    annotate_validity,
    build_dendrogram,
    build_ensemble_view,
    build_lwbg,
    build_lwca,
)
from lwec.harness import SweepRow

from conftest import WORKED_ROWS

MODULES = ("ensemble", "validity", "coassoc", "evidence", "graphcut", "kmeans", "harness")


def test_package_all_resolves():
    missing = [name for name in lwec.__all__ if not hasattr(lwec, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"lwec.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_attributes_read_by_the_benchmark(worked_view):
    view = worked_view
    n, m = view.n_objects, view.n_clusterings
    assert (n, m) == (16, 3)
    assert view.cluster_ids.shape == (n, m)
    assert isinstance(view.n_clusters, int) and view.n_clusters == 9

    report = annotate_validity(view, theta=0.5)
    assert report.eci.shape == (view.n_clusters,)

    matrix = build_lwca(view, report)
    assert matrix.dense().shape == (n, n) and matrix.dense().dtype == np.float64

    dendrogram = build_dendrogram(matrix)
    assert len(dendrogram.merges) == n - 1
    assert all(isinstance(event.similarity, float) for event in dendrogram.merges)

    graph = build_lwbg(view, report)
    assert (graph.n_objects, graph.n_clusters) == (n, view.n_clusters)


def records() -> dict:
    """One of each record type that holds arrays, built from the worked example."""
    matrix = LabelMatrix.from_array(np.array(WORKED_ROWS))
    view = build_ensemble_view(matrix)
    report = annotate_validity(view, theta=0.5)
    lwca = build_lwca(view, report)
    return {
        "LabelMatrix": matrix,
        "EnsembleView": view,
        "ValidityReport": report,
        "CoassocMatrix": lwca,
        "Dendrogram": build_dendrogram(lwca),
        "BipartiteGraph": build_lwbg(view, report),
        "ConsensusResult": ConsensusResult(np.array([0, 1, 1, 0]), 2, "lwea"),
        "SweepRow": SweepRow("lwea", "theta", 0.4, np.array([0.5, 0.75])),
    }


@pytest.mark.parametrize("name", sorted(records()))
def test_records_compare_by_identity(name):
    # a field-by-field == compared array fields elementwise and raised
    # "The truth value of an array ... is ambiguous" on equal-valued twins
    record, twin = records()[name], records()[name]
    assert record == record
    assert not (record == twin)


def test_numpy_is_the_only_numeric_dependency():
    # scipy is not a dependency: a scipy import that works where scipy happens
    # to be installed breaks for every user who installed lwec alone
    code = "import sys, lwec, lwec.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(lwec.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
