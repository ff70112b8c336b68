"""Public names resolve, and the attributes that perfbench/bench.py reads keep their shapes."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lwec
from lwec import (
    annotate_validity,
    build_dendrogram,
    build_lwbg,
    build_lwca,
)

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


def test_numpy_is_the_only_numeric_dependency():
    # scipy is not a dependency: a scipy import that works where scipy happens
    # to be installed breaks for every user who installed lwec alone
    code = "import sys, lwec, lwec.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(lwec.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
