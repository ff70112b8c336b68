"""Consensus benchmark: four workloads, closed loop, checked outputs, traced layers.

One caller issues operations back to back (a closed loop with one client).
With `--trace 0` it alternates an in-process operation with the same
operation run as `python -m lwec` subprocesses, and times a block of fixed
reference work (reference.py) after each. The end-to-end times are reported
in units of that work: each op's seconds over the mean unit time of the blocks
just before and after it, then the median over the run. Raw seconds are
printed beside them. With `--trace 1` it alternates untraced and traced
in-process operations and reports per-layer metrics from spans recorded
around every public lwec function (see spans.py); the difference between the
two is the tracing overhead. A consensus op parses the label CSV text, builds
the ensemble view and runs the workload's methods at k=3, theta=0.4; a sweep
op is one run_experiment call.

Every run first sets up SETUP_REPEATS times: generate the seeded inputs
(inputs.py, numpy only), write and hash them, and run one untimed, checked
operation as warm-up. `setup_s` is the import time plus the median of those.

Every operation is checked: labels of length N with exactly K non-empty
groups in [0, K), no PartitionWarning, the same bytes on every call, and the
CLI output byte-identical to the in-process output. Any failed check, raised
exception or nonzero exit counts as a failed operation.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import warnings
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import inputs
from reference import reference_seconds
from spans import MODULES, OP, Tracer, self_times, traced

K = 3
THETA = 0.4
SETUP_REPEATS = 3
CLI_TIMEOUT_S = 150.0
MIB = 2.0**20
REFERENCE_BLOCK_S = 0.3  # reference work timed between two operations


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]  # consensus methods run by one op, or ("sweep",)
    n: int
    m: int
    noise: float
    tiny_n: int
    tiny_m: int


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lwea-dense", ("lwea",), 1500, 10, 0.0, 200, 6),
        Workload("lwgp-large", ("lwgp",), 10000, 10, 0.0, 1000, 6),
        Workload("wide-noisy", ("lwea", "lwgp"), 1000, 60, 0.1, 150, 20),
        Workload("sweep", ("sweep",), 300, 10, 0.0, 60, 4),
    )
}
SWEEP = {"pool_size": 100, "runs": 3, "theta_grid": (0.2, 0.4, 0.6, 0.8, 1.0)}
SWEEP_TINY = {"pool_size": 12, "runs": 2, "theta_grid": (0.4, 1.0)}

END_TO_END = {
    "setup_s": "s",
    "consensus_ref": "ref",
    "cli_ref": "ref",
    "peak_rss_mb": "MiB",
    "draws_per_ref": "1/ref",
    "nmi": "ratio",
    "ok_frac": "ratio",
}

# name: (unit, better, the end-to-end metric and workload it should move)
_DENSE = "consensus_ref, cli_ref on lwea-dense; draws_per_ref on sweep; flat on lwgp-large"
_COASSOC = "consensus_ref, peak_rss_mb on lwea-dense; draws_per_ref on sweep; flat on lwgp-large"
_GRAPH = "consensus_ref, peak_rss_mb on lwgp-large and wide-noisy; flat on lwea-dense"
_VALIDITY = "consensus_ref on wide-noisy; flat on lwgp-large"
_ENSEMBLE = "cli_ref, consensus_ref on lwgp-large and wide-noisy"
_SWEEP = "draws_per_ref on sweep; flat on the other three workloads"
_TRACE = "none: tracing itself; self times must sum to the traced op within trace.overhead_s"
PER_LAYER = {
    "evidence.dendrogram_s": ("s", "lower", _DENSE),
    "evidence.cut_s": ("s", "lower", _DENSE),
    "evidence.inversions": ("count", "lower", _DENSE + "; must repeat exactly for one seed"),
    "evidence.self_s": ("s", "lower", _DENSE),
    "coassoc.lwca_s": ("s", "lower", _COASSOC),
    "coassoc.ca_s": ("s", "lower", _COASSOC),
    "coassoc.ca_calls_per_draw": ("ratio", "lower", _COASSOC),
    "coassoc.matrix_mb": ("MiB", "lower", _COASSOC + "; computed as N*N*8"),
    "coassoc.self_s": ("s", "lower", _COASSOC),
    "graphcut.lwbg_s": ("s", "lower", _GRAPH),
    "graphcut.tcut_s": ("s", "lower", _GRAPH),
    "graphcut.tcut_self_s": ("s", "lower", _GRAPH),
    "graphcut.affinity_mb": ("MiB", "lower", _GRAPH + "; computed as N*n_c*8"),
    "graphcut.self_s": ("s", "lower", _GRAPH),
    "validity.annotate_s": ("s", "lower", _VALIDITY),
    "validity.eci_min": ("ratio", "higher", _VALIDITY),
    "validity.eci_zero": ("count", "lower", _VALIDITY),
    "validity.self_s": ("s", "lower", _VALIDITY),
    "ensemble.parse_s": ("s", "lower", _ENSEMBLE),
    "ensemble.view_s": ("s", "lower", _ENSEMBLE),
    "ensemble.unique_row_frac": ("ratio", "lower", _ENSEMBLE + "; an input property"),
    "ensemble.n_clusters": ("count", "lower", _ENSEMBLE + "; an input property"),
    "ensemble.self_s": ("s", "lower", _ENSEMBLE),
    "kmeans.pool_s": ("s", "lower", _SWEEP),
    "kmeans.call_s": ("s", "lower", _SWEEP),
    "kmeans.calls": ("count", "lower", _SWEEP),
    "kmeans.self_s": ("s", "lower", _SWEEP),
    "harness.draw_s": ("s", "lower", _SWEEP),
    "harness.nmi_s": ("s", "lower", _SWEEP),
    "harness.nmi_calls": ("count", "lower", _SWEEP),
    "harness.self_s": ("s", "lower", _SWEEP),
    "cli.import_s": ("s", "lower", "cli_ref on every workload"),
    "trace.op_s": ("s", "lower", _TRACE),
    "trace.self_sum_s": ("s", "lower", _TRACE),
    "trace.overhead_s": ("s", "lower", _TRACE),
    "trace.spans": ("count", "lower", _TRACE),
}


class BenchError(Exception):
    """The program under test is missing or cannot be imported."""


def import_lwec(root: Path) -> SimpleNamespace:
    src = root / "src"
    if not (src / "lwec" / "__init__.py").is_file():
        raise BenchError(f"no lwec sources under {src}")
    sys.path.insert(0, str(src))
    import lwec
    import lwec.cli

    if src.resolve() not in Path(lwec.__file__).resolve().parents:
        raise BenchError(f"imported lwec from {lwec.__file__}, not from {src}")
    return SimpleNamespace(
        package=lwec, **{name: sys.modules[f"lwec.{name}"] for name in ("ensemble", "evidence", "graphcut", "harness")}
    )


def nmi(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized mutual information, geometric-mean denominator (natural logs)."""
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    kb = int(ib.max()) + 1
    joint = np.bincount(ia * kb + ib, minlength=(int(ia.max()) + 1) * kb).reshape(-1, kb) / a.size
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    ha, hb = -(pa * np.log(pa)).sum(), -(pb * np.log(pb)).sum()
    if ha == 0 or hb == 0:
        return float(ha == hb)
    nz = joint > 0
    info = (joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])).sum()
    return float(info / math.sqrt(ha * hb))


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def label_error(labels: np.ndarray, n: int) -> str | None:
    if labels.shape != (n,):
        return f"labels have shape {labels.shape}, expected ({n},)"
    if labels.min() < 0 or labels.max() >= K:
        return f"labels outside [0, {K})"
    groups = np.unique(labels).size
    if groups != K:
        return f"{groups} non-empty groups, expected {K}"
    return None


def tail(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g} of n={n}"
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return text + f", p{p:g} {ordered[rank - 1]:.6g} ({n - rank} beyond)"
    return text + ", no tail percentile (needs 11+ samples)"


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be found."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_child(launcher, argv: list[str], env: dict, cwd: Path) -> tuple[float, float, int, str]:
    """Run one child through the launcher; returns (wall s, its own peak RSS in MiB, exit code, last stderr line)."""
    err_path = cwd / "child.err"
    job = {"argv": argv, "cwd": str(cwd), "env": env, "stderr": str(err_path), "timeout": CLI_TIMEOUT_S}
    launcher.stdin.write(json.dumps(job) + "\n")
    launcher.stdin.flush()
    answer = launcher.stdout.readline()
    if not answer:
        raise RuntimeError("child launcher exited")
    done = json.loads(answer)
    lines = err_path.read_text(errors="replace").strip().splitlines()
    return done["wall"], done["maxrss_kib"] * 1024 / MIB, done["code"], lines[-1] if lines else ""


class Run:
    """One benchmark run: its inputs, the expected outputs, and the failures seen."""

    def __init__(self, lw, launcher, workload: Workload, seed: int, tiny: bool, workdir: Path, root: Path):
        self.lw, self.launcher, self.workload, self.seed, self.workdir = lw, launcher, workload, seed, workdir
        self.n = workload.tiny_n if tiny else workload.n
        self.m = workload.tiny_m if tiny else workload.m
        self.sweep = SWEEP_TINY if tiny else SWEEP
        self.is_sweep = workload.methods == ("sweep",)
        pythonpath = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.expected: dict[str, bytes] = {}
        self.nmi: dict[str, float] = {}
        self.input_sha256: dict[str, str] = {}

    @property
    def draws_per_op(self) -> int:
        """Ensembles one op scores against ground truth."""
        if self.is_sweep:
            return self.sweep["runs"] * (1 + len(self.sweep["theta_grid"]))
        return 1

    def set_up(self) -> float:
        """Generate, write and hash the inputs, then run one checked warm-up op."""
        t0 = perf_counter()
        rng = inputs.rng_for(self.seed, self.workload.name)
        self.features, self.truth = inputs.gaussian_blobs(self.n, rng)
        files = {"truth.txt": inputs.labels_text(self.truth)}
        if self.is_sweep:
            files["features.csv"] = inputs.features_csv(self.features)
        else:
            files["labels.csv"] = inputs.label_csv(inputs.voronoi_ensemble(self.features, self.m, self.workload.noise, rng))
            self.csv_text = files["labels.csv"].decode()
        for name, data in files.items():
            (self.workdir / name).write_bytes(data)
            self.input_sha256[name] = inputs.sha256(data)
        self.in_process()
        return perf_counter() - t0

    def _compute(self):
        lw = self.lw
        if self.is_sweep:
            config = lw.harness.ExperimentConfig(
                pool_size=self.sweep["pool_size"], ensemble_size=self.m, theta=THETA,
                runs=self.sweep["runs"], seed=self.seed, theta_grid=self.sweep["theta_grid"],
            )
            return lw.harness.run_experiment(self.features, self.truth, config)
        view = lw.ensemble.build_ensemble_view(lw.ensemble.parse_label_matrix(self.csv_text))
        return {
            method: lw.evidence.lwea(view, K, theta=THETA).labels
            if method == "lwea"
            else lw.graphcut.lwgp(view, K, theta=THETA, seed=self.seed).labels
            for method in self.workload.methods
        }

    def _expect(self, key: str, data: bytes, where: str) -> None:
        if data != self.expected.setdefault(key, data):
            self.failures.append(f"{where} {key}: output differs from the first in-process output")

    def _count(self, failures_before: int) -> None:
        self.attempted += 1
        self.failed += len(self.failures) > failures_before

    def in_process(self, tracer: Tracer | None = None, op_id: int = 0) -> float:
        """One checked in-process op; returns its seconds."""
        before = len(self.failures)
        patched = nullcontext() if tracer is None else traced(tracer, self.lw.package)
        root = nullcontext() if tracer is None else tracer.op(op_id)
        with patched, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                with root:
                    result = self._compute()
            except Exception as exc:
                result = None
                self.failures.append(f"in-process: {type(exc).__name__}: {exc}")
            seconds = perf_counter() - t0
        for w in caught:
            if issubclass(w.category, self.lw.graphcut.PartitionWarning):
                self.failures.append(f"in-process: PartitionWarning: {w.message}")
        if result is not None:
            self._check(result)
        self._count(before)
        return seconds

    def _check(self, result) -> None:
        if not self.is_sweep:
            for method, labels in result.items():
                labels = np.asarray(labels)
                error = label_error(labels, self.n)
                if error:
                    self.failures.append(f"in-process {method}: {error}")
                self._expect(method, inputs.labels_text(labels), "in-process")
                if method not in self.nmi:
                    self.nmi[method] = nmi(labels, self.truth)
            return
        out = io.StringIO()
        result.to_csv(out)
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        if len(rows) != 4 + 2 * len(self.sweep["theta_grid"]) or not all(
            int(r[3]) == self.sweep["runs"] and 0.0 <= float(r[4]) <= 1.0 for r in rows
        ):
            self.failures.append("in-process sweep: malformed report")
        for method, scores in result.method_nmi.items():
            self.nmi.setdefault(method, float(np.mean(scores)))
        self._expect("report", out.getvalue().encode(), "in-process")

    def cli(self) -> tuple[float, float]:
        """The same op as `python -m lwec` subprocesses; returns (wall s, peak RSS MiB)."""
        before = len(self.failures)
        base = [sys.executable, "-m", "lwec"]
        if self.is_sweep:
            grid = [str(t) for t in self.sweep["theta_grid"]]
            jobs = {"report": base + [
                "sweep", "--features", "features.csv", "--truth", "truth.txt",
                "--pool-size", str(self.sweep["pool_size"]), "--m", str(self.m), "--theta", str(THETA),
                "--theta-grid", *grid, "--runs", str(self.sweep["runs"]), "--seed", str(self.seed),
            ]}
        else:
            jobs = {method: base + [
                "consensus", "--labels", "labels.csv", "--method", method, "--theta", str(THETA),
                "--k", str(K), "--seed", str(self.seed),
            ] for method in self.workload.methods}
        wall, rss = 0.0, 0.0
        for key, cmd in jobs.items():
            out = self.workdir / f"cli-{key}.out"
            out.unlink(missing_ok=True)
            seconds, peak, code, message = run_child(self.launcher, cmd + ["--out", out.name], self.env, self.workdir)
            wall += seconds
            rss = max(rss, peak)
            if code != 0:
                self.failures.append(f"cli {key}: exit {code}: {message}")
            elif not out.is_file():
                self.failures.append(f"cli {key}: no output file")
            else:
                self._expect(key, out.read_bytes(), "cli")
        self._count(before)
        return wall, rss

    def cli_import(self) -> float:
        """Seconds a fresh interpreter takes to import lwec.cli, measured inside it."""
        before = len(self.failures)
        code = "import time; t = time.perf_counter(); import lwec.cli; print(time.perf_counter() - t)"
        done = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.workdir,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if done.returncode != 0:
            self.failures.append(f"cli import: exit {done.returncode}: {done.stderr.strip()[-200:]}")
        self._count(before)
        return float(done.stdout) if done.returncode == 0 else 0.0


def _coassoc_mib(matrix) -> float:
    return matrix.values.nbytes / MIB


# Small figures kept from the results of some traced calls (see Tracer).
DIGESTS = {
    "ensemble.build_ensemble_view": lambda v: (np.unique(v.cluster_ids, axis=0).shape[0] / v.n_objects, v.n_clusters),
    "validity.annotate_validity": lambda r: (float(r.eci.min()), int((r.eci == 0).sum())),
    "coassoc.build_lwca": _coassoc_mib,
    "coassoc.build_ca": _coassoc_mib,
    "evidence.build_dendrogram": lambda d: sum(b.similarity > a.similarity for a, b in zip(d.merges, d.merges[1:])),
    "graphcut.build_lwbg": lambda g: g.n_objects * g.n_clusters * 8 / MIB,
}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Per-layer figures from the spans: the median over traced ops of each per-op figure."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_op: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_op[span.op].append(i)
    per_op: list[dict[str, float]] = []
    function_self: Counter = Counter()
    kmeans_calls: list[float] = []
    for idx in by_op.values():
        incl, slf, calls, info = Counter(), Counter(), Counter(), defaultdict(list)
        pool_kmeans = 0.0
        for i in idx:
            span = spans[i]
            incl[span.name] += span.seconds
            slf[span.name] += selfs[i]
            calls[span.name] += 1
            if span.info is not None:
                info[span.name].append(span.info)
            if span.name == "kmeans.kmeans":
                kmeans_calls.append(span.seconds)
                if spans[span.parent].name == "harness.generate_pool":
                    pool_kmeans += span.seconds
        eci = info["validity.annotate_validity"]
        views = info["ensemble.build_ensemble_view"]
        row = {
            "evidence.dendrogram_s": incl["evidence.build_dendrogram"],
            "evidence.cut_s": incl["evidence.cut_dendrogram"],
            "evidence.inversions": sum(info["evidence.build_dendrogram"]),
            "coassoc.lwca_s": incl["coassoc.build_lwca"],
            "coassoc.ca_s": incl["coassoc.build_ca"],
            "coassoc.ca_calls_per_draw": calls["coassoc.build_ca"] / max(calls["harness.draw_ensemble"], 1),
            "coassoc.matrix_mb": max(info["coassoc.build_lwca"] + info["coassoc.build_ca"], default=0.0),
            "graphcut.lwbg_s": incl["graphcut.build_lwbg"],
            "graphcut.tcut_s": incl["graphcut.tcut_partition"],
            "graphcut.tcut_self_s": slf["graphcut.tcut_partition"],
            "graphcut.affinity_mb": max(info["graphcut.build_lwbg"], default=0.0),
            "validity.annotate_s": incl["validity.annotate_validity"],
            "validity.eci_min": min((low for low, _ in eci), default=0.0),
            "validity.eci_zero": sum(zeros for _, zeros in eci),
            "ensemble.parse_s": incl["ensemble.parse_label_matrix"],
            "ensemble.view_s": incl["ensemble.build_ensemble_view"],
            "ensemble.unique_row_frac": median_or_zero(frac for frac, _ in views),
            "ensemble.n_clusters": median_or_zero(n_c for _, n_c in views),
            "kmeans.pool_s": pool_kmeans,
            "kmeans.calls": calls["kmeans.kmeans"],
            "harness.draw_s": incl["harness.draw_ensemble"],
            "harness.nmi_s": incl["harness.nmi"],
            "harness.nmi_calls": calls["harness.nmi"],
            "trace.op_s": incl[OP],
            "trace.self_sum_s": incl[OP] - slf[OP],
            "trace.spans": len(idx) - 1,
        }
        for module in MODULES[:-1]:
            row[f"{module}.self_s"] = sum(v for name, v in slf.items() if name.startswith(module + "."))
        for name, v in slf.items():
            function_self[name] += v / len(by_op)
        per_op.append(row)
    metrics = {key: median_or_zero(row[key] for row in per_op) for key in per_op[0]}
    metrics["kmeans.call_s"] = median_or_zero(kmeans_calls)
    return metrics, function_self.most_common()


def parse_args(argv):
    p = argparse.ArgumentParser(description="lwec consensus benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own smoke test")
    return p.parse_args(argv)


def main(argv, launcher) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    t0 = perf_counter()
    try:
        lw = import_lwec(root)
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0

    out_dir = root / ".bench_build" / "perfbench"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(lw, launcher, WORKLOADS[args.workload], args.seed, args.tiny, workdir, root)
        lines, summary, record = measure(run, args, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    record_path.write_text(json.dumps(record))
    for line in lines:
        print(line)
    print(json.dumps(summary))
    return 0


def measure(run: Run, args, import_s: float) -> tuple[list[str], dict, dict]:
    setups = [run.set_up() for _ in range(SETUP_REPEATS)]
    env = environment()
    lines = [f"env {json.dumps(env)}"]
    lines += [f"input {args.workload} {name} sha256 {digest}" for name, digest in run.input_sha256.items()]
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny, "env": env}
    # a new round starts only if one more of the same length still ends in the window
    deadline = perf_counter() + args.seconds
    if args.trace == 0:
        # each op is divided by the mean reference unit of the blocks just before and after it
        ops, clis, rss, refs, op_units, cli_units = [], [], [], [], [], []
        reference_seconds(REFERENCE_BLOCK_S)  # warm-up: faults its arrays in
        refs.append(reference_seconds(REFERENCE_BLOCK_S))
        while True:
            started = perf_counter()
            ops.append(run.in_process())
            refs.append(reference_seconds(REFERENCE_BLOCK_S))
            wall, peak = run.cli()
            clis.append(wall)
            rss.append(peak)
            refs.append(reference_seconds(REFERENCE_BLOCK_S))
            op_units.append(ops[-1] / statistics.mean(refs[-3:-1]))
            cli_units.append(wall / statistics.mean(refs[-2:]))
            if 2 * perf_counter() - started > deadline:
                break
        samples = {"setup_s": setups, "reference_s": refs, "consensus_s": ops, "cli_s": clis,
                   "consensus_ref": op_units, "cli_ref": cli_units, "peak_rss_mb": rss}
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "consensus_ref": statistics.median(op_units),
            "cli_ref": statistics.median(cli_units),
            "peak_rss_mb": statistics.median(rss),
            "draws_per_ref": run.draws_per_op / statistics.median(op_units),
            "nmi": min(run.nmi.values(), default=0.0),
            "ok_frac": (run.attempted - run.failed) / run.attempted,
        }
        declared = END_TO_END
    else:
        imports = [run.cli_import() for _ in range(SETUP_REPEATS)]
        tracer, plain = Tracer(DIGESTS), []
        while True:
            started = perf_counter()
            plain.append(run.in_process())
            run.in_process(tracer, len(plain))
            if 2 * perf_counter() - started > deadline:
                break
        metrics, function_self = layer_metrics(tracer)
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - statistics.median(plain)
        samples = {"setup_s": setups, "untraced_op_s": plain, "cli.import_s": imports}
        lines += [f"self {name} {seconds:.6f} s" for name, seconds in function_self[:10]]
        lines.append(
            f"accounting lwec self-time sum {metrics['trace.self_sum_s']:.6f} s, untraced op "
            f"{statistics.median(plain):.6f} s, tracing overhead {metrics['trace.overhead_s']:.6f} s"
        )
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans]
        record["function_self_s"] = dict(function_self)
        declared = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    if set(metrics) != set(declared):
        raise RuntimeError(f"emitted metrics differ from the declared ones: {sorted(set(metrics) ^ set(declared))}")
    labels = {key: inputs.sha256(data) for key, data in run.expected.items()}
    lines += [f"timing {name} {tail(values)}" for name, values in samples.items()]
    lines += [f"labels {args.workload} {key} sha256 {digest}" for key, digest in labels.items()]
    lines += [f"nmi {method} {value:.6f}" for method, value in run.nmi.items()]
    lines += [f"failure {message}" for message in run.failures]
    summary = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    record.update(inputs_sha256=run.input_sha256, labels_sha256=labels, samples=samples,
                  failures=run.failures, summary=summary)
    return lines, summary, record
