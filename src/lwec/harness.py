"""Experiment harness: base-clustering pools, ensemble draws, NMI, and protocols.

This is the only module that touches feature vectors; the consensus core
operates purely on labels. All randomness flows through PCG64 generators
seeded from SeedSequence tuples (seed, namespace, counter), so every artifact
is reproducible from the single master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .ensemble import EnsembleView, LabelMatrix, _read_text, _write_text, build_ensemble_view
from .evidence import build_dendrogram, cut_dendrogram, eac, lwea
from .coassoc import build_lwca, build_ca
from .graphcut import lwgp
from .kmeans import kmeans
from .validity import annotate_validity

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "SweepRow",
    "validate_features",
    "read_features",
    "write_features",
    "make_gaussian_blobs",
    "kmeans",
    "generate_pool",
    "draw_ensemble",
    "nmi",
    "run_experiment",
]


def validate_features(features) -> np.ndarray:
    """Check and convert a feature matrix: 2-D, finite, N >= 2, d >= 1."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {x.shape}")
    if x.shape[0] < 2 or x.shape[1] < 1:
        raise ValueError(f"feature matrix must be at least 2 x 1, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("feature matrix contains non-finite values")
    return x


def read_features(source: str | IO[str] | Iterable[str]) -> np.ndarray:
    """Read a CSV of reals, one row per object; '#' header and blank lines skipped."""
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(_read_text(source).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            values = [float(cell) for cell in stripped.split(",")]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric cell in {stripped!r}") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(f"line {lineno}: ragged rows ({len(values)} cells, expected {width})")
        rows.append(values)
    if not rows:
        raise ValueError("empty feature file")
    return validate_features(np.asarray(rows))


def write_features(features: np.ndarray, out: str | IO[str]) -> None:
    text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in np.asarray(features)) + "\n"
    _write_text(text, out)


def make_gaussian_blobs(
    n: int, centers, spread: float = 1.0, seed=0
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n points around the given centers (rows), evenly split, shuffled.

    Returns (features, true labels); deterministic for a fixed seed.
    """
    centers = np.asarray(centers, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(seed))
    c = centers.shape[0]
    sizes = np.full(c, n // c)
    sizes[: n % c] += 1
    points = []
    labels = []
    for idx, size in enumerate(sizes):
        points.append(centers[idx] + spread * rng.standard_normal((size, centers.shape[1])))
        labels.append(np.full(size, idx, dtype=np.int64))
    x = np.vstack(points)
    y = np.concatenate(labels)
    order = rng.permutation(n)
    return x[order], y[order]


@dataclass
class ExperimentConfig:
    """Protocol knobs for pool generation and repeated consensus runs."""

    pool_size: int = 100
    ensemble_size: int = 10
    theta: float = 0.4
    runs: int = 20
    k_policy: str = "true-k"  # "true-k" | "best-k" | "fixed"
    fixed_k: int | None = None
    seed: int = 0
    theta_grid: tuple[float, ...] | None = None
    m_grid: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.pool_size < 1 or self.ensemble_size < 1 or self.runs < 1:
            raise ValueError("pool_size, ensemble_size and runs must be positive")
        if self.ensemble_size > self.pool_size:
            raise ValueError("ensemble_size cannot exceed pool_size")
        if not self.theta > 0:
            raise ValueError("theta must be positive")
        # the sweeps' values fail here, before the pool's k-means runs; the
        # messages are those annotate_validity and draw_ensemble would give
        for theta in self.theta_grid or ():
            if not theta > 0:
                raise ValueError(f"theta must be positive, got {theta}")
        for m in self.m_grid or ():
            if not 1 <= m <= self.pool_size:
                raise ValueError(f"ensemble size must be in [1, {self.pool_size}], got {m}")
        if self.k_policy not in ("true-k", "best-k", "fixed"):
            raise ValueError(f"unknown k policy {self.k_policy!r}")
        if self.k_policy == "fixed" and (self.fixed_k is None or self.fixed_k < 1):
            raise ValueError("fixed k policy needs a positive fixed_k")


def _subseed(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(seed),) + tuple(int(p) for p in path))


def sqrt_k_ceiling(n: int) -> int:
    return int(math.ceil(math.sqrt(n)))


def generate_pool(features: np.ndarray, config: ExperimentConfig) -> list[np.ndarray]:
    """Candidate base clusterings: k-means runs with k uniform in [2, ceil(sqrt(N))].

    Member t uses the derived seed (seed, 0, t); the k values come from the
    master stream (seed, 0), so the same master seed always yields the same pool.
    """
    x = validate_features(features)
    n = x.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 objects to draw k from [2, ceil(sqrt(N))], got {n}")
    k_max = sqrt_k_ceiling(n)
    master = np.random.Generator(np.random.PCG64(_subseed(config.seed, 0)))
    ks = master.integers(2, k_max + 1, size=config.pool_size)
    return [
        kmeans(x, int(ks[t]), seed=_subseed(config.seed, 0, t))
        for t in range(config.pool_size)
    ]


def draw_ensemble(pool: list[np.ndarray], m: int, seed=0) -> LabelMatrix:
    """Select m distinct pool members uniformly without replacement, column-wise."""
    if not 1 <= m <= len(pool):
        raise ValueError(f"ensemble size must be in [1, {len(pool)}], got {m}")
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = rng.choice(len(pool), size=m, replace=False)
    return LabelMatrix.from_array(np.column_stack([pool[int(i)] for i in chosen]))


def _entropy_nat(counts: np.ndarray, total: int) -> float:
    p = counts[counts > 0] / total
    return float(max(-(p * np.log(p)).sum(), 0.0))


def nmi(a, b) -> float:
    """Normalized mutual information with a geometric-mean denominator.

    Mutual information uses natural logs over the label contingency table.
    Two zero-entropy (single-cluster) labelings are identical partitions and
    score 1; if exactly one side has zero entropy the score is 0.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError("label vectors must be 1-D and equally long")
    if a.size == 0:
        raise ValueError("empty label vectors")
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    ka = int(ia.max()) + 1
    kb = int(ib.max()) + 1
    n = a.size
    table = np.bincount(ia * kb + ib, minlength=ka * kb).reshape(ka, kb)
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    h_a = _entropy_nat(row, n)
    h_b = _entropy_nat(col, n)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    nz = table > 0
    counts = table[nz].astype(np.float64)
    outer = (row[:, None] * col[None, :])[nz]
    info = float(((counts / n) * np.log(counts * n / outer)).sum())
    return float(min(1.0, max(0.0, info / math.sqrt(h_a * h_b))))


@dataclass(frozen=True)
class SweepRow:
    """Per-run NMI scores for one method at one parameter point."""

    method: str
    parameter: str
    value: float
    per_run: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.per_run.mean())

    @property
    def std(self) -> float:
        return float(self.per_run.std())


@dataclass
class ExperimentReport:
    """Aggregated scores from repeated ensemble draws over one pool."""

    config: ExperimentConfig
    n_objects: int
    method_nmi: dict[str, np.ndarray]
    base_nmi: list[np.ndarray] = field(default_factory=list)
    sweep_rows: list[SweepRow] = field(default_factory=list)

    @property
    def base_mean_per_run(self) -> np.ndarray:
        return np.array([scores.mean() for scores in self.base_nmi])

    def rows(self) -> list[SweepRow]:
        head = [
            SweepRow(method, "theta", self.config.theta, scores)
            for method, scores in self.method_nmi.items()
        ]
        head.append(SweepRow("base", "theta", self.config.theta, self.base_mean_per_run))
        return head + self.sweep_rows

    def to_csv(self, out: str | IO[str]) -> None:
        lines = ["method,parameter,value,runs,mean_nmi,std_nmi"]
        for r in self.rows():
            lines.append(
                f"{r.method},{r.parameter},{r.value:g},{len(r.per_run)},{r.mean:.6f},{r.std:.6f}"
            )
        _write_text("\n".join(lines) + "\n", out)


def _consensus_k(truth: np.ndarray, config: ExperimentConfig) -> int:
    if config.k_policy == "fixed":
        return int(config.fixed_k)
    return int(np.unique(truth).size)


def _score_methods(
    view: EnsembleView,
    truth: np.ndarray,
    k: int,
    theta: float,
    seed,
    best_k: bool,
    with_eac: bool = True,
) -> dict[str, float]:
    """NMI for lwea/lwgp/eac on one ensemble, at fixed k or maximized over a k sweep.

    eac does not depend on theta, so a theta sweep skips it with `with_eac=False`.
    """
    ks = list(range(2, sqrt_k_ceiling(truth.size) + 1)) if best_k else [k]
    report = annotate_validity(view, theta)
    scores: dict[str, float] = {}
    lw_dendro = build_dendrogram(build_lwca(view, report))
    scores["lwea"] = max(nmi(cut_dendrogram(lw_dendro, kk).labels, truth) for kk in ks)
    if with_eac:
        ca_dendro = build_dendrogram(build_ca(view))
        scores["eac"] = max(nmi(cut_dendrogram(ca_dendro, kk).labels, truth) for kk in ks)
    graph_ks = [kk for kk in ks if kk <= min(truth.size, view.n_clusters)] or ks[:1]
    scores["lwgp"] = max(
        nmi(lwgp(view, kk, seed=seed, report=report).labels, truth) for kk in graph_ks
    )
    return scores


def run_experiment(features, truth, config: ExperimentConfig) -> ExperimentReport:
    """Run the repeated-draw protocol and any configured theta / ensemble-size sweeps.

    Each run draws a fresh ensemble from one shared pool, scores the consensus
    methods and every base clustering in the draw against the ground truth,
    and (for the sweeps) re-scores the same draws at each grid point.
    """
    x = validate_features(features)
    truth = np.asarray(truth)
    if truth.shape != (x.shape[0],):
        raise ValueError("ground truth length must match the feature matrix")
    pool = generate_pool(x, config)
    k = _consensus_k(truth, config)
    best_k = config.k_policy == "best-k"

    method_runs: dict[str, list[float]] = {"lwea": [], "lwgp": [], "eac": []}
    base_runs: list[np.ndarray] = []
    views: list[EnsembleView] = []
    for r in range(config.runs):
        ensemble = draw_ensemble(pool, config.ensemble_size, seed=_subseed(config.seed, 1, r))
        view = build_ensemble_view(ensemble)
        views.append(view)
        scores = _score_methods(view, truth, k, config.theta, _subseed(config.seed, 2, r), best_k)
        for method, score in scores.items():
            method_runs[method].append(score)
        base_runs.append(
            np.array([nmi(ensemble.labels[:, c], truth) for c in range(ensemble.n_clusterings)])
        )

    report = ExperimentReport(
        config=config,
        n_objects=x.shape[0],
        method_nmi={m: np.asarray(v) for m, v in method_runs.items()},
        base_nmi=base_runs,
    )

    if config.theta_grid:
        for theta in config.theta_grid:
            per_method: dict[str, list[float]] = {"lwea": [], "lwgp": []}
            for r, view in enumerate(views):
                scores = _score_methods(
                    view, truth, k, theta, _subseed(config.seed, 2, r), best_k, with_eac=False
                )
                per_method["lwea"].append(scores["lwea"])
                per_method["lwgp"].append(scores["lwgp"])
            for method, vals in per_method.items():
                report.sweep_rows.append(SweepRow(method, "theta", theta, np.asarray(vals)))

    if config.m_grid:
        for m in config.m_grid:
            per_method = {"lwea": [], "lwgp": [], "eac": [], "base": []}
            for r in range(config.runs):
                ensemble = draw_ensemble(pool, m, seed=_subseed(config.seed, 3, m, r))
                view = build_ensemble_view(ensemble)
                scores = _score_methods(
                    view, truth, k, config.theta, _subseed(config.seed, 4, m, r), best_k
                )
                for method in ("lwea", "lwgp", "eac"):
                    per_method[method].append(scores[method])
                per_method["base"].append(
                    float(np.mean([nmi(ensemble.labels[:, c], truth) for c in range(m)]))
                )
            for method, vals in per_method.items():
                report.sweep_rows.append(SweepRow(method, "M", float(m), np.asarray(vals)))

    return report
