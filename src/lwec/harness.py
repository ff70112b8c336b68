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

from .ensemble import EnsembleView, LabelMatrix, _parse_table, _write_text, build_ensemble_view
from .evidence import _cuts, _dendrogram
from .coassoc import _ca, _lwca
from .graphcut import _tcuts, build_lwbg
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
    """Read a CSV of reals, one row per object, in `parse_label_matrix`'s table format."""
    return validate_features(_parse_table(source, float, "feature file"))


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


def generate_pool(
    features: np.ndarray, config: ExperimentConfig, members: Iterable[int] | None = None
) -> list[np.ndarray | None]:
    """Candidate base clusterings: k-means runs with k uniform in [2, ceil(sqrt(N))].

    Member t uses the derived seed (seed, 0, t); the k values come from the
    master stream (seed, 0), so the same master seed always yields the same pool.
    Every member is clustered unless `members` names the ones wanted; the
    others are then None, and each named member is the one the full pool holds.
    """
    x = validate_features(features)
    n = x.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 objects to draw k from [2, ceil(sqrt(N))], got {n}")
    k_max = sqrt_k_ceiling(n)
    master = np.random.Generator(np.random.PCG64(_subseed(config.seed, 0)))
    ks = master.integers(2, k_max + 1, size=config.pool_size)
    wanted = range(config.pool_size) if members is None else set(members)
    return [
        kmeans(x, int(ks[t]), seed=_subseed(config.seed, 0, t)) if t in wanted else None
        for t in range(config.pool_size)
    ]


def _draw_indices(pool_size: int, m: int, seed) -> np.ndarray:
    if not 1 <= m <= pool_size:
        raise ValueError(f"ensemble size must be in [1, {pool_size}], got {m}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.choice(pool_size, size=m, replace=False)


def draw_ensemble(pool: list[np.ndarray], m: int, seed=0) -> LabelMatrix:
    """Select m distinct pool members uniformly without replacement, column-wise."""
    chosen = _draw_indices(len(pool), m, seed)
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


@dataclass(frozen=True, eq=False)
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
        return _mean_per_run(self.base_nmi)

    def rows(self) -> list[SweepRow]:
        head = _group_rows("theta", self.config.theta, self.method_nmi, self.base_mean_per_run)
        return head + self.sweep_rows

    def to_csv(self, out: str | IO[str]) -> None:
        lines = ["method,parameter,value,runs,mean_nmi,std_nmi"]
        for r in self.rows():
            lines.append(
                f"{r.method},{r.parameter},{r.value:g},{len(r.per_run)},{r.mean:.6f},{r.std:.6f}"
            )
        _write_text("\n".join(lines) + "\n", out)


def _mean_per_run(base_nmi: list[np.ndarray]) -> np.ndarray:
    return np.array([scores.mean() for scores in base_nmi])


def _per_method(scores: list[dict[str, float]], methods: tuple[str, ...]) -> dict[str, np.ndarray]:
    """{method: NMI per run} from one score dict per run, in the order of `methods`."""
    return {method: np.array([run[method] for run in scores]) for method in methods}


def _group_rows(parameter: str, value: float, method_nmi: dict, base_means) -> list[SweepRow]:
    """One row per method for a set of draws, then one of their mean base-clustering NMI."""
    rows = [SweepRow(method, parameter, value, scores) for method, scores in method_nmi.items()]
    return rows + [SweepRow("base", parameter, value, base_means)]


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
    scores["lwea"] = max(nmi(labels, truth) for labels in _cuts(_dendrogram(*_lwca(view, report)), ks))
    if with_eac:
        scores["eac"] = max(nmi(labels, truth) for labels in _cuts(_dendrogram(*_ca(view)), ks))
    # the transfer cut needs k <= the positive-weight clusters; lwgp at k = 1 is the all-in-one labeling
    graph_ks = [kk for kk in ks if kk <= np.count_nonzero(report.eci)] or ks[:1]
    cuts = [np.zeros(truth.size)] if graph_ks == [1] else _tcuts(build_lwbg(view, report), graph_ks, seed)
    scores["lwgp"] = max(nmi(labels, truth) for labels in cuts)
    return scores


def run_experiment(features, truth, config: ExperimentConfig) -> ExperimentReport:
    """Run the repeated-draw protocol and any configured theta / ensemble-size sweeps.

    Each run draws a fresh ensemble from one shared pool, scores the consensus
    methods and every base clustering in the draw against the ground truth,
    and re-scores the draw at every other theta of the theta grid. Each
    ensemble size of the M grid, repeats included, makes draws of its own.
    The draws depend only on their seeds, so they are made first and k-means
    runs only for the pool members some draw picks, once each.
    """
    x = validate_features(features)
    truth = np.asarray(truth)
    if truth.shape != (x.shape[0],):
        raise ValueError("ground truth length must match the feature matrix")
    runs, theta = config.runs, config.theta
    # eac does not depend on theta, so the other thetas skip it
    other_thetas = [t for t in dict.fromkeys(config.theta_grid or ()) if t != theta]
    # one group of `runs` draws per ensemble size, the main runs first and then each M-grid
    # entry: (size, draw seed path, scoring seed path, the thetas its draws are scored at)
    groups = [(config.ensemble_size, (1,), (2,), [theta] + other_thetas)]
    groups += [(m, (3, m), (4, m), [theta]) for m in config.m_grid or ()]
    draws = [(m, _subseed(config.seed, *path, r)) for m, path, _, _ in groups for r in range(runs)]
    drawn = {int(t) for m, seed in draws for t in _draw_indices(config.pool_size, m, seed)}
    pool = generate_pool(x, config, members=drawn)
    k = _consensus_k(truth, config)
    best_k = config.k_policy == "best-k"

    results = []  # per group: {theta: one score dict per run}, base-clustering NMI per run
    for m, draw_path, score_path, thetas in groups:
        scores, base = {t: [] for t in thetas}, []
        for r in range(runs):
            ensemble = draw_ensemble(pool, m, seed=_subseed(config.seed, *draw_path, r))
            view = build_ensemble_view(ensemble)
            seed = _subseed(config.seed, *score_path, r)
            for t in thetas:
                score = _score_methods(view, truth, k, t, seed, best_k, with_eac=t == theta)
                scores[t].append(score)
            base.append(np.array([nmi(ensemble.labels[:, c], truth) for c in range(m)]))
        results.append((scores, base))

    methods = ("lwea", "lwgp", "eac")
    (main, main_base), *m_results = results
    report = ExperimentReport(config, x.shape[0], _per_method(main[theta], methods), main_base)
    for t in config.theta_grid or ():
        for method, per_run in _per_method(main[t], ("lwea", "lwgp")).items():
            report.sweep_rows.append(SweepRow(method, "theta", t, per_run))
    for m, (scores, base) in zip(config.m_grid or (), m_results):
        method_nmi = _per_method(scores[theta], methods)
        report.sweep_rows += _group_rows("M", float(m), method_nmi, _mean_per_run(base))
    return report
