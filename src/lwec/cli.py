"""Command-line interface: pool, consensus, eval, sweep."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .coassoc import build_ca, build_lwca, write_lower_triangle
from .ensemble import (
    LabelMatrix,
    build_ensemble_view,
    parse_label_matrix,
    write_label_matrix,
    read_labels,
    write_labels,
)
from .evidence import eac, lwea
from .graphcut import lwgp
from .harness import (
    ExperimentConfig,
    generate_pool,
    nmi,
    read_features,
    run_experiment,
)
from .validity import annotate_validity


def cmd_pool(args) -> int:
    with open(args.features) as fh:
        features = read_features(fh)
    config = ExperimentConfig(pool_size=args.pool_size, ensemble_size=1, seed=args.seed)
    pool = generate_pool(features, config)
    matrix = LabelMatrix.from_array(np.column_stack(pool))
    write_label_matrix(matrix, args.out)
    return 0


def cmd_consensus(args) -> int:
    with open(args.labels) as fh:
        matrix = parse_label_matrix(fh)
    view = build_ensemble_view(matrix)
    if args.method == "lwea":
        result = lwea(view, args.k, theta=args.theta)
    elif args.method == "lwgp":
        result = lwgp(view, args.k, theta=args.theta, seed=args.seed)
    else:
        result = eac(view, args.k)
    write_labels(result.labels, args.out)
    return 0


def cmd_eval(args) -> int:
    with open(args.pred) as fh:
        pred = read_labels(fh)
    with open(args.truth) as fh:
        truth = read_labels(fh)
    print(f"{nmi(pred, truth):.4f}")
    if args.dump_coassoc:
        if not args.labels:
            raise ValueError("--dump-coassoc needs --labels with the ensemble file")
        with open(args.labels) as fh:
            view = build_ensemble_view(parse_label_matrix(fh))
        if args.theta is not None:
            matrix = build_lwca(view, annotate_validity(view, args.theta))
        else:
            matrix = build_ca(view)
        write_lower_triangle(matrix, args.dump_coassoc)
    return 0


def cmd_sweep(args) -> int:
    with open(args.features) as fh:
        features = read_features(fh)
    with open(args.truth) as fh:
        truth = read_labels(fh)
    config = ExperimentConfig(
        pool_size=args.pool_size,
        ensemble_size=args.m,
        theta=args.theta,
        runs=args.runs,
        k_policy=args.k_policy,
        fixed_k=args.fixed_k,
        seed=args.seed,
        theta_grid=tuple(args.theta_grid) if args.theta_grid else None,
        m_grid=tuple(args.m_grid) if args.m_grid else None,
    )
    report = run_experiment(features, truth, config)
    report.to_csv(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lwec",
        description="Locally weighted ensemble clustering: pools, consensus, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pool", help="generate a pool of k-means base clusterings")
    p.add_argument("--features", required=True, help="CSV of feature rows")
    p.add_argument("--pool-size", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output label-matrix CSV")
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("consensus", help="combine a label matrix into one clustering")
    p.add_argument("--labels", required=True, help="label-matrix CSV (the ensemble)")
    p.add_argument("--method", choices=("lwea", "lwgp", "eac"), default="lwea")
    p.add_argument("--theta", type=float, default=0.4)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output labels, one per line")
    p.set_defaults(func=cmd_consensus)

    p = sub.add_parser("eval", help="score predicted labels against ground truth (NMI)")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--labels", help="ensemble label-matrix CSV, for --dump-coassoc")
    p.add_argument("--theta", type=float, default=None, help="dump the weighted matrix at this theta")
    p.add_argument("--dump-coassoc", help="write the co-association lower triangle here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run repeated-draw experiments and parameter sweeps")
    p.add_argument("--features", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--pool-size", type=int, default=100)
    p.add_argument("--m", type=int, default=10, help="ensemble size per draw")
    p.add_argument("--theta", type=float, default=0.4)
    p.add_argument("--theta-grid", type=float, nargs="+", default=None)
    p.add_argument("--m-grid", type=int, nargs="+", default=None)
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--k-policy", choices=("true-k", "best-k", "fixed"), default="true-k")
    p.add_argument("--fixed-k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output report CSV")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
