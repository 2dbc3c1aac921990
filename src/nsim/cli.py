"""Command-line front end.

Subcommands: fit, predict, cv, synth, benchmark, gram.  Every error carries
a machine-readable code; exit status is 0 on success, 1 for usage errors,
2 for data errors, 3 for infeasible fits.  Commands that consume randomness
require --seed or the NSIM_SEED environment variable; there is no
wall-clock seeding.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .data import check_eta, check_seed
from .errors import DataError, NsimError, UsageError
from .estimator import (
    PARTITION_KINDS,
    cross_validate,
    cv_report_to_dict,
    fit,
    fit_split,
    load_model,
    predict_many,
    save_model,
)
from .evaluation import (
    SCHEDULE_METHODS,
    real_benchmark,
    run_schedule,
    schedule_csv_rows,
    schedule_summary,
    split_csv_rows,
)
from .geometry import CURVE_KINDS, SynthConfig, generate, make_curve
from .io import (
    read_dataset_csv,
    read_feature_csv,
    write_dataset_csv,
    write_json,
    write_matrix_csv,
    write_predictions_csv,
    write_rows_csv,
)
from .tangents import grammian

SEED_ENV = "NSIM_SEED"
SCHEDULE_REPETITIONS = 10  # `benchmark --curve` default; `--data` uses real_benchmark's


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is exit 1
        raise UsageError(message)


def _parse_eta(text: str) -> float:
    try:
        return check_eta(float(text))
    except ValueError:
        raise UsageError(f"invalid eta {text!r}") from None


def _list_of(convert, name: str):
    """argparse type: a non-empty comma-separated list of ``convert`` values."""
    noun = "integers" if convert is int else "numbers"

    def parse(text: str) -> list:
        try:
            values = [convert(part) for part in text.split(",") if part.strip() != ""]
        except ValueError:
            raise UsageError(f"invalid {name} {text!r}: expected comma-separated {noun}") from None
        if not values:
            raise UsageError(f"empty {name}")
        return values

    return parse


def _resolve_seed(seed) -> int:
    if seed is None:
        env = os.environ.get(SEED_ENV)
        if env is None:
            raise UsageError(f"no seed given: pass --seed or set {SEED_ENV}")
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"invalid {SEED_ENV} value {env!r}") from None
    return check_seed(seed)


def _load_dataset(args):
    dataset, names, dropped = read_dataset_csv(
        args.data, standardize=args.standardize, log_response=args.log_response
    )
    for name in dropped:
        print(f"nsim: warning: dropped constant feature column {name!r}", file=sys.stderr)
    return dataset, names


def _given(**options) -> dict:
    """``options`` without those left unset, so the callee's defaults apply."""
    return {name: value for name, value in options.items() if value is not None}


def cmd_fit(args) -> int:
    dataset, _ = _load_dataset(args)
    if args.split == "half":
        mid = dataset.n // 2
        if mid < 1 or dataset.n - mid < 1:
            raise DataError("need at least 2 rows for a half split")
        geometry = dataset.subset(np.arange(mid))
        prediction = dataset.subset(np.arange(mid, dataset.n))
        model = fit_split(
            geometry, prediction, args.J, args.k, args.eta, args.partition, args.rank_tol
        )
    else:
        model = fit(dataset, args.J, args.k, args.eta, args.partition, args.rank_tol)
    save_model(args.out, model)
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    _, features = read_feature_csv(args.data)
    predictions = predict_many(model, features)
    write_predictions_csv(args.out, predictions)
    return 0


def cmd_cv(args) -> int:
    seed = _resolve_seed(args.seed)
    k_rule = args.k if args.k_rule is None else args.k_rule
    if k_rule is None:
        raise UsageError("pass --k or --k-rule two-thirds")
    dataset, _ = _load_dataset(args)
    report = cross_validate(
        dataset, args.j_grid, k_rule, args.eta, args.folds, seed, args.partition
    )
    write_json(args.out, cv_report_to_dict(report))
    return 0


def cmd_synth(args) -> int:
    seed = _resolve_seed(args.seed)
    config = SynthConfig(
        curve=make_curve(args.curve),
        ambient_dim=args.ambient_dim,
        n_samples=args.n,
        seed=seed,
        tube_radius=args.tube_radius,
        noise_factor=args.noise_factor,
    )
    dataset, samples = generate(config)
    write_dataset_csv(args.out, dataset)
    sidecar = {
        "version": 1,
        "curve": args.curve,
        "ambient_dim": args.ambient_dim,
        "n_samples": args.n,
        "seed": seed,
        "tube_radius": args.tube_radius,
        "noise_factor": args.noise_factor,
        "param_interval": list(config.curve.param_interval),
        "t_true": [s.t_true for s in samples],
        "a_true": [s.a_true.tolist() for s in samples],
    }
    write_json(args.truth_out, sidecar)
    return 0


def cmd_gram(args) -> int:
    dataset, _ = _load_dataset(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for j_count in args.j_list:
        model = fit(dataset, j_count, 1, math.inf, args.partition, args.rank_tol)
        write_matrix_csv(out_dir / f"gram_J{j_count}.csv", grammian(model.tangents))
    return 0


def cmd_benchmark(args) -> int:
    if (args.data is None) == (args.curve is None):
        raise UsageError("benchmark needs exactly one of --data (CSV mode) or --curve (synthetic)")
    seed = _resolve_seed(args.seed)
    if args.data is not None:
        dataset, _ = _load_dataset(args)
        report = real_benchmark(
            dataset,
            seed,
            **_given(
                repetitions=args.repetitions,
                test_fraction=args.test_fraction,
                folds=args.folds,
                j_grid=args.j_grid,
                k_grid=args.k_grid,
                eta=args.eta,
            ),
        )
        if args.out_csv:
            write_rows_csv(args.out_csv, split_csv_rows(report))
        write_json(args.out_json, report)
        return 0

    results = run_schedule(
        args.curve,
        args.d_values,
        args.noise_factors,
        args.n_grid,
        SCHEDULE_REPETITIONS if args.repetitions is None else args.repetitions,
        seed,
        **_given(
            method=args.method,
            partition_kind=args.partition,
            eta=args.eta,
            j_grid_noisy=args.j_grid,
            cv_folds=args.folds,
            test_count=args.test_count,
        ),
    )
    if args.out_csv:
        write_rows_csv(args.out_csv, schedule_csv_rows(results))
    write_json(args.out_json, schedule_summary(results))
    return 0


def _add_dataset_flags(parser) -> None:
    parser.add_argument("--data", required=True, help="dataset CSV (last column = response)")
    parser.add_argument("--standardize", action="store_true", help="standardize feature columns")
    parser.add_argument(
        "--log-response", action="store_true", help="log-transform the response column"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="nsim", description="Level-set single-index regression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model and write it as JSON")
    _add_dataset_flags(p_fit)
    p_fit.add_argument("--J", type=int, required=True, help="number of level sets")
    p_fit.add_argument("--k", type=int, required=True, help="neighbors averaged per prediction")
    p_fit.add_argument("--eta", type=_parse_eta, default=math.inf,
                       help="restricting radius (number or 'inf')")
    p_fit.add_argument("--partition", choices=PARTITION_KINDS, default="dyadic")
    p_fit.add_argument("--split", choices=("none", "half"), default="none",
                       help="'half': learn geometry on the first half, predict from the second")
    p_fit.add_argument("--rank-tol", type=float, default=None)
    p_fit.add_argument("--out", required=True, help="output model JSON path")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="predict responses for a feature CSV")
    p_pred.add_argument("--model", required=True, help="model JSON from 'fit'")
    p_pred.add_argument("--data", required=True, help="feature-only CSV (header row)")
    p_pred.add_argument("--out", required=True, help="output predictions CSV")
    p_pred.set_defaults(func=cmd_predict)

    p_cv = sub.add_parser("cv", help="cross-validated hyperparameter selection")
    _add_dataset_flags(p_cv)
    p_cv.add_argument("--j-grid", type=_list_of(int, "J grid"), default="1,2,4,8")
    k_choice = p_cv.add_mutually_exclusive_group()
    k_choice.add_argument("--k", type=int, default=None, help="fixed k")
    k_choice.add_argument("--k-rule", choices=("two-thirds",), default=None,
                          help="per-fold k = ceil(0.5 * n_train^(2/3))")
    p_cv.add_argument("--eta", type=_parse_eta, default=math.inf)
    p_cv.add_argument("--folds", type=int, default=5)
    p_cv.add_argument("--partition", choices=PARTITION_KINDS, default="dyadic")
    p_cv.add_argument("--seed", type=int, default=None)
    p_cv.add_argument("--out", required=True, help="output report JSON")
    p_cv.set_defaults(func=cmd_cv)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV plus truth sidecar")
    p_synth.add_argument("--curve", choices=CURVE_KINDS, required=True)
    p_synth.add_argument("--ambient-dim", type=int, required=True)
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--tube-radius", type=float, default=0.25)
    p_synth.add_argument("--noise-factor", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--out", required=True, help="output dataset CSV")
    p_synth.add_argument("--truth-out", required=True, help="output sidecar JSON (t_true, a_true)")
    p_synth.set_defaults(func=cmd_synth)

    p_bench = sub.add_parser(
        "benchmark",
        help="synthetic rate schedule (--curve ...) or repeated-split CSV benchmark (--data ...)",
    )
    p_bench.add_argument("--data", default=None, help="dataset CSV for the repeated-split mode")
    p_bench.add_argument("--standardize", action="store_true")
    p_bench.add_argument("--log-response", action="store_true")
    p_bench.add_argument("--curve", choices=CURVE_KINDS, default=None)
    # Options left unset are not passed on, so the harness's own defaults apply.
    p_bench.add_argument("--d-values", type=_list_of(int, "D values"), default="4,8,12")
    p_bench.add_argument("--noise-factors", type=_list_of(float, "noise factors"), default="0")
    p_bench.add_argument("--n-grid", type=_list_of(int, "N grid"),
                         default="128,256,512,1024,2048,4096")
    p_bench.add_argument("--method", choices=SCHEDULE_METHODS)
    p_bench.add_argument("--test-count", type=int)
    p_bench.add_argument("--repetitions", type=int)
    p_bench.add_argument("--test-fraction", type=float)
    p_bench.add_argument("--folds", type=int)
    p_bench.add_argument("--j-grid", type=_list_of(int, "J grid"))
    p_bench.add_argument("--k-grid", type=_list_of(int, "k grid"))
    p_bench.add_argument("--eta", type=_parse_eta)
    p_bench.add_argument("--partition", choices=PARTITION_KINDS)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out-json", required=True)
    p_bench.add_argument("--out-csv", default=None)
    p_bench.set_defaults(func=cmd_benchmark)

    p_gram = sub.add_parser("gram", help="export Grammian CSVs for a list of J values")
    _add_dataset_flags(p_gram)
    p_gram.add_argument("--j-list", type=_list_of(int, "J list"), required=True,
                        help="comma-separated J values")
    p_gram.add_argument("--partition", choices=PARTITION_KINDS, default="dyadic")
    p_gram.add_argument("--rank-tol", type=float, default=None)
    p_gram.add_argument("--out-dir", required=True)
    p_gram.set_defaults(func=cmd_gram)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except NsimError as exc:
        print(f"nsim: error [{exc.code}] {exc}", file=sys.stderr)
        return exc.exit_status


if __name__ == "__main__":
    sys.exit(main())
