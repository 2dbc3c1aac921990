"""Error metrics, decay-rate fits, and the experiment harnesses.

``run_schedule`` reproduces the synthetic rate studies at desk scale: for
each (curve, D, noise factor, N, repetition) cell it generates data, fits
with the schedule's parameter rules, and evaluates the relative function
RMSE on 1000 fresh test points plus the tangent-field RMSE against the true
midpoint tangents.  ``real_benchmark`` runs the repeated-split protocol used
for tabular data sets.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .data import Dataset, check_count, check_eta, check_folds, check_seed
from .errors import DataError, InfeasibleFitError, UsageError
from .estimator import (
    baseline_knn_many,
    baseline_linreg,
    check_partition_kind,
    count_grid,
    cross_validate,
    eta_to_json,
    fit,
    fold_splits,
    linreg_predict,
    predict_many,
    two_thirds_k,
)
from .geometry import (
    CURVE_KINDS,
    SynthConfig,
    curve_tangent,
    generate,
    make_curve,
    true_link_values,
)
from .io import format_float

SCHEDULE_METHODS = ("nsim", "knn")
_CURVE_ID = {kind: i for i, kind in enumerate(CURVE_KINDS)}


def rmse_function(predictions, truths) -> float:
    """Relative RMSE: sqrt(sum (pred - truth)^2 / sum truth^2).

    When either sum overflows, or the truths' underflows to 0, both sums
    are taken again on the values divided by max |truth|, which leaves the
    ratio unchanged; otherwise the plain sums give the result."""
    preds = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truths, dtype=np.float64)
    if preds.shape != truth.shape or preds.ndim != 1 or preds.size == 0:
        raise DataError(
            f"predictions and truths must be equal-length vectors, got {preds.shape} and {truth.shape}"
        )
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        err = float(np.sum((preds - truth) ** 2))
        denom = float(np.sum(truth**2))
        if not (math.isfinite(err) and math.isfinite(denom) and denom > 0.0):
            scale = float(np.max(np.abs(truth)))
            if scale == 0.0:
                raise DataError("undefined relative RMSE: truths are all zero")
            err = float(np.sum((preds / scale - truth / scale) ** 2))
            denom = float(np.sum((truth / scale) ** 2))
    return math.sqrt(err / denom)


def rmse_tangent(estimated, true_at_midpoints) -> float:
    """sqrt((1/J) * sum_j ||a_hat_j - a_j||^2) over unit vectors."""
    est = np.atleast_2d(np.asarray(estimated, dtype=np.float64))
    true = np.atleast_2d(np.asarray(true_at_midpoints, dtype=np.float64))
    if est.shape != true.shape or est.size == 0:
        raise DataError(f"tangent lists differ in shape: {est.shape} vs {true.shape}")
    return math.sqrt(float(np.mean(np.sum((est - true) ** 2, axis=1))))


def decay_slope(n_values, errors) -> float:
    """Least-squares slope of log(error) against log(N)."""
    ns = np.asarray(n_values, dtype=np.float64)
    errs = np.asarray(errors, dtype=np.float64)
    if ns.shape != errs.shape or ns.ndim != 1 or ns.size < 3:
        raise UsageError("decay_slope needs at least 3 aligned points")
    if np.any(ns <= 0) or np.any(errs <= 0):
        raise DataError("decay_slope requires positive sample counts and errors")
    return float(np.polyfit(np.log(ns), np.log(errs), 1)[0])


@dataclass(frozen=True)
class ScheduleCell:
    """Outcome of one (curve, D, c, N, repetition) run; the fields, in
    order, are the columns of ``schedule_csv_rows``."""

    curve: str
    ambient_dim: int
    noise_factor: float
    n: int
    rep: int
    rmse_f: float
    rmse_a: float  # NaN for the kNN baseline
    j_used: int
    k_used: int


@dataclass(frozen=True)
class ExperimentResult:
    """Per-(curve, D, c) aggregation over repetitions."""

    curve: str
    ambient_dim: int
    noise_factor: float
    method: str
    n_values: tuple[int, ...]
    repetitions: int
    rmse_f_mean: tuple[float, ...]
    rmse_f_std: tuple[float, ...]
    rmse_a_mean: tuple[float, ...]
    rmse_a_std: tuple[float, ...]
    cells: tuple[ScheduleCell, ...]
    skipped: tuple[dict, ...]
    fingerprint: str


def _noise_key(c: float) -> int:
    """A noise factor's share of the cell seeds: c in units of 1e-12."""
    scaled = c * 1e12
    if not math.isfinite(scaled):
        raise UsageError(f"noise factor {c!r} is too large to seed a cell")
    return int(round(scaled))


def _cell_seeds(seed: int, curve: str, d: int, c: float, n: int, rep: int) -> tuple[int, int, int]:
    entropy = (int(seed), _CURVE_ID[curve], int(d), _noise_key(c), int(n), int(rep))
    state = np.random.SeedSequence(entropy).generate_state(3, dtype=np.uint64)
    return int(state[0]), int(state[1]), int(state[2])


def _fingerprint(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def noise_free_j(n: int, d: int) -> int:
    return max(1, n // (15 * d))


def _true_midpoint_tangents(curve, model, t_true: np.ndarray, ambient_dim: int) -> np.ndarray:
    out = np.zeros((model.partition.n_groups, ambient_dim))
    for j, idx in enumerate(model.partition.groups):
        t_bar = float(np.mean(t_true[idx]))
        tangent = curve_tangent(curve, t_bar)
        out[j, : tangent.shape[0]] = tangent
    return out


def run_schedule(
    curve_kind: str,
    d_values,
    noise_factors,
    n_grid,
    repetitions: int,
    seed: int,
    *,
    method: str = "nsim",
    partition_kind: str = "dyadic",
    eta: float = 0.5,
    j_grid_noisy=(1, 2, 4, 8),
    cv_folds: int = 5,
    test_count: int = 1000,
) -> list[ExperimentResult]:
    """Run the synthetic rate schedule for one curve.

    Noise-free cells use k = 1 and J = max(1, floor(N / (15 D))); noisy
    cells use k = ceil(0.5 * N^(2/3)) with J cross-validated over
    ``j_grid_noisy``.  Per-cell seeds derive deterministically from the
    master seed and the cell coordinates, so reruns and the kNN baseline
    see identical data in the ``SynthConfig`` default tube.  Infeasible cells
    are recorded and skipped; bad parameters raise ``UsageError`` before the
    first cell: D and N values, the repetition, fold and test counts must be
    integers (D above the curve's embedding dimension, folds >= 2), the
    partition kind one of ``PARTITION_KINDS``, and the noise factors a
    non-empty list of finite numbers >= 0 small enough to seed a cell.
    """
    if method not in SCHEDULE_METHODS:
        raise UsageError(f"unknown schedule method {method!r}; expected one of {SCHEDULE_METHODS}")
    repetitions = check_count(repetitions, "repetitions")
    seed = check_seed(seed)
    eta = check_eta(eta)
    j_grid_noisy = count_grid(j_grid_noisy, "J")
    d_values = count_grid(d_values, "D")
    n_grid = count_grid(n_grid, "N")
    cv_folds = check_folds(cv_folds)
    test_count = check_count(test_count, "test_count")
    partition_kind = check_partition_kind(partition_kind)
    noise_factors = list(noise_factors)
    if not noise_factors:
        raise UsageError("empty noise factor grid")
    curve = make_curve(curve_kind)
    configs = []  # one test-set generator config per (D, c)
    for d in d_values:
        for c in noise_factors:
            config = SynthConfig(curve, d, test_count, seed, noise_factor=c)  # checks D and c
            _noise_key(c)
            configs.append((d, c, replace(config, noise_factor=float(c))))
    results = []

    for d, c, config in configs:
        cells: list[ScheduleCell] = []
        skipped: list[dict] = []
        for n in n_grid:
            for rep in range(repetitions):
                train_seed, test_seed, cv_seed = _cell_seeds(seed, curve_kind, d, c, n, rep)
                train_ds, train_samples = generate(replace(config, n_samples=n, seed=train_seed))
                test_ds, test_samples = generate(replace(config, seed=test_seed))
                test_truth = true_link_values(curve, np.array([s.t_true for s in test_samples]))
                k_used = 1 if c == 0.0 else two_thirds_k(n)
                if method == "nsim":
                    try:
                        if c == 0.0:
                            j_used = noise_free_j(n, d)
                        else:
                            report = cross_validate(
                                train_ds, j_grid_noisy, k_used, eta, cv_folds,
                                cv_seed, partition_kind,
                            )
                            j_used = report.selected[0]
                        model = fit(train_ds, j_used, k_used, eta, partition_kind)
                    except (InfeasibleFitError, DataError) as exc:
                        skipped.append({"n": int(n), "rep": rep, "reason": str(exc)})
                        continue
                    preds = predict_many(model, test_ds.features)
                    t_true = np.array([s.t_true for s in train_samples])
                    true_tangents = _true_midpoint_tangents(curve, model, t_true, d)
                    rmse_a = rmse_tangent(model.tangents.vectors, true_tangents)
                else:
                    j_used = 0  # the Euclidean baseline has no level sets
                    preds = baseline_knn_many(train_ds, test_ds.features, k_used)
                    rmse_a = math.nan
                cells.append(
                    ScheduleCell(
                        curve=curve_kind,
                        ambient_dim=int(d),
                        noise_factor=float(c),
                        n=int(n),
                        rep=rep,
                        rmse_f=rmse_function(preds, test_truth),
                        rmse_a=rmse_a,
                        j_used=int(j_used),
                        k_used=int(k_used),
                    )
                )

        results.append(
            _aggregate(curve_kind, d, c, method, n_grid, repetitions, cells, skipped, seed)
        )
    return results


def _aggregate(curve_kind, d, c, method, n_grid, repetitions, cells, skipped, seed):
    n_values = tuple(int(n) for n in n_grid)
    f_mean, f_std, a_mean, a_std = [], [], [], []
    for n in n_values:
        fs = [cell.rmse_f for cell in cells if cell.n == n]
        as_ = [cell.rmse_a for cell in cells if cell.n == n and not math.isnan(cell.rmse_a)]
        f_mean.append(float(np.mean(fs)) if fs else math.nan)
        f_std.append(float(np.std(fs)) if fs else math.nan)
        a_mean.append(float(np.mean(as_)) if as_ else math.nan)
        a_std.append(float(np.std(as_)) if as_ else math.nan)
    fingerprint = _fingerprint(
        {
            "curve": curve_kind,
            "ambient_dim": int(d),
            "noise_factor": float(c),
            "method": method,
            "n_values": list(n_values),
            "repetitions": repetitions,
            "seed": int(seed),
        }
    )
    return ExperimentResult(
        curve=curve_kind,
        ambient_dim=int(d),
        noise_factor=float(c),
        method=method,
        n_values=n_values,
        repetitions=repetitions,
        rmse_f_mean=tuple(f_mean),
        rmse_f_std=tuple(f_std),
        rmse_a_mean=tuple(a_mean),
        rmse_a_std=tuple(a_std),
        cells=tuple(cells),
        skipped=tuple(skipped),
        fingerprint=fingerprint,
    )


def _csv_cell(value) -> str:
    """One report value as a CSV cell: None is empty, a float has 17
    significant digits, anything else is its ``str``."""
    if value is None:
        return ""
    return format_float(value) if isinstance(value, float) else str(value)


def schedule_csv_rows(results) -> list[list[str]]:
    """Per-repetition rows: curve, D, c, N, rep, rmse_f, rmse_a, J_used, k_used."""
    rows = [["curve", "D", "c", "N", "rep", "rmse_f", "rmse_a", "J_used", "k_used"]]
    for result in results:
        rows.extend([_csv_cell(v) for v in astuple(cell)] for cell in result.cells)
    return rows


def split_csv_rows(report: dict) -> list[list[str]]:
    """Per-split rows of a ``real_benchmark`` report: method, rep, rmse, k, J."""
    columns = ["method", "rep", "rmse", "k", "J"]
    return [columns] + [[_csv_cell(split[c]) for c in columns] for split in report["splits"]]


def _json_ready(value):
    """A report field as JSON: tuples as lists, NaN as null."""
    if isinstance(value, tuple):
        return [_json_ready(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def schedule_summary(results) -> dict:
    """JSON-ready summary: each result's fields but its cells, NaN as null,
    plus the log-log slopes of its mean errors."""
    out = {"version": 1, "results": []}
    for r in results:
        entry = {f.name: _json_ready(getattr(r, f.name)) for f in fields(r) if f.name != "cells"}
        entry["slope_rmse_f"] = _safe_slope(r.n_values, r.rmse_f_mean)
        entry["slope_rmse_a"] = _safe_slope(r.n_values, r.rmse_a_mean)
        out["results"].append(entry)
    return out


def _safe_slope(n_values, errors):
    errs = [e for e in errors if not math.isnan(e)]
    if len(errs) != len(errors) or len(errs) < 3 or any(e <= 0 for e in errs):
        return None
    return decay_slope(n_values, errors)


BENCHMARK_METHODS = ("nsim-dyadic", "nsim-equiblock", "linreg", "knn")


def real_benchmark(
    data: Dataset,
    seed: int,
    *,
    repetitions: int = 30,
    test_fraction: float = 0.15,
    folds: int = 5,
    j_grid=(1, 2, 4, 8, 16),
    k_grid=(1, 2, 4, 8, 16, 32, 64),
    eta: float = math.inf,
) -> dict:
    """Repeated-split benchmark: per repetition, hold out a test fraction,
    tune hyperparameters by k-fold cross-validation on the rest, and report
    mean and std of the relative test RMSE plus mean selected k and J.

    A split on which a method raises ``InfeasibleFitError`` or ``DataError``
    is kept as a row with its ``reason`` and an rmse of None, and left out
    of that method's ``splits_used`` and means; the other methods still
    report.  The J and k grids and eta are checked before any work, by the
    rules of ``cross_validate``."""
    if not 0.0 < test_fraction < 1.0:
        raise UsageError(f"test_fraction must be in (0, 1), got {test_fraction}")
    repetitions = check_count(repetitions, "repetitions")
    folds = check_folds(folds)
    seed = check_seed(seed)
    j_grid = count_grid(j_grid, "J")
    k_grid = count_grid(k_grid, "k")
    eta = check_eta(eta)

    n_test = max(1, int(round(test_fraction * data.n)))
    if data.n - n_test < folds:
        raise UsageError(
            f"not enough training samples ({data.n - n_test}) for {folds}-fold CV"
        )

    split_rows: list[dict] = []
    for rep in range(repetitions):
        state = np.random.SeedSequence((int(seed), rep)).generate_state(2, dtype=np.uint64)
        perm = np.random.default_rng(int(state[0])).permutation(data.n)
        cv_seed = int(state[1])
        test_idx = np.sort(perm[:n_test])
        train_idx = np.sort(perm[n_test:])
        train, test = data.subset(train_idx), data.subset(test_idx)

        for method in BENCHMARK_METHODS:
            row = {"method": method, "rep": rep, "rmse": None, "k": None, "J": None}
            try:
                if method.startswith("nsim-"):
                    kind = method.split("-", 1)[1]
                    j_sel, k_sel = cross_validate(
                        train, j_grid, k_grid, eta, folds, cv_seed, kind
                    ).selected
                    model = fit(train, j_sel, k_sel, eta, kind)
                    preds = predict_many(model, test.features)
                    row.update(rmse=rmse_function(preds, test.responses), k=k_sel, J=j_sel)
                elif method == "knn":
                    k_sel = _knn_cv(train, k_grid, folds, cv_seed)
                    preds = baseline_knn_many(train, test.features, k_sel)
                    row.update(rmse=rmse_function(preds, test.responses), k=k_sel)
                else:
                    weights, intercept = baseline_linreg(train)
                    preds = linreg_predict(weights, intercept, test.features)
                    row.update(rmse=rmse_function(preds, test.responses))
            except (InfeasibleFitError, DataError) as exc:
                row["reason"] = str(exc)
            split_rows.append(row)

    summary = {}
    for method in BENCHMARK_METHODS:
        rows = [r for r in split_rows if r["method"] == method and "reason" not in r]
        rmses = [r["rmse"] for r in rows]
        entry = {
            "splits_used": len(rows),
            "rmse_mean": float(np.mean(rmses)) if rows else None,
            "rmse_std": float(np.std(rmses)) if rows else None,
        }
        ks = [r["k"] for r in rows if r["k"] is not None]
        js = [r["J"] for r in rows if r["J"] is not None]
        if ks:
            entry["k_mean"] = float(np.mean(ks))
        if js:
            entry["j_mean"] = float(np.mean(js))
        summary[method] = entry

    return {
        "version": 1,
        "n": data.n,
        "d": data.d,
        "repetitions": repetitions,
        "test_fraction": test_fraction,
        "folds": folds,
        "j_grid": j_grid,
        "k_grid": k_grid,
        "eta": eta_to_json(eta),
        "seed": int(seed),
        "methods": summary,
        "splits": split_rows,
    }


def _knn_cv(train: Dataset, k_grid, folds: int, seed: int) -> int:
    """The k in ``k_grid`` with the lowest mean validation MSE; the first
    such k on ties.  Each fold ranks its validation rows once, for the
    whole grid."""
    mses = [[] for _ in k_grid]
    for train_idx, val_idx in fold_splits(train.n, folds, seed):
        val_x, val_y = train.features[val_idx], train.responses[val_idx]
        for i, preds in enumerate(baseline_knn_many(train.subset(train_idx), val_x, k_grid)):
            mses[i].append(float(np.mean((preds - val_y) ** 2)))
    best = min(range(len(k_grid)), key=lambda i: float(np.mean(mses[i])))
    return k_grid[best]
