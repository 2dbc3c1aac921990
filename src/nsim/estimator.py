"""End-to-end estimator: fit, predict, sample-split variant, cross-validated
hyperparameter selection, the two reference baselines, and model JSON I/O.

Prediction averages the responses of the k training samples nearest in the
restricted proxy metric.  A query with no candidate inside the restricting
radius falls back to the Euclidean-nearest training sample, so prediction is
a total function.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, InfeasibleFitError, NsimError, UsageError
from .linalg import cross_covariance, pseudo_inverse, sample_covariance
from .metric import _check_eta
from .partition import (
    ResponseInterval,
    ResponsePartition,
    dyadic_partition,
    equiblock_partition,
)
from .tangents import TangentField, fit_tangents

PARTITION_KINDS = ("dyadic", "equiblock")
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FittedNsim:
    """Partition, tangent field, retained training samples, and the
    prediction hyperparameters (k, eta).

    ``tangent_assignment[i]`` is the tangent-field row attached to training
    sample i: its level-set index for a plain fit, or the index inherited
    from the nearest geometry sample for a sample-split fit.
    """

    partition: ResponsePartition
    tangents: TangentField
    train: Dataset
    k: int
    eta: float
    partition_kind: str
    tangent_assignment: np.ndarray
    algorithm: str = "unsplit"

    def tangent_rows(self) -> np.ndarray:
        return self.tangents.vectors[self.tangent_assignment]


def _build_partition(kind: str, responses, j_count: int) -> ResponsePartition:
    if kind == "dyadic":
        return dyadic_partition(responses, j_count)
    if kind == "equiblock":
        return equiblock_partition(responses, j_count)
    raise UsageError(f"unknown partition kind {kind!r}; expected one of {PARTITION_KINDS}")


def _check_fit_params(k: int, eta: float) -> float:
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    return _check_eta(eta)


def fit(
    data: Dataset,
    j_count: int,
    k: int,
    eta: float = math.inf,
    partition_kind: str = "dyadic",
    rank_tol: float | None = None,
) -> FittedNsim:
    """Build the response partition, fit the tangent field, and retain the
    training data for neighbor search."""
    eta = _check_fit_params(k, eta)
    try:
        partition = _build_partition(partition_kind, data.responses, j_count)
        tangents = fit_tangents(data, partition, rank_tol)
    except NsimError as exc:
        raise type(exc)(f"J={j_count}: {exc}") from exc
    return FittedNsim(
        partition=partition,
        tangents=tangents,
        train=data,
        k=int(k),
        eta=eta,
        partition_kind=partition_kind,
        tangent_assignment=partition.sample_groups(),
    )


def fit_split(
    geometry_half: Dataset,
    prediction_half: Dataset,
    j_count: int,
    k: int,
    eta: float = math.inf,
    partition_kind: str = "dyadic",
    rank_tol: float | None = None,
) -> FittedNsim:
    """Sample-split fit: the tangent field is learned on the geometry half
    and extended to the prediction half, whose responses alone are averaged
    at prediction time.

    Each prediction-half sample inherits the tangent of the geometry sample
    minimizing the proxy distance to it (lowest index on ties); with no
    geometry sample inside the restricting radius, the Euclidean-nearest
    one is used instead.
    """
    eta = _check_fit_params(k, eta)
    if geometry_half.d != prediction_half.d:
        raise DataError(
            f"geometry half dim {geometry_half.d} != prediction half dim {prediction_half.d}"
        )
    try:
        partition = _build_partition(partition_kind, geometry_half.responses, j_count)
        tangents = fit_tangents(geometry_half, partition, rank_tol)
    except NsimError as exc:
        raise type(exc)(f"J={j_count}: {exc}") from exc

    geo_assign = partition.sample_groups()
    picks = _ranked_picks(
        prediction_half.features, geometry_half.features, 1, (tangents.vectors, geo_assign), eta
    )
    nearest = np.fromiter((p[0] for p in picks), dtype=np.intp, count=prediction_half.n)
    assignment = geo_assign[nearest]

    return FittedNsim(
        partition=partition,
        tangents=tangents,
        train=prediction_half,
        k=int(k),
        eta=eta,
        partition_kind=partition_kind,
        tangent_assignment=assignment,
        algorithm="split",
    )


def _as_queries(queries, d: int) -> np.ndarray:
    arr = np.asarray(queries, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != d:
        raise DataError(f"queries of shape {arr.shape} incompatible with model dim {d}")
    if not np.all(np.isfinite(arr)):
        raise DataError("queries contain non-finite values")
    return arr


_CHUNK_BUDGET = 4_000_000  # floats per (queries x candidates) scratch block


def _query_chunks(n_queries: int, n_candidates: int):
    step = max(1, _CHUNK_BUDGET // max(1, n_candidates))
    for start in range(0, n_queries, step):
        yield start, min(start + step, n_queries)


def _euclidean_sq_block(queries, candidates, cand_sq) -> np.ndarray:
    out = queries @ candidates.T
    out *= -2.0
    out += np.einsum("md,md->m", queries, queries)[:, None]
    out += cand_sq[None, :]
    np.maximum(out, 0.0, out=out)
    return out


def _ranked_picks(queries, train_x, k: int, proxy=None, eta: float = math.inf):
    """Yield, per query row, the indices of its k nearest training rows in
    (distance, index) order, so ties go to the lower index.

    With ``proxy = (vectors, assignment)`` the distance to row i is the
    restricted proxy metric |a_i^T (x - X_i)| with a_i = vectors[assignment[i]],
    computed as |a_i^T x - a_i^T X_i| with the second dot product taken once,
    so a query costs O(N + J D) plus the Euclidean radius check.  Without it
    the distance is Euclidean.  Fewer than k rows inside the radius eta are
    all picked; with none, the Euclidean-nearest row alone is.
    """
    n = train_x.shape[0]
    clipped = proxy is not None and not math.isinf(eta)
    cand_sq = np.einsum("nd,nd->n", train_x, train_x) if proxy is None or clipped else None
    if proxy is not None:
        vectors, assignment = proxy
        offsets = np.einsum("nd,nd->n", train_x, vectors[assignment])
    for start, stop in _query_chunks(queries.shape[0], n):
        block = queries[start:stop]
        if proxy is None:
            dist = _euclidean_sq_block(block, train_x, cand_sq)
        else:
            dist = np.abs((block @ vectors.T)[:, assignment] - offsets[None, :])
            if clipped:
                eucl2 = _euclidean_sq_block(block, train_x, cand_sq)
                dist[eucl2 > eta * eta] = np.inf
        if k == 1:
            # argmin takes the first minimum, i.e. the lowest index on ties
            nearest = np.argmin(dist, axis=1)
            if clipped:
                empty = ~np.isfinite(dist).any(axis=1)
                if empty.any():
                    nearest[empty] = np.argmin(eucl2[empty], axis=1)
            yield from nearest[:, None]
            continue
        in_radius = np.isfinite(dist).sum(axis=1) if clipped else np.full(stop - start, n)
        for i, row in enumerate(dist):
            take = min(k, int(in_radius[i]))
            if take == 0:
                yield np.argmin(eucl2[i], keepdims=True)
                continue
            kth = np.partition(row, take - 1)[take - 1]
            pool = np.flatnonzero(row <= kth)  # ascending index order
            yield pool[np.argsort(row[pool], kind="stable")][:take]


def predict_many(model: FittedNsim, queries) -> np.ndarray:
    """Mean response of the k proxy-metric-nearest training samples, per
    query row.

    Fewer than k candidates inside the restricting radius are averaged as-is;
    with none, the Euclidean-nearest training response is returned.
    """
    xs = _as_queries(queries, model.train.d)
    picks = _ranked_picks(
        xs, model.train.features, model.k, (model.tangents.vectors, model.tangent_assignment),
        model.eta,
    )
    responses = model.train.responses
    return np.fromiter((responses[p].mean() for p in picks), dtype=np.float64, count=len(xs))


@dataclass(frozen=True)
class CvReport:
    """Grid-search record: attempted (J, k) pairs, their mean validation MSE
    (None when no fold was feasible), the selected pair, and the per-fold
    skips with reasons.

    Under the two-thirds rule each fold uses k = ceil(0.5 * n_train^(2/3))
    for its own training size; the k recorded in ``grid`` is the value at
    full data scale, which the final fit would use.
    """

    grid: tuple[tuple[int, int], ...]
    fold_scores: tuple[float | None, ...]
    selected: tuple[int, int]
    skipped: tuple[dict, ...]
    folds: int
    seed: int
    k_rule: str
    eta: float
    partition_kind: str


def fold_assignments(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Contiguous blocks of a seeded permutation; sizes differ by at most 1."""
    perm = np.random.default_rng(seed).permutation(n)
    return np.array_split(perm, folds)


def two_thirds_k(n_train: int) -> int:
    return max(1, math.ceil(0.5 * n_train ** (2.0 / 3.0)))


def cross_validate(
    data: Dataset,
    j_grid,
    k_rule,
    eta: float = math.inf,
    folds: int = 5,
    seed: int = 0,
    partition_kind: str = "dyadic",
    rank_tol: float | None = None,
) -> CvReport:
    """Seeded k-fold grid search over J.

    ``k_rule`` is either a fixed integer k or the string "two-thirds".
    Infeasible (J, fold) combinations are recorded and excluded from
    scoring; a J whose folds all fail scores None and cannot be selected.
    """
    j_grid = [int(j) for j in j_grid]
    if not j_grid:
        raise UsageError("empty J grid")
    if folds < 2:
        raise UsageError(f"folds must be >= 2, got {folds}")
    if folds > data.n:
        raise UsageError(f"folds ({folds}) exceed sample count ({data.n})")
    eta = _check_eta(eta)
    if k_rule == "two-thirds":
        fixed_k = None
    elif isinstance(k_rule, (int, np.integer)) and not isinstance(k_rule, bool):
        fixed_k = int(k_rule)
        if fixed_k < 1:
            raise UsageError(f"k must be >= 1, got {fixed_k}")
    else:
        raise UsageError(f"k_rule must be an integer or 'two-thirds', got {k_rule!r}")

    fold_sets = fold_assignments(data.n, folds, seed)
    all_idx = np.arange(data.n)
    grid: list[tuple[int, int]] = []
    scores: list[float | None] = []
    skipped: list[dict] = []

    for j_count in j_grid:
        k_full = fixed_k if fixed_k is not None else two_thirds_k(data.n)
        grid.append((j_count, k_full))
        fold_mses: list[float] = []
        for f, val_idx in enumerate(fold_sets):
            train_idx = np.sort(np.setdiff1d(all_idx, val_idx, assume_unique=True))
            k_fold = fixed_k if fixed_k is not None else two_thirds_k(len(train_idx))
            try:
                model = fit(
                    data.subset(train_idx), j_count, k_fold, eta, partition_kind, rank_tol
                )
            except (InfeasibleFitError, DataError) as exc:
                skipped.append(
                    {"J": j_count, "k": k_full, "fold": f, "reason": str(exc)}
                )
                continue
            preds = predict_many(model, data.features[val_idx])
            fold_mses.append(float(np.mean((preds - data.responses[val_idx]) ** 2)))
        scores.append(float(np.mean(fold_mses)) if fold_mses else None)

    feasible = [(s, pair) for s, pair in zip(scores, grid) if s is not None]
    if not feasible:
        reasons = skipped[0]["reason"] if skipped else "no pairs attempted"
        raise InfeasibleFitError(f"all (J, k) pairs infeasible; first reason: {reasons}")
    best_score = min(s for s, _ in feasible)
    selected = next(pair for s, pair in feasible if s == best_score)

    return CvReport(
        grid=tuple(grid),
        fold_scores=tuple(scores),
        selected=selected,
        skipped=tuple(skipped),
        folds=folds,
        seed=int(seed),
        k_rule="two-thirds" if fixed_k is None else "fixed",
        eta=eta,
        partition_kind=partition_kind,
    )


def cv_report_to_dict(report: CvReport) -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "grid": [[int(j), int(k)] for j, k in report.grid],
        "fold_scores": [None if s is None else float(s) for s in report.fold_scores],
        "selected": [int(report.selected[0]), int(report.selected[1])],
        "skipped": [
            {"J": int(s["J"]), "k": int(s["k"]), "fold": int(s["fold"]), "reason": s["reason"]}
            for s in report.skipped
        ],
        "folds": int(report.folds),
        "seed": int(report.seed),
        "k_rule": report.k_rule,
        "eta": _eta_to_json(report.eta),
        "partition_kind": report.partition_kind,
    }


def cv_report_to_json(report: CvReport) -> str:
    return json.dumps(cv_report_to_dict(report), indent=2, sort_keys=True)


def baseline_knn_many(data: Dataset, queries, k: int) -> np.ndarray:
    """Euclidean kNN average with the same lowest-index tie rule; k is
    clamped to the sample count."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    xs = _as_queries(queries, data.d)
    picks = _ranked_picks(xs, data.features, min(int(k), data.n))
    return np.fromiter((data.responses[p].mean() for p in picks), dtype=np.float64, count=len(xs))


def baseline_linreg(data: Dataset) -> tuple[np.ndarray, float]:
    """Ordinary least squares on the full dataset via the pseudo-inverse;
    rank-deficient designs get the minimum-norm solution."""
    sigma = sample_covariance(data.features)
    r = cross_covariance(data.features, data.responses)
    weights = pseudo_inverse(sigma) @ r
    intercept = float(data.responses.mean() - weights @ data.features.mean(axis=0))
    return weights, intercept


def linreg_predict(weights, intercept: float, queries) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    xs = _as_queries(queries, weights.shape[0])
    return xs @ weights + intercept


def _eta_to_json(eta: float):
    return "inf" if math.isinf(eta) else float(eta)


def _eta_from_json(value) -> float:
    if isinstance(value, str):
        if value != "inf":
            raise DataError(f"unrecognized eta encoding {value!r}")
        return math.inf
    return float(value)


def model_to_dict(model: FittedNsim) -> dict:
    """JSON-ready model document; eta = infinity is encoded as the string
    "inf" because JSON has no infinity literal."""
    return {
        "version": MODEL_FORMAT_VERSION,
        "algorithm": model.algorithm,
        "partition_kind": model.partition_kind,
        "intervals": [
            [iv.lower, iv.upper, iv.closed_upper] for iv in model.partition.intervals
        ],
        "tangents": model.tangents.vectors.tolist(),
        "level_means_x": model.tangents.level_means_x.tolist(),
        "level_means_y": model.tangents.level_means_y.tolist(),
        "counts": model.tangents.counts.tolist(),
        "tangent_assignment": model.tangent_assignment.tolist(),
        "train_features": model.train.features.tolist(),
        "train_responses": model.train.responses.tolist(),
        "k": int(model.k),
        "eta": _eta_to_json(model.eta),
    }


def model_to_json(model: FittedNsim) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True)


_MODEL_KEYS = (
    "partition_kind", "intervals", "tangents", "level_means_x", "level_means_y", "counts",
    "tangent_assignment", "train_features", "train_responses", "k", "eta",
)


def model_from_dict(doc: dict) -> FittedNsim:
    """Rebuild a model from its JSON document.

    Groups are reconstructed from the tangent assignment; for split models
    they index the retained prediction half rather than the discarded
    geometry half.  A document with a missing key, k < 1, eta <= 0, a
    tangent matrix that is not J x D, or an assignment that does not give
    every training row a level set in [0, J) raises ``DataError``.
    """
    if not isinstance(doc, dict):
        raise DataError("model document is not a JSON object")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {doc.get('version')!r}")
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if missing:
        raise DataError(f"model document lacks {', '.join(missing)}")
    try:
        intervals = tuple(
            ResponseInterval(float(lo), float(hi), bool(closed))
            for lo, hi, closed in doc["intervals"]
        )
        assignment = np.asarray(doc["tangent_assignment"], dtype=np.intp)
        tangents = TangentField(
            vectors=np.asarray(doc["tangents"], dtype=np.float64),
            level_means_x=np.asarray(doc["level_means_x"], dtype=np.float64),
            level_means_y=np.asarray(doc["level_means_y"], dtype=np.float64),
            counts=np.asarray(doc["counts"], dtype=np.intp),
        )
        train = Dataset(
            np.asarray(doc["train_features"], dtype=np.float64),
            np.asarray(doc["train_responses"], dtype=np.float64),
        )
        k = int(doc["k"])
        eta = _eta_from_json(doc["eta"])
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed model document: {exc}") from exc
    if k < 1:
        raise DataError(f"model k must be >= 1, got {k}")
    if not eta > 0:
        raise DataError(f"model eta must be positive, got {eta}")
    j_count = len(intervals)
    if tangents.vectors.shape != (j_count, train.d):
        raise DataError(
            f"tangents of shape {tangents.vectors.shape} do not fit {j_count} level sets "
            f"in dimension {train.d}"
        )
    if assignment.shape != (train.n,):
        raise DataError(
            f"tangent_assignment has shape {assignment.shape} for {train.n} training rows"
        )
    if assignment.min() < 0 or assignment.max() >= j_count:
        raise DataError(f"tangent_assignment entries must lie in [0, {j_count})")
    groups = tuple(np.flatnonzero(assignment == j) for j in range(j_count))
    return FittedNsim(
        partition=ResponsePartition(intervals, groups),
        tangents=tangents,
        train=train,
        k=k,
        eta=eta,
        partition_kind=str(doc["partition_kind"]),
        tangent_assignment=assignment,
        algorithm=str(doc.get("algorithm", "unsplit")),
    )


def save_model(path, model: FittedNsim) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")


def load_model(path) -> FittedNsim:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"model file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid model JSON in {path}: {exc}") from exc
    return model_from_dict(doc)
