"""End-to-end estimator: fit, predict, sample-split variant, cross-validated
hyperparameter selection, the two reference baselines, and model JSON I/O.

Prediction and the kNN baseline are one call each into the neighbour search
(``search.neighbour_means``) over an index that owns the training rows.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .data import Dataset, check_count, check_eta, check_folds, check_row_norms, check_seed
from .errors import DataError, InfeasibleFitError, NsimError, UsageError
from .io import write_json
from .linalg import pseudo_inverse
from .partition import (
    ResponseInterval,
    ResponsePartition,
    dyadic_partition,
    equiblock_partition,
    member_groups,
)
from .search import ProxyIndex, neighbour_means
from .tangents import TangentField, centred_moments, fit_tangents

PARTITION_KINDS = ("dyadic", "equiblock")
ALGORITHMS = ("unsplit", "split")
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

    @cached_property
    def proxy_index(self) -> ProxyIndex:
        """The neighbour search's index over the training rows, built once
        per model object on first use; it is not part of the model JSON."""
        return ProxyIndex(self.train.features, self.tangents.vectors, self.tangent_assignment)


def check_partition_kind(kind) -> str:
    """``kind`` if it is one of ``PARTITION_KINDS``; otherwise ``UsageError``."""
    if kind not in PARTITION_KINDS:
        raise UsageError(f"unknown partition kind {kind!r}; expected one of {PARTITION_KINDS}")
    return kind


def _build_partition(kind: str, responses, j_count: int) -> ResponsePartition:
    if check_partition_kind(kind) == "dyadic":
        return dyadic_partition(responses, j_count)
    return equiblock_partition(responses, j_count)


def fit(
    data: Dataset,
    j_count: int,
    k: int,
    eta: float = math.inf,
    partition_kind: str = "dyadic",
    rank_tol: float | None = None,
) -> FittedNsim:
    """Build the response partition, fit the tangent field, and retain the
    training data for neighbor search.

    J and k must be integers >= 1 and eta positive or infinite; a bool, a
    float or a fraction for J or k raises ``UsageError``."""
    k = check_count(k, "k")
    eta = check_eta(eta)
    try:
        partition = _build_partition(partition_kind, data.responses, j_count)
        tangents = fit_tangents(data, partition, rank_tol)
    except NsimError as exc:
        raise type(exc)(f"J={j_count}: {exc}") from exc
    return FittedNsim(
        partition=partition,
        tangents=tangents,
        train=data,
        k=k,
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
    one is used instead.  The search is prediction's neighbour average with
    k = 1 over the geometry half's level-set indices, whose one-sample
    average is the index itself.  As for ``fit``, J and k must be integers
    >= 1 and eta positive or infinite.  The partition's groups index the
    geometry half.
    """
    if geometry_half.d != prediction_half.d:
        raise DataError(
            f"geometry half dim {geometry_half.d} != prediction half dim {prediction_half.d}"
        )
    geometry = fit(geometry_half, j_count, k, eta, partition_kind, rank_tol)
    inherited = neighbour_means(
        geometry.proxy_index, prediction_half.features, geometry.tangent_assignment, [1],
        geometry.eta,
    )[0]
    return replace(
        geometry,
        train=prediction_half,
        tangent_assignment=inherited.astype(np.intp),
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
    check_row_norms(arr, "queries")
    return arr


def _is_grid(k) -> bool:
    """Whether ``k`` asks for a grid (a sequence or a 1-d array) rather
    than one count."""
    return isinstance(k, (list, tuple, range)) or (isinstance(k, np.ndarray) and k.ndim == 1)


def predict_many(model: FittedNsim, queries, k=None) -> np.ndarray:
    """Mean response of the k proxy-metric-nearest training samples, per
    query row.

    Fewer than k candidates inside the restricting radius are averaged as-is;
    with none, the Euclidean-nearest training response is returned.  ``k``
    is ``None`` for ``model.k``, one integer >= 1, or a non-empty sequence of
    them (checked by ``count_grid``).  A sequence returns a
    (len(k), n_queries) array from one neighbour ranking with max(k); row i
    equals the single-k call with k[i] bit for bit.  Responses whose
    neighbour average overflows raise ``DataError``.
    """
    xs = _as_queries(queries, model.train.d)
    ks = [model.k] if k is None else count_grid(k, "k")
    means = neighbour_means(model.proxy_index, xs, model.train.responses, ks, model.eta)
    return means if _is_grid(k) else means[0]


@dataclass(frozen=True)
class CvReport:
    """Grid-search record: attempted (J, k) pairs in k-major order, their
    mean validation MSE (None when no fold was feasible), the selected pair,
    and the per-fold skips with reasons.

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


def fold_splits(n: int, folds: int, seed: int):
    """Yield ``(train_idx, val_idx)`` per fold.  Validation folds are
    contiguous blocks of a seeded permutation, sizes differing by at most 1;
    the training indices are the rest, ascending."""
    all_idx = np.arange(n)
    for val_idx in np.array_split(np.random.default_rng(seed).permutation(n), folds):
        yield np.sort(np.setdiff1d(all_idx, val_idx, assume_unique=True)), val_idx


def two_thirds_k(n_train: int) -> int:
    return max(1, math.ceil(0.5 * n_train ** (2.0 / 3.0)))


def mean_score(values) -> float:
    """``float(np.mean(values))`` for validation errors; a mean that
    overflows raises ``DataError`` instead of scoring inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        score = float(np.mean(values))
    if not math.isfinite(score):
        raise DataError("validation error overflows: responses too large in magnitude")
    return score


def fold_mse(preds, truth) -> float:
    """The mean squared error of one validation fold, by ``mean_score``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return mean_score((preds - truth) ** 2)


def count_grid(values, name: str) -> list[int]:
    """One count, or a non-empty list, tuple, range or 1-d array of them, as
    a list of ints; each entry must pass ``check_count``."""
    grid = list(values) if _is_grid(values) else [values]
    if not grid:
        raise UsageError(f"empty {name} grid")
    return [check_count(value, name) for value in grid]


def cross_validate(
    data: Dataset,
    j_grid,
    k_rule,
    eta: float = math.inf,
    folds: int = 5,
    seed: int = 0,
    partition_kind: str = "dyadic",
) -> CvReport:
    """Seeded k-fold grid search over (J, k).

    ``j_grid`` is one J or a non-empty sequence of them; ``k_rule`` is a
    fixed k, a non-empty sequence of them, or the string "two-thirds".  Every
    J and k must be an integer >= 1 (a bool, a float or a fraction raises
    ``UsageError`` before any fit), ``folds`` an integer >= 2 and ``seed`` an
    integer >= 0.  The grid is k-major, J-minor: (J_1, k_1), (J_2, k_1), ...,
    (J_1, k_2), ...; each (J, fold) is fitted once, and one ``predict_many``
    call ranks its validation rows once and scores every k.  ``selected`` is
    the first pair in grid order with the lowest mean validation MSE, so
    ties go to the earlier k, then the earlier J.  An infeasible (J, fold)
    is recorded in ``skipped`` once per k and excluded from scoring; a pair
    whose folds all fail scores None.  A score that overflows raises
    ``DataError``.
    """
    j_grid = count_grid(j_grid, "J")
    folds = check_folds(folds)
    seed = check_seed(seed)
    if folds > data.n:
        raise UsageError(f"folds ({folds}) exceed sample count ({data.n})")
    eta = check_eta(eta)
    check_partition_kind(partition_kind)
    two_thirds = isinstance(k_rule, str) and k_rule == "two-thirds"
    grid_ks = [two_thirds_k(data.n)] if two_thirds else count_grid(k_rule, "k")

    splits = []
    for train_idx, val_idx in fold_splits(data.n, folds, seed):
        fold_ks = [two_thirds_k(len(train_idx))] if two_thirds else grid_ks
        splits.append(
            (data.subset(train_idx), data.features[val_idx], data.responses[val_idx], fold_ks)
        )
    mses = [[[] for _ in j_grid] for _ in grid_ks]  # per k, per J: the fold MSEs
    failed = []  # (J, fold, reason) per infeasible fit
    for ji, j_count in enumerate(j_grid):
        for f, (fold_train, val_x, val_y, fold_ks) in enumerate(splits):
            try:
                model = fit(fold_train, j_count, fold_ks[0], eta, partition_kind)
            except (InfeasibleFitError, DataError) as exc:
                failed.append((j_count, f, str(exc)))
                continue
            for ki, preds in enumerate(predict_many(model, val_x, fold_ks)):
                mses[ki][ji].append(fold_mse(preds, val_y))

    grid = tuple((j, k) for k in grid_ks for j in j_grid)
    scores = tuple(mean_score(m) if m else None for row in mses for m in row)
    skipped = tuple(
        {"J": j, "k": k, "fold": f, "reason": reason} for k in grid_ks for j, f, reason in failed
    )
    feasible = [(s, pair) for s, pair in zip(scores, grid) if s is not None]
    if not feasible:
        reasons = skipped[0]["reason"] if skipped else "no pairs attempted"
        raise InfeasibleFitError(f"all (J, k) pairs infeasible; first reason: {reasons}")
    selected = min(feasible, key=lambda entry: entry[0])[1]  # first minimum in grid order

    return CvReport(
        grid=grid,
        fold_scores=scores,
        selected=selected,
        skipped=skipped,
        folds=folds,
        seed=seed,
        k_rule="two-thirds" if two_thirds else "fixed",
        eta=eta,
        partition_kind=partition_kind,
    )


def cv_report_to_dict(report: CvReport) -> dict:
    return {**asdict(report), "version": MODEL_FORMAT_VERSION, "eta": eta_to_json(report.eta)}


def baseline_knn_many(data: Dataset, queries, k) -> np.ndarray:
    """Euclidean kNN average with the same lowest-index tie rule.  k is an
    integer >= 1 (a bool, a float or a fraction raises ``UsageError``) or a
    non-empty sequence of them; each is clamped to the sample count.  A
    sequence returns a (len(k), n_queries) array from one ranking with the
    largest k, whose row i equals the single-k call with k[i] bit for bit."""
    ks = [min(value, data.n) for value in count_grid(k, "k")]
    xs = _as_queries(queries, data.d)
    means = neighbour_means(ProxyIndex(data.features), xs, data.responses, ks)
    return means if _is_grid(k) else means[0]


def baseline_linreg(data: Dataset) -> tuple[np.ndarray, float]:
    """Ordinary least squares on the full dataset via the pseudo-inverse;
    rank-deficient designs get the minimum-norm solution.  The moments are
    the fit's (``centred_moments`` with one group of every row).  Data
    whose moments overflow, so that a weight or the intercept is not
    finite, raise ``DataError``."""
    means_x, means_y, sigmas, rs = centred_moments(
        data.features, data.responses, [np.arange(data.n)]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        weights = pseudo_inverse(sigmas[0]) @ rs[0]
        intercept = float(means_y[0] - weights @ means_x[0])
    if not (np.isfinite(weights).all() and math.isfinite(intercept)):
        raise DataError("non-finite least-squares fit: moments of the data overflow")
    return weights, intercept


def linreg_predict(weights, intercept: float, queries) -> np.ndarray:
    """``queries @ weights + intercept``; a prediction that overflows
    raises ``DataError``."""
    weights = np.asarray(weights, dtype=np.float64)
    xs = _as_queries(queries, weights.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        preds = xs @ weights + intercept
    if not np.isfinite(preds).all():
        raise DataError("non-finite least-squares prediction: queries or weights too large")
    return preds


def eta_to_json(eta: float):
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
        "eta": eta_to_json(model.eta),
    }


def _whole_numbers(values, name: str) -> np.ndarray:
    """``values`` as an integer array; a fraction, a non-finite entry or one
    past the ``intp`` range raises ``DataError`` instead of being truncated
    or wrapped by the cast."""
    arr = np.asarray(values, dtype=np.float64)
    limit = float(np.iinfo(np.intp).max)  # 2^63 - 1 rounds up to 2^63
    if not np.all((arr == np.trunc(arr)) & (np.abs(arr) < limit)):
        raise DataError(f"model {name} must hold whole numbers below {limit:.3g} in magnitude")
    return arr.astype(np.intp)


_MODEL_KEYS = (
    "partition_kind", "intervals", "tangents", "level_means_x", "level_means_y", "counts",
    "tangent_assignment", "train_features", "train_responses", "k", "eta",
)
# the keys that hold numbers, each with the depth of its lists
_NUMBER_DEPTHS = {
    "version": 0, "k": 0, "eta": 0, "intervals": 2, "tangents": 2, "level_means_x": 2,
    "level_means_y": 1, "counts": 1, "tangent_assignment": 1, "train_features": 2,
    "train_responses": 1,
}
_JSON_KINDS = {bool: "boolean", str: "string", type(None): "null", list: "array", dict: "object"}


def _entry_types(value, depth: int) -> set:
    """The types of the entries ``depth`` lists deep in ``value``."""
    entries = [value]
    for _ in range(depth):
        entries = itertools.chain.from_iterable(entries)
    return set(map(type, entries))


def model_from_dict(doc: dict) -> FittedNsim:
    """Rebuild a model from its JSON document.

    Groups are reconstructed from the tangent assignment in the fitted
    order: an unsplit equiblock group by response, ties in ascending index
    order, and any other group in ascending index order (``member_groups``);
    for split models they index the retained prediction half rather than
    the discarded geometry half.  A document raises ``DataError`` when it
    has a missing key, intervals that are reversed or not contiguous, a
    tangent matrix that is not J x D or has a row off unit norm by more than
    1e-9, level means or counts not sized for J level sets, an assignment
    that does not give every training row a level set in [0, J), counts of
    an unsplit model that are not its level-set sizes, a fraction or a
    number past the ``intp`` range where k, the counts or the assignment
    need whole numbers, k < 1, eta <= 0, anything but a JSON number where a
    number belongs (the version, k, eta other than "inf", an interval bound
    or an entry of a number list), an interval whose closed flag is not a
    boolean, or a ``partition_kind`` or ``algorithm`` that is not one of the
    known names.  Its own checks raise their ``DataError`` as it is; a type
    the casts reject is reported as a malformed document.
    """
    if not isinstance(doc, dict):
        raise DataError("model document is not a JSON object")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {doc.get('version')!r}")
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if missing:
        raise DataError(f"model document lacks {', '.join(missing)}")
    try:
        numbers = {key: doc[key] for key in _NUMBER_DEPTHS}
        numbers["intervals"] = [interval[:2] for interval in doc["intervals"]]
        if isinstance(doc["eta"], str):  # "inf", read by _eta_from_json
            del numbers["eta"]
        for key, value in numbers.items():
            # a cast would read a boolean as 0 or 1 and a string by its digits
            strays = _entry_types(value, _NUMBER_DEPTHS[key]) - {int, float}
            if strays:
                kinds = " or ".join(sorted(_JSON_KINDS.get(t, t.__name__) for t in strays))
                raise DataError(f"model {key} holds a JSON {kinds} where a number belongs")
        intervals = tuple(
            ResponseInterval(float(lo), float(hi), closed) for lo, hi, closed in doc["intervals"]
        )
        assignment = _whole_numbers(doc["tangent_assignment"], "tangent_assignment")
        tangents = TangentField(
            vectors=np.asarray(doc["tangents"], dtype=np.float64),
            level_means_x=np.asarray(doc["level_means_x"], dtype=np.float64),
            level_means_y=np.asarray(doc["level_means_y"], dtype=np.float64),
            counts=_whole_numbers(doc["counts"], "counts"),
        )
        train = Dataset(
            np.asarray(doc["train_features"], dtype=np.float64),
            np.asarray(doc["train_responses"], dtype=np.float64),
        )
        k = _whole_numbers(doc["k"], "k")
        eta = _eta_from_json(doc["eta"])
    except DataError:
        raise
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed model document: {exc}") from exc
    k = int(k)  # a JSON number, so one whole number
    if k < 1:
        raise DataError(f"model k must be >= 1, got {k}")
    if not eta > 0:
        raise DataError(f"model eta must be positive, got {eta}")
    partition_kind = doc["partition_kind"]
    algorithm = doc.get("algorithm", "unsplit")
    if partition_kind not in PARTITION_KINDS:
        raise DataError(f"model partition_kind {partition_kind!r} is not one of {PARTITION_KINDS}")
    if algorithm not in ALGORITHMS:
        raise DataError(f"model algorithm {algorithm!r} is not one of {ALGORITHMS}")
    for j, iv in enumerate(intervals):
        if not isinstance(iv.closed_upper, bool):
            raise DataError(f"interval {j} closed flag {iv.closed_upper!r} is not true or false")
        if not iv.lower <= iv.upper:
            raise DataError(f"interval {j} is reversed: [{iv.lower}, {iv.upper}]")
        if j > 0 and iv.lower != intervals[j - 1].upper:
            raise DataError(
                f"interval {j} starts at {iv.lower}, not at the previous upper bound "
                f"{intervals[j - 1].upper}"
            )
    j_count = len(intervals)
    expected_shapes = {
        "tangents": (tangents.vectors, (j_count, train.d)),
        "level_means_x": (tangents.level_means_x, (j_count, train.d)),
        "level_means_y": (tangents.level_means_y, (j_count,)),
        "counts": (tangents.counts, (j_count,)),
    }
    for key, (arr, shape) in expected_shapes.items():
        if arr.shape != shape:
            raise DataError(
                f"{key} of shape {arr.shape} does not fit {j_count} level sets "
                f"in dimension {train.d}"
            )
    with np.errstate(over="ignore"):  # an overflowing norm is inf and fails the test below
        norms = np.linalg.norm(tangents.vectors, axis=1)
    off_unit = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-9))
    if off_unit.size:
        j = off_unit[0]
        raise DataError(f"tangent row {j} has norm {norms[j]}, not 1")
    if assignment.shape != (train.n,):
        raise DataError(
            f"tangent_assignment has shape {assignment.shape} for {train.n} training rows"
        )
    if assignment.min() < 0 or assignment.max() >= j_count:
        raise DataError(f"tangent_assignment entries must lie in [0, {j_count})")
    sizes = np.bincount(assignment, minlength=j_count)
    if algorithm == "unsplit" and not np.array_equal(tangents.counts, sizes):
        raise DataError(
            f"counts {tangents.counts.tolist()} do not match the level-set sizes "
            f"{sizes.tolist()} of tangent_assignment"
        )
    if algorithm == "unsplit" and partition_kind == "equiblock":
        # the fit lists a block by response, ties by index: lexsort is stable
        groups = tuple(np.split(np.lexsort((train.responses, assignment)), np.cumsum(sizes)[:-1]))
    else:
        groups = member_groups(assignment, j_count)
    return FittedNsim(
        partition=ResponsePartition(intervals, groups),
        tangents=tangents,
        train=train,
        k=k,
        eta=eta,
        partition_kind=partition_kind,
        tangent_assignment=assignment,
        algorithm=algorithm,
    )


def save_model(path, model: FittedNsim) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> FittedNsim:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"model file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid model JSON in {path}: {exc}") from exc
    return model_from_dict(doc)
