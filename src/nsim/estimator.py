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
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .data import Dataset, check_count, check_eta, check_folds, check_row_norms, check_seed
from .errors import DataError, InfeasibleFitError, NsimError, UsageError
from .io import write_json
from .linalg import cross_covariance, pseudo_inverse, sample_covariance
from .partition import (
    ResponseInterval,
    ResponsePartition,
    dyadic_partition,
    equiblock_partition,
)
from .tangents import TangentField, fit_tangents

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
    def proxy_index(self) -> "ProxyIndex":
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
    inherited = _neighbour_means(
        prediction_half.features, geometry_half.features, geometry.tangent_assignment, [1],
        geometry.proxy_index, geometry.eta,
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


_CHUNK_BUDGET = 4_000_000  # floats per (queries x candidates) scratch block

# A finite-eta proxy search walks the sorted-offset index when
# max(ks) * _INDEX_ROWS_PER_K <= N and tests every row otherwise.  On the
# perfbench helix (D = 12, N = 16384, eta = 0.5, 10% of queries off the
# tube; 2 cores, OpenBLAS) the walk took 0.31-0.35 of the loop's time at
# k = 32, 0.53-0.56 at k = 128, and broke even near k = 256 (N / k = 64):
# 0.95-1.04 at k = 256 and 1.04 at predict-stream's k = 323.
_INDEX_ROWS_PER_K = 128
# A query whose proxy windows would hold more than N / _INDEX_WINDOW_DIVISOR
# rows before it is settled leaves the walk for the loop's full radius test.
# This bounds the walk's cost where the data are not near a curve: on
# Gaussian features (D = 3 and 12) the search took 1.03-1.11 of the loop's
# time, against 16 times it with no bound.
_INDEX_WINDOW_DIVISOR = 32

_EPS = float(np.finfo(np.float64).eps)
_MAX_RADIUS = float(np.finfo(np.float64).max) / 4  # a radius that doubles stays finite


def _query_chunks(n_queries: int, n_candidates: int):
    step = max(1, _CHUNK_BUDGET // max(1, n_candidates))
    for start in range(0, n_queries, step):
        yield start, min(start + step, n_queries)


def _expanded_sq(prod, q_sq, c_sq) -> np.ndarray:
    """||q||^2 - 2 q.x + ||x||^2 from ``prod`` = q.x, in place, clamped at 0.
    Every Euclidean distance of the search comes from here, so an entry
    gathered on its own has the bits it has in a full block."""
    prod *= -2.0
    prod += q_sq
    prod += c_sq
    np.maximum(prod, 0.0, out=prod)
    return prod


def _smallest(row, k: int) -> np.ndarray:
    """Positions of the min(k, len(row)) smallest entries of ``row`` in
    (value, position) order."""
    take = min(k, row.shape[0])
    if take == 1:
        return np.argmin(row, keepdims=True)  # first minimum: lowest position on ties
    kth = np.partition(row, take - 1)[take - 1]
    pool = np.flatnonzero(row <= kth)  # ascending position order
    return pool[np.argsort(row[pool], kind="stable")][:take]


class ProxyIndex:
    """The proxy metric over one training set: the tangent ``vectors``,
    each row's level set in ``assignment`` and its offset c_i = a_i^T X_i.
    ``sorted`` orders each level set's offsets on first use."""

    def __init__(self, train_x, vectors, assignment):
        self.vectors = vectors
        self.assignment = assignment
        self.offsets = np.einsum("nd,nd->n", train_x, vectors[assignment])

    @cached_property
    def sorted(self):
        """(order, offsets[order], bounds): the rows by level set, then
        offset, then index; level set j holds positions bounds[j]:bounds[j+1]."""
        order = np.lexsort((self.offsets, self.assignment))
        bounds = np.searchsorted(self.assignment[order], np.arange(len(self.vectors) + 1))
        return order, self.offsets[order], bounds

    @cached_property
    def vector_norm(self) -> float:
        return float(np.sqrt(np.einsum("jd,jd->j", self.vectors, self.vectors).max()))


def _slab(index: ProxyIndex, eta: float, q_sq, c_sq_max: float, d: int) -> np.ndarray:
    """Per query, a bound on the computed proxy distance of every row that
    passes the computed radius test.

    With reach = ||q|| + max ||X_i||, the expanded squared distance is
    within (D/2 + 1) eps reach^2 of the exact one, so a passing row lies
    within sqrt(eta^2 + that) of q, and by Cauchy-Schwarz its exact proxy
    distance is at most ||a|| times that.  The two computed dot products
    add D eps ||a|| reach / 2.  Both terms are doubled here; with squared
    row norms below max_float / 8, reach^2 <= max_float / 2 cannot overflow.
    """
    reach = np.sqrt(q_sq) + math.sqrt(c_sq_max)
    rounding = (d + 3) * _EPS * reach * reach
    bound = np.sqrt(eta * eta + rounding) + (d + 2) * _EPS * reach
    return bound * (index.vector_norm * (1.0 + 8.0 * _EPS))


def _lex_order(owner, dist, rows, n: int) -> np.ndarray:
    """``np.lexsort((rows, dist, owner))`` for owners and rows below n and
    M = len(dist) <= m n entries: one float sort ranks the distances (equal
    ones share a rank), and the unique integer key (owner M + rank) n + row,
    below (m n)^2, orders the rest."""
    by_dist = np.argsort(dist)
    ranked = dist[by_dist]
    rank = np.empty(dist.shape[0], dtype=np.int64)
    rank[by_dist] = np.cumsum(np.concatenate(([0], ranked[1:] != ranked[:-1])))
    return np.argsort((owner * dist.shape[0] + rank) * n + rows)


def _indexed_picks(index: ProxyIndex, gram, q_sq, c_sq, proj, eta: float, k_max: int, slab):
    """(picks, takes, rest): the first ``takes[i]`` entries of ``picks[i]``
    are the rows the radius-first loop picks for query i, in its order,
    except for the queries in ``rest``, left to the loop.

    Per level set j, a query gathers the rows whose offsets lie in
    [p_j - r, p_j + r], found by ``searchsorted``, and takes their radius
    test and proxy distances from ``gram`` (the chunk's q.x block) and
    ``proj`` as the loop does.  It is settled once its k-th in-radius
    distance lies below every row left out, or every row left out lies
    beyond its ``slab`` bound and so cannot pass the radius test; until
    then r doubles.  Both checks read the nearest left-out row on each side
    of each window, which no row further out in offset order undercuts, so
    ties at the k-th place are gathered whole.  A query whose windows would
    hold more than N / _INDEX_WINDOW_DIVISOR rows joins ``rest``.
    """
    m, n = gram.shape
    order, sorted_off, bounds = index.sorted
    first, last = bounds[:-1], bounds[1:]
    eta_sq = eta * eta
    width = min(k_max, n)
    picks = np.zeros((m, width), dtype=np.intp)
    takes = np.zeros(m, dtype=np.intp)
    rest = []
    todo = np.arange(m)
    # windows start at 16 k / N of eta, a few times k rows for data near a curve
    radius = np.full(m, min(eta, _MAX_RADIUS) * min(1.0, 16.0 * k_max / n))
    while todo.size:
        p, r = proj[todo], radius[todo]
        lo = np.empty(p.shape, dtype=np.intp)
        hi = np.empty(p.shape, dtype=np.intp)
        for j in range(first.shape[0]):
            level = sorted_off[first[j]:last[j]]
            ends = np.searchsorted(level, np.concatenate((p[:, j] - r, p[:, j] + r)))
            lo[:, j], hi[:, j] = ends[: todo.size], ends[todo.size:]
        lo += first
        hi += first
        held = (hi - lo).sum(axis=1)
        heavy = held > n // _INDEX_WINDOW_DIVISOR
        if heavy.any():
            rest.append(todo[heavy])
            todo, p, lo, hi, held = todo[~heavy], p[~heavy], lo[~heavy], hi[~heavy], held[~heavy]
            if not todo.size:
                break

        lengths = (hi - lo).ravel()
        ends = np.cumsum(lengths)
        rows = order[np.arange(ends[-1]) + np.repeat(lo.ravel() - (ends - lengths), lengths)]
        owner = np.repeat(todo, held)
        inside = ~(_expanded_sq(gram[owner, rows], q_sq[owner], c_sq[rows]) > eta_sq)
        owner, rows = owner[inside], rows[inside]
        dist = np.abs(proj[owner, index.assignment[rows]] - index.offsets[rows])
        ranked = _lex_order(owner, dist, rows, n)
        owner, rows, dist = owner[ranked], rows[ranked], dist[ranked]
        seg = np.searchsorted(owner, todo)
        count = np.searchsorted(owner, todo, "right") - seg

        has_left, has_right = lo > first, hi < last
        left = np.where(has_left, np.abs(p - sorted_off[np.where(has_left, lo - 1, 0)]), np.inf)
        right = np.where(has_right, np.abs(p - sorted_off[np.where(has_right, hi, 0)]), np.inf)
        frontier = np.minimum(left, right).min(axis=1)
        kth = np.full(todo.size, np.inf)
        full = count >= k_max
        kth[full] = dist[seg[full] + k_max - 1]
        done = (kth < frontier) | (frontier > slab[todo]) | np.isinf(frontier)

        settled, take, seg = todo[done], np.minimum(count[done], k_max), seg[done]
        takes[settled] = take
        col = np.arange(take.sum()) - np.repeat(np.cumsum(take) - take, take)
        picks[np.repeat(settled, take), col] = rows[np.repeat(seg, take) + col]
        empty = take == 0
        if empty.any():  # no row inside the radius: leave the fallback to the loop
            rest.append(settled[empty])
        todo = todo[~done]
        limit = np.minimum(slab[todo], _MAX_RADIUS)
        radius[todo] = np.where(radius[todo] < limit, radius[todo], np.inf) * 2.0
    return picks, takes, np.concatenate(rest) if rest else np.empty(0, dtype=np.intp)


def _average_picks(values, picks, takes, ks, out) -> None:
    """out[i, q] = the mean of ``values`` over the first min(ks[i], takes[q])
    picks of query q, as ``sum() / size``: queries sharing a size are summed
    together, row by row, with the bits of one query's ``sum()``."""
    for ki, k in enumerate(ks):
        sizes = np.minimum(takes, k)
        for size in np.flatnonzero(np.bincount(sizes)):
            rows = np.flatnonzero(sizes == size)
            out[ki, rows] = values[picks[rows, :size]].sum(axis=1) / size


@np.errstate(over="ignore", invalid="ignore")  # an overflowing sum surfaces as a DataError
def _neighbour_means(queries, train_x, values, ks, proxy: ProxyIndex | None = None,
                     eta: float = math.inf):
    """(len(ks), n_queries) array whose row i averages ``values`` over each
    query's ks[i] nearest training rows in (distance, index) order, so ties
    go to the lower index.

    With a ``proxy`` index the distance to row i is the restricted proxy
    metric |a_i^T (x - X_i)|, computed as |a_i^T x - c_i| with the offsets
    c_i of the index.  Without it the distance is Euclidean.  Fewer than k
    rows inside the radius eta are all averaged; with none, the
    Euclidean-nearest row alone is.

    Each query is ranked once, with max(ks), and each k averages the first
    k rows of that ranking (``_average_picks``; a prefix sum would differ in
    the last bits).  A non-finite average raises ``DataError``.

    A finite-eta search computes each query chunk's q.x block with one
    matrix product, O(N D) per query, into one scratch buffer, and takes
    every radius test and Euclidean fallback from it.  Then:
    - with max(ks) * _INDEX_ROWS_PER_K <= N, the sorted-offset index walk
      (``_indexed_picks``) costs O(J log N) per doubling of its windows plus
      the rows in them: on the perfbench helix about 3 rows per query for
      k = 1 and 80 for k = 32.  A query with no row inside the radius, or
      whose windows would hold more than N / _INDEX_WINDOW_DIVISOR rows,
      is left to the loop;
    - otherwise the radius-first loop tests all N rows of each query, O(N),
      and ranks the in-radius ones.
    Both pick the same rows from the same bits.  With eta infinite, proxy
    distances and selection cover all N rows, O(N) per query.
    """
    n, d = train_x.shape
    k_max = max(ks)
    width = min(k_max, n)
    out = np.empty((len(ks), queries.shape[0]))
    clipped = proxy is not None and not math.isinf(eta)
    indexed = clipped and k_max * _INDEX_ROWS_PER_K <= n
    cand_sq = np.einsum("nd,nd->n", train_x, train_x) if proxy is None or clipped else None
    scratch = None
    for start, stop in _query_chunks(queries.shape[0], n):
        block = queries[start:stop]
        m = stop - start
        if clipped:
            if scratch is None:
                scratch = np.empty((m, n))
            gram = np.matmul(block, train_x.T, out=scratch[:m])
            q_sq = np.einsum("md,md->m", block, block)
            proj = block @ proxy.vectors.T
            # the walk reads q.x as it is; only the loop's rows are expanded
            if indexed:
                slab = _slab(proxy, eta, q_sq, float(cand_sq.max()), d)
                picks, takes, rest = _indexed_picks(
                    proxy, gram, q_sq, cand_sq, proj, eta, k_max, slab
                )
                inside = [~(_expanded_sq(gram[i], q_sq[i], cand_sq) > eta * eta) for i in rest]
            else:
                picks = np.empty((m, width), dtype=np.intp)
                takes = np.empty(m, dtype=np.intp)
                rest = range(m)
                inside = ~(_expanded_sq(gram, q_sq[:, None], cand_sq) > eta * eta)
            for i, row_inside in zip(rest, inside):
                cand = np.flatnonzero(row_inside)  # ascending index order
                if cand.size == 0:
                    chosen = np.argmin(gram[i], keepdims=True)
                else:
                    dist = np.abs(proj[i][proxy.assignment[cand]] - proxy.offsets[cand])
                    chosen = cand[_smallest(dist, k_max)]
                picks[i, : chosen.size] = chosen
                takes[i] = chosen.size
        else:
            if proxy is None:
                q_sq = np.einsum("md,md->m", block, block)
                dist = _expanded_sq(block @ train_x.T, q_sq[:, None], cand_sq)
            else:
                dist = np.abs((block @ proxy.vectors.T)[:, proxy.assignment] - proxy.offsets)
            picks = np.empty((m, width), dtype=np.intp)
            for i, row in enumerate(dist):
                picks[i] = _smallest(row, k_max)
            del dist  # free the distance block before the gathers
            takes = np.full(m, width)
        _average_picks(values, picks, takes, ks, out[:, start:stop])
    if not np.isfinite(out).all():
        raise DataError("non-finite neighbour average: responses too large in magnitude")
    return out


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
    means = _neighbour_means(
        xs, model.train.features, model.train.responses, ks, model.proxy_index, model.eta
    )
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
    whose folds all fail scores None.
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
                mses[ki][ji].append(float(np.mean((preds - val_y) ** 2)))

    grid = tuple((j, k) for k in grid_ks for j in j_grid)
    scores = tuple(float(np.mean(m)) if m else None for row in mses for m in row)
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
    means = _neighbour_means(xs, data.features, data.responses, ks)
    return means if _is_grid(k) else means[0]


def baseline_linreg(data: Dataset) -> tuple[np.ndarray, float]:
    """Ordinary least squares on the full dataset via the pseudo-inverse;
    rank-deficient designs get the minimum-norm solution.  Data whose
    moments overflow, so that a weight or the intercept is not finite,
    raise ``DataError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = sample_covariance(data.features)
        r = cross_covariance(data.features, data.responses)
        weights = pseudo_inverse(sigma) @ r
        intercept = float(data.responses.mean() - weights @ data.features.mean(axis=0))
    if not (np.isfinite(weights).all() and math.isfinite(intercept)):
        raise DataError("non-finite least-squares fit: moments of the data overflow")
    return weights, intercept


def linreg_predict(weights, intercept: float, queries) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    xs = _as_queries(queries, weights.shape[0])
    return xs @ weights + intercept


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
    """``values`` as an integer array; a fraction or a non-finite entry
    raises ``DataError`` instead of being truncated."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr) & (arr == np.trunc(arr))):
        raise DataError(f"model {name} must hold whole numbers")
    return arr.astype(np.intp)


_MODEL_KEYS = (
    "partition_kind", "intervals", "tangents", "level_means_x", "level_means_y", "counts",
    "tangent_assignment", "train_features", "train_responses", "k", "eta",
)


def model_from_dict(doc: dict) -> FittedNsim:
    """Rebuild a model from its JSON document.

    Groups are reconstructed from the tangent assignment; for split models
    they index the retained prediction half rather than the discarded
    geometry half.  A document raises ``DataError`` when it has a missing
    key, intervals that are reversed or not contiguous, a tangent matrix
    that is not J x D or has a row off unit norm by more than 1e-9, level
    means or counts not sized for J level sets, an assignment that does not
    give every training row a level set in [0, J), a fraction where k, the
    counts or the assignment need whole numbers, k < 1, eta <= 0, or a
    ``partition_kind`` or ``algorithm`` that is not one of the known names.
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
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed model document: {exc}") from exc
    if k.shape != ():
        raise DataError(f"model k must be a single number, got shape {k.shape}")
    k = int(k)
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
    groups = tuple(np.flatnonzero(assignment == j) for j in range(j_count))
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
