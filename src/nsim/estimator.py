"""End-to-end estimator: fit, predict, sample-split variant, cross-validated
hyperparameter selection, the two reference baselines, and model JSON I/O.

Prediction averages the responses of the k training samples nearest in the
restricted proxy metric.  A query with no candidate inside the restricting
radius falls back to the Euclidean-nearest training sample, so prediction is
a total function.
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
from .linalg import cross_covariance, pseudo_inverse, sample_covariance
from .partition import (
    ResponseInterval,
    ResponsePartition,
    dyadic_partition,
    equiblock_partition,
    member_groups,
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

# A proxy search walks the sorted-offset index while 16 max(ks) < N (at a
# finite eta, while its first windows, 16 k / N of eta wide, are narrower than
# eta), and a query leaves the walk for the loop once its windows would hold
# more than max(N / _INDEX_WINDOW_DIVISOR, _INDEX_ROWS_PER_K * max(ks)) rows
# (``_walk_rows``).  At eta infinite, where every row is in the radius, the
# walk took 0.04-0.43 of the loop's time with J = 8 and 0.09-0.25 with
# J = 364, for k from 1 to 1000 on the helix and on Gaussian features
# (``rule_table`` in BENCH_6.json).  At a finite eta, search time over the
# loop's, by the bound on a query's rows (median of 7 paired ratios; 2 cores,
# OpenBLAS on one thread; the perfbench helix, D = 12, N = 16384, J = 8,
# eta = 0.5, 2000 queries in batches of 50, 10% off the tube; "split" is
# fit_split's k = 1 search on N = 8192, J = 16):
#
#   bound             split  k=1   k=32  k=64  k=128 k=323 k=1024 k=2048
#   N/32              0.23   0.65  0.55  0.54  0.56  1.03  0.99   1.02
#   N/8               0.24   0.71  0.63  0.56  0.60  0.75  1.08   1.03
#   4k                0.35   0.61  0.50  0.51  0.57  0.77  1.03   1.79
#   max(N/32, 4k)     0.23   0.68  0.54  0.52  0.57  0.78  (loop) (loop)
#   previous walk     0.22   0.62  0.54  0.56  0.67  (loop) (loop) (loop)
#
# Queries off the tube fill their windows with rows outside the radius; a
# bound near N/32 sends them to the loop early, while the k = 323 queries
# need about 3 k rows and a bound of 4 k keeps them in the walk.  On data
# not near a curve the walk gains little: on Gaussian features (D = 3 and
# 12, 1000 queries) it took 0.72-1.36 of the loop's time for k = 1 and 32
# (the previous walk 0.69-1.55) and 1.11-1.41 for k = 323, which the
# previous rule sent to the loop.
_INDEX_ROWS_PER_K = 4
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
    ``sorted`` orders each level set's offsets on first use, and
    ``row_sq`` computes the rows' squared norms on first use."""

    def __init__(self, train_x, vectors, assignment):
        self.train_x = train_x
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
    def row_sq(self) -> np.ndarray:
        """||X_i||^2 of every training row, for the Euclidean radius test."""
        return np.einsum("nd,nd->n", self.train_x, self.train_x)

    @cached_property
    def row_sq_max(self) -> float:
        return float(self.row_sq.max())

    @cached_property
    def vector_norm(self) -> float:
        return float(np.sqrt(np.einsum("jd,jd->j", self.vectors, self.vectors).max()))

    @cached_property
    def spread(self) -> float:
        """max c_i - min c_i: the scale of the first windows at eta infinite."""
        return float(self.offsets.max() - self.offsets.min())


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


def _walk_rows(k_max: int, n: int) -> int:
    """The rows a query's windows may hold before it leaves the
    sorted-offset walk for the loop; 0 when the walk does not run, at
    16 k >= N (at a finite eta, its first windows, 16 k / N of eta, would
    be no narrower than eta)."""
    if 16 * k_max >= n:
        return 0
    return max(n // _INDEX_WINDOW_DIVISOR, _INDEX_ROWS_PER_K * k_max)


def _indexed_picks(index: ProxyIndex, gram, q_sq, c_sq, proj, eta: float, k_max: int, slab,
                   bound: int):
    """(picks, takes, rest): the first ``takes[i]`` entries of ``picks[i]``
    are the rows the loop picks for query i, in its order, except for the
    queries in ``rest``, left to the loop.

    Per level set j, a query's window holds the rows whose offsets lie in
    [p_j - r, p_j + r], found by ``searchsorted``; the rows that entered it
    take their radius test and proxy distances from ``gram`` (the chunk's
    q.x block) and ``proj`` as the loop does, and the in-radius ones are
    kept, one row of a block per query.  At eta infinite every row is in
    the radius: ``gram``, ``q_sq`` and ``c_sq`` are None, ``slab`` is
    infinite, and the walk is a merge of the J sorted offset lists.  The
    query is settled once its k-th in-radius distance lies below every row
    left out, or every row left out lies beyond its ``slab`` bound and so
    cannot pass the radius test, or the windows hold every row; until then
    r doubles and only the rows new to the windows are gathered.  Both
    checks read the nearest left-out row on each side of each window, which
    no row further out in offset order undercuts, so ties at the k-th place
    are gathered whole.  A query whose windows would hold more than
    ``bound`` rows joins ``rest``.
    """
    m, n_sets = proj.shape
    n = index.offsets.shape[0]
    order, sorted_off, bounds = index.sorted
    first, last = bounds[:-1], bounds[1:]
    flat_proj = proj.ravel()
    picks = np.zeros((m, min(k_max, n)), dtype=np.intp)
    takes = np.zeros(m, dtype=np.intp)
    rest = [np.empty(0, dtype=np.intp)]
    todo = np.arange(m)
    if math.isinf(eta):  # windows that would hold about k rows were the offsets spread evenly
        start = index.spread * k_max / (2 * n)
    else:  # 16 k / N of eta, a few times k rows for data near a curve
        start = min(eta, _MAX_RADIUS) * min(1.0, 16.0 * k_max / n)
    # a width of 0 (equal offsets, or a product that rounds to 0) would never
    # grow by doubling: one window then holds every row
    radius = np.full(m, start if start > 0 else np.inf)
    lo_was = hi_was = None  # the windows of the round before
    # per query in todo: its in-radius rows so far, their distances (inf
    # past the count) and indices
    count = np.zeros(m, dtype=np.intp)
    dists, found = np.empty((m, 0)), np.empty((m, 0), dtype=np.intp)
    while todo.size:
        p, r = proj[todo], radius[todo, None]
        keys = np.concatenate(((p - r).T, (p + r).T), axis=1)  # per level set, both window ends
        ends = np.empty(keys.shape, dtype=np.intp)
        for j in range(n_sets):
            ends[j] = np.searchsorted(sorted_off[first[j]:last[j]], keys[j])
        ends += first[:, None]
        lo, hi = ends[:, : todo.size].T.copy(), ends[:, todo.size:].T.copy()
        if lo_was is None:
            lo_was = hi_was = lo
        heavy = (hi - lo).sum(axis=1) > bound
        if heavy.any():
            rest.append(todo[heavy])
            light = ~heavy
            todo, p, lo, hi, lo_was, hi_was = (a[light] for a in (todo, p, lo, hi, lo_was, hi_was))
            count, dists, found = count[light], dists[light], found[light]
            if not todo.size:
                break

        # the rows new to each window, left of the old window, then right of it
        run_lo = np.concatenate((lo, hi_was), axis=1)
        run_len = np.concatenate((lo_was - lo, hi - hi_was), axis=1)
        lengths = run_len.ravel()
        ends = np.cumsum(lengths)
        rows = order[np.arange(ends[-1]) + np.repeat(run_lo.ravel() - (ends - lengths), lengths)]
        fresh = run_len.sum(axis=1)
        passed = np.cumsum(fresh)
        if gram is not None:  # the radius test, as the loop takes it
            at = np.repeat(todo * n, fresh) + rows
            inside = ~(_expanded_sq(gram.ravel()[at], np.repeat(q_sq[todo], fresh), c_sq[rows])
                       > eta * eta)
            rows = rows[inside]
            passed = np.concatenate(([0], np.cumsum(inside)))[passed]
        added = passed - np.concatenate(([0], passed[:-1]))
        at = np.repeat(todo * n_sets, added) + index.assignment[rows]
        dist = np.abs(flat_proj[at] - index.offsets[rows])
        grow = (count + added).max() - dists.shape[1]
        if grow > 0:
            dists = np.hstack((dists, np.full((todo.size, grow), np.inf)))
            found = np.hstack((found, np.zeros((todo.size, grow), dtype=np.intp)))
        # each new row goes after the rows its query holds
        width = dists.shape[1]
        at = np.arange(rows.shape[0]) + np.repeat(
            np.arange(todo.size) * width + count - (passed - added), added
        )
        dists.ravel()[at] = dist
        found.ravel()[at] = rows
        count = count + added

        has_left, has_right = lo > first, hi < last
        left = np.where(has_left, np.abs(p - sorted_off[np.where(has_left, lo - 1, 0)]), np.inf)
        right = np.where(has_right, np.abs(p - sorted_off[np.where(has_right, hi, 0)]), np.inf)
        frontier = np.minimum(left, right).min(axis=1)
        kth = np.full(todo.size, np.inf)
        full = count >= k_max
        if full.any():
            kth[full] = np.partition(dists[full], k_max - 1, axis=1)[:, k_max - 1]
        done = (kth < frontier) | (frontier > slab[todo]) | np.isinf(frontier)

        if done.any():
            settled, take = todo[done], np.minimum(count[done], k_max)
            nearest = _nearest_first(dists[done], found[done], kth[done], k_max)
            picks[settled, : nearest.shape[1]] = nearest
            takes[settled] = take
            rest.append(settled[take == 0])  # no row inside the radius: the loop falls back
            open_ = ~done
            todo, lo, hi, count, dists, found = (
                a[open_] for a in (todo, lo, hi, count, dists, found)
            )
        lo_was, hi_was = lo, hi
        limit = np.minimum(slab[todo], _MAX_RADIUS)
        radius[todo] = np.where(radius[todo] < limit, radius[todo], np.inf) * 2.0
    return picks, takes, np.concatenate(rest)


def _nearest_first(dists, found, kth, k_max: int) -> np.ndarray:
    """Per row of ``dists`` (inf-padded) and ``found``, the indices of the
    min(k_max, count) nearest in (distance, index) order, given ``kth``,
    the row's k-th distance (inf for fewer than k_max).  One partial
    selection keeps k_max places and one sort orders them; rows where two
    kept distances are equal, or more than k_max lie at or below ``kth``,
    are ordered by distance, then index, from every entry at or below
    ``kth``."""
    s, width = dists.shape
    if width > k_max:
        near = np.argpartition(dists, k_max - 1, axis=1)[:, :k_max]
    else:
        near = np.broadcast_to(np.arange(width), dists.shape)
    near = near + np.arange(s)[:, None] * width
    ranked = np.argsort(dists.ravel()[near], axis=1) + np.arange(s)[:, None] * near.shape[1]
    near = near.ravel()[ranked]
    d, r = dists.ravel()[near], found.ravel()[near]
    tied = ((d[:, 1:] == d[:, :-1]) & (d[:, 1:] < np.inf)).any(axis=1)
    if width > k_max:
        tied |= (dists <= kth[:, None]).sum(axis=1) > k_max
    if tied.any():
        exact = np.where(dists[tied] <= kth[tied, None], dists[tied], np.inf)
        by_index = np.lexsort((found[tied], exact), axis=1)[:, : r.shape[1]]
        r[tied] = np.take_along_axis(found[tied], by_index, 1)
    return r


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
    c_i of the index, which must be built over ``train_x``.  Without it
    the distance is Euclidean.  Fewer than k rows inside the radius eta
    are all averaged; with none, the Euclidean-nearest row alone is.

    Each query is ranked once, with max(ks), and each k averages the first
    k rows of that ranking (``_average_picks``; a prefix sum would differ in
    the last bits).  A non-finite average raises ``DataError``.

    A search that reads Euclidean distances (no ``proxy``, or a finite eta)
    computes each query chunk's q.x block once, O(N D) per query, into one
    scratch buffer; a proxy search at eta infinite computes none.  With a
    ``proxy`` and 16 max(ks) < N, the sorted-offset index walk
    (``_indexed_picks``) costs O(J log N) per doubling of its windows, plus
    a proxy distance (and at a finite eta a radius test) for each row that
    enters them, plus one partial selection per doubling and one sort of
    the k nearest: on the perfbench helix at eta = 0.5 about 23 rows per
    walked query for k = 1, 125 for k = 32 and 1000 for k = 323.  At eta
    infinite it is a merge of the J sorted offset lists, O(J log N + k) per
    query when the offsets are spread evenly.  One loop ranks every query
    the walk does not settle, O(N) each, by ``_smallest`` over one row of
    distances: the expanded Euclidean row, whose in-radius rows it ranks by
    proxy distance at a finite eta (with none, it takes the
    Euclidean-nearest), or at eta infinite the proxy distances to all N
    rows.  The walk and the loop pick the same rows from the same bits.
    """
    n, d = train_x.shape
    k_max = max(ks)
    out = np.empty((len(ks), queries.shape[0]))
    clipped = proxy is not None and not math.isinf(eta)
    euclidean = proxy is None or clipped
    bound = _walk_rows(k_max, n) if proxy is not None else 0
    if not euclidean:
        cand_sq = None
    elif proxy is None:
        cand_sq = np.einsum("nd,nd->n", train_x, train_x)
    else:  # the index over train_x keeps them between calls
        cand_sq = proxy.row_sq
    scratch = gram = q_sq = None
    for start, stop in _query_chunks(queries.shape[0], n):
        block = queries[start:stop]
        m = stop - start
        if proxy is not None:
            proj = block @ proxy.vectors.T
        if euclidean:
            if scratch is None:
                scratch = np.empty((m, n))
            gram = np.matmul(block, train_x.T, out=scratch[:m])
            q_sq = np.einsum("md,md->m", block, block)
        if bound:
            # at a finite eta the walk reads q.x as it is; only the rows it leaves are expanded
            slab = _slab(proxy, eta, q_sq, proxy.row_sq_max, d) if clipped else np.full(m, eta)
            picks, takes, rest = _indexed_picks(
                proxy, gram, q_sq, cand_sq, proj, eta, k_max, slab, bound
            )
        else:
            picks = np.empty((m, min(k_max, n)), dtype=np.intp)
            takes, rest = np.empty(m, dtype=np.intp), slice(None)  # a view: expanded in place
        dist = (_expanded_sq(gram[rest], q_sq[rest, None], cand_sq) if euclidean
                else np.abs(proj[rest][:, proxy.assignment] - proxy.offsets))
        for i, row in zip(np.arange(m)[rest], dist):
            if clipped:
                cand = np.flatnonzero(~(row > eta * eta))  # ascending index order
                near = np.abs(proj[i][proxy.assignment[cand]] - proxy.offsets[cand])
                chosen = cand[_smallest(near, k_max)] if cand.size else _smallest(row, 1)
            else:
                chosen = _smallest(row, k_max)
            picks[i, : chosen.size] = chosen
            takes[i] = chosen.size
        del dist  # free the distance block before the gathers
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
_NUMBER_KEYS = (
    "version", "k", "eta", "tangents", "level_means_x", "level_means_y", "counts",
    "tangent_assignment", "train_features", "train_responses",
)


def _holds_boolean(value) -> bool:
    """Whether ``value``, one of its entries or an entry of one of them is a
    JSON boolean, which a float or integer cast would read as 0 or 1."""
    if not isinstance(value, list):
        return isinstance(value, bool)
    nested = [entry for entry in value if isinstance(entry, list)]
    return bool in map(type, itertools.chain(value, *nested))


def model_from_dict(doc: dict) -> FittedNsim:
    """Rebuild a model from its JSON document.

    Groups are reconstructed from the tangent assignment, each in ascending
    index order (``member_groups``); for split models they index the
    retained prediction half rather than the discarded geometry half.
    A document raises ``DataError`` when it has a missing
    key, intervals that are reversed or not contiguous, a tangent matrix
    that is not J x D or has a row off unit norm by more than 1e-9, level
    means or counts not sized for J level sets, an assignment that does not
    give every training row a level set in [0, J), a fraction or a number
    past the ``intp`` range where k, the counts or the assignment need whole
    numbers, k < 1, eta <= 0, a JSON boolean where a number belongs (the
    version, k, eta, an interval bound or an entry of a number list), an
    interval whose closed flag is not a boolean, or a ``partition_kind`` or
    ``algorithm`` that is not one of the known names.  Its own checks raise
    their ``DataError`` as it is; a type the casts reject is reported as a
    malformed document.
    """
    if not isinstance(doc, dict):
        raise DataError("model document is not a JSON object")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {doc.get('version')!r}")
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if missing:
        raise DataError(f"model document lacks {', '.join(missing)}")
    try:
        numbers = {key: doc[key] for key in _NUMBER_KEYS}
        numbers["intervals"] = [interval[:2] for interval in doc["intervals"]]
        for key, value in numbers.items():  # one scan of every number entry
            if _holds_boolean(value):
                raise DataError(f"model {key} holds a JSON boolean where a number belongs")
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
    return FittedNsim(
        partition=ResponsePartition(intervals, member_groups(assignment, j_count)),
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
