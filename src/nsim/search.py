"""The neighbour search: k-nearest averages under the restricted proxy metric,
or under the Euclidean metric for the kNN baseline.

A ``ProxyIndex`` owns the training rows it searches.  With tangent vectors
and a level set per row, the distance from a query x to row i is the
restricted proxy metric |a_i^T (x - X_i)|, computed as |a_i^T x - c_i| with
the index's offsets c_i = a_i^T X_i, for the rows inside the radius eta;
without them it is Euclidean.  ``neighbour_means`` is the one entry point:
per query it ranks the rows once, with max(ks), in (distance, index) order,
so ties go to the lower index, and averages the first k of them for each k.
Fewer than k rows inside the radius are all averaged; with none, the
Euclidean-nearest row alone is, so the search is a total function.

Each k averages the first k rows of the ranking (``_average_picks``; a
prefix sum would differ in the last bits).  A non-finite average raises
``DataError``.

A search that reads Euclidean distances (no tangent vectors, or a finite
eta) computes each query chunk's q.x block once, O(N D) per query, into one
scratch buffer; a proxy search at eta infinite computes none.  A proxy search
walks the sorted-offset index (``_indexed_picks``, Dynamic Continuous
Indexing after Li and Malik, 2016, with the metric as the projection): O(J
log N) per growth of its windows, plus a proxy distance (and at a finite
eta a radius test) for each row that enters them, plus one partial selection
per growth and one sort of the k nearest.  At eta infinite every row is in
the radius and the walk is the whole search, a merge of the J sorted offset
lists, O(J log N + k) per query when the offsets are spread evenly.  At a
finite eta it runs while 16 max(ks) < N, and reads about 23 rows per walked
query for k = 1, 75 for k = 32 and 460 for k = 323 on the perfbench helix
at eta = 0.5.  One loop ranks every query a Euclidean read leaves to it,
O(N) each, by ``_smallest`` over the expanded Euclidean row: the kNN
baseline, and at a finite eta the queries the walk does not settle, whose
in-radius rows it ranks by proxy distance (with none, it takes the
Euclidean-nearest).  The walk and the loop pick the same rows from the same
bits.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DataError

_CHUNK_BUDGET = 4_000_000  # floats per query chunk's scratch blocks

# At a finite eta a proxy search walks the sorted-offset index while
# 16 max(ks) < N, and a query leaves the walk for the loop once its windows
# would hold more than max(N / _INDEX_WINDOW_DIVISOR, _INDEX_ROWS_PER_K *
# max(ks)) rows (``_walk_rows``).  At eta infinite the walk has no such
# bound and no query leaves it.  Against the loop that ranked every row there before, it took
# 0.04-0.43 of the loop's time with J = 8 and 0.09-0.25 with J = 364, for k
# from 1 to 1000 on the helix and on Gaussian features (``rule_table`` in
# BENCH_6.json); for larger k (1000 queries on the helix, best of 5 to 15
# runs, 2 cores) 0.33-0.43 at k = N / 16 and 0.74-0.93 at k from N / 4 to N
# for N = 16384, D = 12, J = 8, but 1.0-1.9 (a few ms) at those k for
# N = 300 and 600.  At a finite eta, search time over the loop's, by the
# bound on a query's rows (median of 7 paired ratios; 2 cores, OpenBLAS on
# one thread; the perfbench helix, D = 12, N = 16384, J = 8, eta = 0.5, 2000
# queries in batches of 50, 10% off the tube; "split" is fit_split's k = 1
# search on N = 8192, J = 16):
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
#
# The table was measured with first windows of 16 k / N of eta that
# doubled.  Now they start at max(16, 8 k) / N of eta, about k to 3 k rows
# on the helix, and after each round a query's windows grow by 1.5 k over
# the in-radius rows it holds, 2- to 8-fold: big steps where the yield is
# thin, small ones where it is rich.  At k = 1 that is the old start and
# doubling, so fit_split walks as before.  On the helix above (2000 queries,
# eta = 0.5, best of 5, two alternating processes per side), rows gathered
# per walked query and time, old schedule -> new:
#
#   k       1              32             323            1000
#   rows    23 -> 23       115 -> 75      898 -> 459     2670 -> 1396
#   s       0.086-0.092    0.080-0.083    0.138-0.145    0.43-0.49
#        -> 0.089-0.092 -> 0.071-0.073 -> 0.112-0.114 -> 0.21-0.24
#
# At eta = 0.3 and k = 1000 an 8-fold step can overshoot the bound: 1715 of
# the 2000 queries leave for the loop (195 before), 0.27-0.28 s against
# 0.20 s.  At eta infinite the growth stays 2-fold: the yield growth there
# ran 1.1-1.3 times slower at k = 323 and 1024, its inf-padded block wider.
_INDEX_ROWS_PER_K = 4
_INDEX_WINDOW_DIVISOR = 32
_FIRST_WINDOW_ROWS = 16
_FIRST_WINDOW_ROWS_PER_K = 8
_GROWTH_ROWS_PER_K = 1.5
_GROWTH_RANGE = (2.0, 8.0)

_EPS = float(np.finfo(np.float64).eps)
_MAX_RADIUS = float(np.finfo(np.float64).max) / 16  # a radius grown 8-fold stays finite


def _query_chunks(n_queries: int, per_query: int):
    step = max(1, _CHUNK_BUDGET // max(1, per_query))
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
    """The training rows ``train_x`` of one search and, for the proxy
    metric, the tangent ``vectors`` and each row's level set in
    ``assignment``; without them the search is Euclidean.  Every derived
    array is computed on first use and kept between searches: the offsets
    c_i = a_i^T X_i, their order per level set (``sorted``) and the rows'
    squared norms (``row_sq``)."""

    def __init__(self, train_x, vectors=None, assignment=None):
        self.train_x = train_x
        self.vectors = vectors
        self.assignment = assignment

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.einsum("nd,nd->n", self.train_x, self.vectors[self.assignment])

    @cached_property
    def sorted(self):
        """(order, offsets[order], bounds): the rows by level set, then
        offset, then index; level set j holds positions bounds[j]:bounds[j+1]."""
        order = np.lexsort((self.offsets, self.assignment))
        bounds = np.searchsorted(self.assignment[order], np.arange(len(self.vectors) + 1))
        return order, self.offsets[order], bounds

    @cached_property
    def row_sq(self) -> np.ndarray:
        """||X_i||^2 of every training row, for the Euclidean distances."""
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
    sorted-offset walk for the loop at a finite eta; 0 when the walk does
    not run, at 16 k >= N, where its first windows, max(16, 8 k) / N of
    eta, would span half of eta or more and the bound, 4 k rows, a quarter
    of N or more."""
    if 16 * k_max >= n:
        return 0
    return max(n // _INDEX_WINDOW_DIVISOR, _INDEX_ROWS_PER_K * k_max)


def _indexed_picks(index: ProxyIndex, gram, q_sq, proj, eta: float, k_max: int, slab, bound: int):
    """(picks, takes, rest): the first ``takes[i]`` entries of ``picks[i]``
    are the rows the loop picks for query i, in its order, except for the
    queries in ``rest``, left to the loop.

    Per level set j, a query's window holds the rows whose offsets lie in
    [p_j - r, p_j + r], found by ``searchsorted``; the rows that entered it
    take their radius test and proxy distances from ``gram`` (the chunk's
    q.x block) and ``proj`` as the loop does, and the in-radius ones are
    kept, one row of a block per query.  At eta infinite every row is in
    the radius: ``gram`` and ``q_sq`` are None, ``slab`` is infinite, and
    the walk is a merge of the J sorted offset lists.  The query is settled
    once its k-th in-radius distance lies below every row left out, or every
    row left out lies beyond its ``slab`` bound and so cannot pass the
    radius test, or the windows hold every row; until then r grows and
    only the rows new to the windows are gathered.  At eta infinite r
    starts at spread k / 2N and doubles; at a finite eta it starts at
    max(16, 8 k) / N of eta and grows by 1.5 k over the query's in-radius
    count, clipped to 2-8 fold.  Both
    checks read the nearest left-out row on each side of each window, which
    no row further out in offset order undercuts, so ties at the k-th place
    are gathered whole.  A query whose windows would hold more than
    ``bound`` rows joins ``rest``; with a ``bound`` of N, at eta infinite,
    none does.
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
        least, most = 2.0, 2.0  # every row is in the radius: the windows double
    else:  # max(16, 8 k) / N of eta, about k to 3 k rows for data near a curve
        first_rows = max(_FIRST_WINDOW_ROWS, _FIRST_WINDOW_ROWS_PER_K * k_max)
        start = min(eta, _MAX_RADIUS) * min(1.0, first_rows / n)
        least, most = _GROWTH_RANGE
    # a width of 0 (equal offsets, or a product that rounds to 0) would never
    # grow: one window then holds every row
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
            inside = ~(_expanded_sq(gram.ravel()[at], np.repeat(q_sq[todo], fresh),
                                    index.row_sq[rows]) > eta * eta)
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
        # grow each window towards _GROWTH_ROWS_PER_K k in-radius rows
        growth = np.clip(_GROWTH_ROWS_PER_K * k_max / np.maximum(count, 1), least, most)
        radius[todo] = np.where(radius[todo] < limit, radius[todo], np.inf) * growth
    return picks, takes, np.concatenate(rest)


def _nearest_first(dists, found, kth, k_max: int) -> np.ndarray:
    """Per row of ``dists`` (inf-padded) and ``found``, the indices of the
    min(k_max, count) nearest in (distance, index) order, given ``kth``,
    the row's k-th distance (inf for fewer than k_max).  One partial
    selection keeps k_max places and one sort orders them; rows where two
    kept distances are equal, or more than k_max lie at or below a finite
    ``kth``, are ordered by distance, then index, from every entry at or
    below ``kth``.  A row short of k_max keeps all its distances, so only a
    tie among them sends it there, not its inf padding."""
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
        tied |= np.isfinite(kth) & ((dists <= kth[:, None]).sum(axis=1) > k_max)
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
def neighbour_means(index: ProxyIndex, queries, values, ks, eta: float = math.inf):
    """(len(ks), n_queries) array whose row i averages ``values`` (one per
    row of the index) over each query's ks[i] nearest rows of ``index``;
    eta restricts a proxy search and is ignored by a Euclidean one."""
    n, d = index.train_x.shape
    k_max = max(ks)
    out = np.empty((len(ks), queries.shape[0]))
    proxy = index.vectors is not None
    euclidean = not proxy or not math.isinf(eta)
    clipped = proxy and euclidean
    # at eta infinite every row is in the radius, so the walk settles every query
    bound = _walk_rows(k_max, n) if clipped else n if proxy else 0
    scratch = gram = q_sq = None
    # per query, a Euclidean read holds N distances; the walk at eta infinite
    # holds a block of distances and rows that grows with max(ks) up to N
    # wide, so its chunks shrink as max(ks) grows
    for start, stop in _query_chunks(queries.shape[0], n if euclidean else n + 4 * k_max):
        block = queries[start:stop]
        m = stop - start
        if proxy:
            proj = block @ index.vectors.T
        if euclidean:
            if scratch is None:
                scratch = np.empty((m, n))
            gram = np.matmul(block, index.train_x.T, out=scratch[:m])
            q_sq = np.einsum("md,md->m", block, block)
        if bound:
            # at a finite eta the walk reads q.x as it is; only the rows it leaves are expanded
            slab = _slab(index, eta, q_sq, index.row_sq_max, d) if clipped else np.full(m, eta)
            picks, takes, rest = _indexed_picks(index, gram, q_sq, proj, eta, k_max, slab, bound)
        else:
            picks = np.empty((m, min(k_max, n)), dtype=np.intp)
            takes, rest = np.empty(m, dtype=np.intp), slice(None)  # a view: expanded in place
        if euclidean:
            dist = _expanded_sq(gram[rest], q_sq[rest, None], index.row_sq)
            for i, row in zip(np.arange(m)[rest], dist):
                if clipped:
                    cand = np.flatnonzero(~(row > eta * eta))  # ascending index order
                    near = np.abs(proj[i][index.assignment[cand]] - index.offsets[cand])
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
