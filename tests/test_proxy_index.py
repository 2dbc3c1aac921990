"""The sorted-offset index against the radius-first loop it replaces.

``radius_first_means`` restates the loop that every proxy search ran before
the index: per query chunk the expanded Euclidean block, then per query the
in-radius rows in index order (every row at eta infinite), their proxy
distances, and the first max(ks) of them in (distance, index) order.  The
index must pick the same rows from the same bits, so its averages must
equal the loop's bit for bit, on float data far from the origin, with
queries off the tube.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsim import estimator, search
from nsim.data import Dataset
from nsim.errors import InfeasibleFitError
from nsim.estimator import fit
from nsim.geometry import SynthConfig, generate, make_curve
from nsim.search import ProxyIndex


def radius_first_means(queries, train_x, values, ks, vectors, assignment, eta):
    cand_sq = np.einsum("nd,nd->n", train_x, train_x)
    offsets = np.einsum("nd,nd->n", train_x, vectors[assignment])
    out = np.empty((len(ks), len(queries)))
    step = max(1, search._CHUNK_BUDGET // len(train_x))
    for start in range(0, len(queries), step):
        block = queries[start:start + step]
        eucl2 = block @ train_x.T
        eucl2 *= -2.0
        eucl2 += np.einsum("md,md->m", block, block)[:, None]
        eucl2 += cand_sq[None, :]
        np.maximum(eucl2, 0.0, out=eucl2)
        proj = block @ vectors.T
        for i, row in enumerate(eucl2):
            cand = np.flatnonzero(~(row > eta * eta))
            if cand.size == 0:
                picks = np.argmin(row, keepdims=True)
            else:
                dist = np.abs(proj[i][assignment[cand]] - offsets[cand])
                picks = cand[np.lexsort((cand, dist))][: max(ks)]
            for ki, k in enumerate(ks):
                chosen = values[picks[:k]]
                out[ki, start + i] = chosen.sum() / chosen.size
    return out


def indexed_means(queries, values, ks, index, eta, bound=None):
    """``neighbour_means`` with the index forced on; at a finite eta a query
    leaves the walk for the loop once its windows would hold more than
    ``bound`` rows (None: no query leaves), and at eta infinite none does."""
    with (
        mock.patch.object(search, "_walk_rows", lambda k_max, n: bound or n),
        mock.patch.object(
            search, "_indexed_picks", wraps=search._indexed_picks
        ) as walk,
    ):
        out = search.neighbour_means(index, queries, values, ks, eta)
    assert walk.call_count >= 1
    return out


def helix(d, n, seed, tube_radius, noise=0.0):
    return generate(
        SynthConfig(make_curve("helix"), d, n, seed, tube_radius=tube_radius, noise_factor=noise)
    )[0]


def clustered_helix(d, n_base, seed, eta):
    """Three jittered copies (scale eta / 2) of each of ``n_base`` noisy
    helix rows, and one query at a distance in [eta, 2 eta) from each of
    some of them: rows whose distance to a query is near eta are common."""
    rng = np.random.default_rng(seed)
    base = helix(d, n_base, seed, 0.25, noise=0.1)
    n = 3 * n_base
    x = np.repeat(base.features, 3, axis=0) + rng.normal(scale=eta / 2, size=(n, d))
    y = np.repeat(base.responses, 3) + rng.normal(scale=0.01, size=n)
    step = rng.normal(size=(n_base, d))
    step *= (eta * rng.uniform(1.0, 2.0, n_base) / np.linalg.norm(step, axis=1))[:, None]
    return Dataset(x, y), x[rng.choice(n, n_base)] + step


@st.composite
def shifted_helix_problems(draw):
    """Float rows near a helix in D = 4..8, all moved by one random shift of
    up to 1e6 per feature, and a fitted model.  The queries lie on the tube,
    off it (radius 0.6 and 1.0) and far from it, so short-of-k queries and
    Euclidean fallbacks occur, and within 2 eta of training rows, where the
    expanded radius test rounds either way (at eta infinite, within 2 of
    them).  The k grids reach N / 8, N / 2, N and N + 3; at a finite eta
    windows outgrow a bound of 32 rows and queries leave the walk."""
    d = draw(st.integers(4, 8))
    n_base = draw(st.integers(30, 130))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    shift = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6])) * rng.uniform(-1.0, 1.0, d)
    eta = draw(st.sampled_from([0.01, 0.5, math.inf]))
    train, near = clustered_helix(d, n_base, seed, min(eta, 1.0))
    queries = np.vstack([
        near[: draw(st.integers(0, 30))],
        helix(d, draw(st.integers(1, 30)), seed + 1, 0.25).features,
        helix(d, draw(st.integers(1, 8)), seed + 2, 0.6).features,
        helix(d, draw(st.integers(1, 8)), seed + 3, 1.0).features,
        rng.uniform(-3.0, 3.0, (draw(st.integers(0, 3)), d)),
    ])
    j_count = draw(st.integers(1, max(1, min(8, train.n // (4 * d)))))
    shifted = Dataset(train.features + shift, train.responses)
    try:
        model = fit(shifted, j_count, 1, eta, "equiblock")
    except InfeasibleFitError:
        model = fit(shifted, 1, 1, eta)
    ks = draw(st.sampled_from([[1], [1, 4, 32], [1, train.n // 8], [train.n // 2, 3], [train.n],
                               [train.n + 3, 1]]))
    budget = draw(st.sampled_from([1, 7, search._CHUNK_BUDGET]))
    bound = draw(st.sampled_from([None, 32]))
    return model, queries + shift, ks, budget, bound


@given(shifted_helix_problems())
@settings(max_examples=150, deadline=None)
def test_index_matches_radius_first_loop_bit_for_bit(problem):
    model, queries, ks, budget, bound = problem
    train = model.train
    with mock.patch.object(search, "_CHUNK_BUDGET", budget):
        got = indexed_means(
            queries, train.responses, ks, model.proxy_index, model.eta, bound
        )
        want = radius_first_means(
            queries, train.features, train.responses, ks,
            model.tangents.vectors, model.tangent_assignment, model.eta,
        )
    assert np.array_equal(got, want)


@st.composite
def decimal_grid_problems(draw):
    """Rows, queries and eta on decimal grids (0.1 and 0.05 steps), which
    binary floats round: window ends p_j -+ r and distances land on, or a
    rounding step beside, other rows' distances, and ties are common.  eta
    is sometimes infinite."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 12))
    tenths = st.lists(st.integers(-20, 20), min_size=d, max_size=d)
    x = np.array(draw(st.lists(tenths, min_size=n, max_size=n))) * 0.1
    vectors = np.eye(d)[: draw(st.integers(1, d))] * draw(st.sampled_from([-1.0, 1.0]))
    assignment = np.array(draw(st.lists(st.integers(0, len(vectors) - 1), min_size=n, max_size=n)))
    twentieths = st.lists(st.integers(-40, 40), min_size=d, max_size=d)
    queries = np.array(draw(st.lists(twentieths, min_size=1, max_size=4))) * 0.05
    eta = draw(st.one_of(st.integers(1, 20).map(lambda steps: steps * 0.1), st.just(math.inf)))
    return x, vectors, assignment, queries, eta, draw(st.integers(1, n + 1))


def pinned(x, vectors, assignment, queries, eta, k):
    """A decimal grid problem given in grid steps."""
    return (np.array(x) * 0.1, np.array(vectors), np.array(assignment),
            np.array(queries) * 0.05, eta * 0.1, k)


@given(decimal_grid_problems())
# a k-th distance equal to the nearest left-out row's must not settle the query
@example(pinned([[-3], [-3], [3], [3], [-16], [-6], [8], [16], [-2], [-8]], [[-1.0]],
                [0] * 10, [[9], [0]], 16, 9))
# rows left out on either side of a window both bound what may be settled
@example(pinned([[6], [1]], [[1.0]], [0, 0], [[-37], [12], [-6], [34]], 16, 2))
@settings(max_examples=300, deadline=None)
def test_index_matches_radius_first_loop_on_decimal_grids(problem):
    x, vectors, assignment, queries, eta, k = problem
    values = 2.0 ** np.arange(len(x))  # distinct picks give distinct sums
    index = ProxyIndex(x, vectors, assignment)
    got = indexed_means(queries, values, [k], index, eta)
    want = radius_first_means(queries, x, values, [k], vectors, assignment, eta)
    assert np.array_equal(got, want)


@st.composite
def tied_grid_problems(draw):
    """Rows on a decimal grid of a few values, each repeated, so that several
    rows often tie at the k-th distance; k runs up to the row count, so it
    often falls inside a tie and only part of it can be picked.  eta is
    sometimes infinite."""
    d = draw(st.integers(1, 2))
    levels = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(2, 40))
    x = np.array(draw(st.lists(
        st.lists(st.sampled_from(levels), min_size=d, max_size=d), min_size=n, max_size=n
    ))) * 0.1
    vectors = np.eye(d)[: draw(st.integers(1, d))] * draw(st.sampled_from([-1.0, 1.0]))
    assignment = np.array(draw(st.lists(st.integers(0, len(vectors) - 1), min_size=n, max_size=n)))
    queries = np.array(draw(st.lists(
        st.lists(st.integers(-8, 8), min_size=d, max_size=d), min_size=1, max_size=4
    ))) * 0.05
    eta = draw(st.one_of(st.integers(1, 20).map(lambda steps: steps * 0.1), st.just(math.inf)))
    return x, vectors, assignment, queries, eta, draw(st.integers(1, n))


@given(tied_grid_problems())
# five rows tie at the 3rd distance (0.3): the walk may keep only two of them,
# the lowest indices, as the loop does
@example(pinned([[3], [-3], [1], [3], [-3], [3]], [[1.0]], [0] * 6, [[0]], 20, 3))
# at eta infinite, rows 0.05 either side of the query tie; those left out of the
# half-open windows must not let the query settle
@example(pinned([[0], [0], [1], [1]], [[-1.0]], [0] * 4, [[1]], math.inf, 2))
@settings(max_examples=300, deadline=None)
def test_index_keeps_the_lowest_indices_of_a_tie_at_the_kth_distance(problem):
    x, vectors, assignment, queries, eta, k = problem
    values = 2.0 ** np.arange(len(x))  # distinct picks give distinct sums
    index = ProxyIndex(x, vectors, assignment)
    ks = list(range(1, k + 1))  # every prefix of the ranking, so its order counts too
    got = indexed_means(queries, values, ks, index, eta)
    want = radius_first_means(queries, x, values, ks, vectors, assignment, eta)
    assert np.array_equal(got, want)


def test_shifted_rows_admitted_beyond_eta_are_found():
    """Found by search over clustered helix data: at a 1e6 shift the
    expanded radius test admits rows whose proxy distance exceeds eta, and
    the loop averages them.  A walk that stopped at |p_j - c_i| <= eta, with
    no rounding margin, would miss them."""
    d, eta = 4, 0.01
    rng = np.random.default_rng(0)
    shift = 1e6 * rng.uniform(-1.0, 1.0, d)
    train, near = clustered_helix(d, 100, 0, eta)
    model = fit(Dataset(train.features + shift, train.responses), 4, 1, eta, "equiblock")
    queries = near + shift
    train, index = model.train, model.proxy_index
    gram = queries @ train.features.T
    q_sq = np.einsum("md,md->m", queries, queries)
    c_sq = np.einsum("nd,nd->n", train.features, train.features)
    admitted = ~(search._expanded_sq(gram, q_sq[:, None], c_sq) > eta * eta)
    dist = np.abs((queries @ index.vectors.T)[:, index.assignment] - index.offsets[None, :])
    assert (admitted & (dist > eta)).any()
    ks = [1, 4, 32]
    got = indexed_means(queries, train.responses, ks, index, eta)
    want = radius_first_means(
        queries, train.features, train.responses, ks,
        model.tangents.vectors, model.tangent_assignment, eta,
    )
    assert np.array_equal(got, want)


def test_slab_bound_near_the_row_norm_bound_is_finite_without_warnings():
    d = 4
    vectors = np.eye(d)[:2]
    top = math.sqrt(np.finfo(np.float64).max / 8 / d) * (1 - 1e-12)
    train_x = np.full((3, d), top)
    train_x[1] *= -1.0
    train_x[2, 0] = 0.0
    index = ProxyIndex(train_x, vectors, np.array([0, 1, 0]))
    q_sq = np.einsum("nd,nd->n", train_x, train_x)
    with np.errstate(all="raise"):
        for eta in (0.5, 1e150, float(np.finfo(np.float64).max)):
            slab = search._slab(index, eta, q_sq, float(q_sq.max()), d)
            assert np.all(slab >= min(eta, 1e300))
    values = np.array([1.0, 2.0, 4.0])
    for eta in (0.5, 1e154):
        got = indexed_means(train_x, values, [1, 2], index, eta)
        want = radius_first_means(train_x, train_x, values, [1, 2], vectors, index.assignment, eta)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("eta", [0.5, 4.0, math.inf])
@pytest.mark.parametrize("bound", [None, 8])
@pytest.mark.parametrize("level, other", [(0.0, 0.0), (3.0, 3.0), (0.0, 5e-324)])
def test_walk_over_offsets_without_spread_ends_and_matches_the_loop(eta, bound, level, other):
    """A tangent orthogonal to the data gives every row the same offset
    (``level``, or ``other`` for every second row), so the spread that sizes
    the first windows at eta infinite is 0 (or so small that k / 2N of it
    is 0); half the rows are duplicates, so whole runs of rows tie."""
    rng = np.random.default_rng(1)
    x = np.column_stack((np.full(64, level), rng.standard_normal((64, 2))))
    x[::2, 0] = other
    x[32:] = x[:32]
    vectors, assignment = np.eye(3)[:1], np.zeros(64, dtype=np.intp)
    index = ProxyIndex(x, vectors, assignment)
    assert index.spread * 3 / 128 == 0.0
    queries = np.vstack((x[:3], rng.standard_normal((5, 3))))
    values = 2.0 ** np.arange(64)
    for ks in ([1], [3, 1]):
        got = indexed_means(queries, values, ks, index, eta, bound)
        want = radius_first_means(queries, x, values, ks, vectors, assignment, eta)
        assert np.array_equal(got, want)


def test_search_at_k_n_holds_less_than_the_loop_it_replaced():
    """At eta infinite with k = N every query takes the walk, whose block
    grows to N rows per query, so the query chunk shrinks with max(ks): the
    traced peak stays under three blocks of ``_CHUNK_BUDGET`` floats.  The
    per-row loop that took such calls before held more than four (the proxy
    distances to every row, their difference before the abs, and the picks),
    and the walk in chunks sized for N alone more than ten."""
    data = helix(4, 1024, 3, 0.25, noise=0.1)
    model = fit(data, 4, 1)
    queries = helix(4, 200, 4, 0.3).features
    index, budget = model.proxy_index, 32768
    index.sorted  # the index keeps its own arrays between searches
    with mock.patch.object(search, "_CHUNK_BUDGET", budget):
        tracemalloc.start()
        try:
            got = search.neighbour_means(index, queries, data.responses, [1024], math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = radius_first_means(queries, data.features, data.responses, [1024],
                                  model.tangents.vectors, model.tangent_assignment, math.inf)
    assert np.array_equal(got, want)
    assert peak < 3 * 8 * budget


def test_walk_whose_first_windows_round_to_zero_ends_and_matches_the_loop():
    """At eta = 5e-324, 16 k / N of eta rounds to 0, and a window of width 0
    would never grow by doubling."""
    rng = np.random.default_rng(2)
    x = rng.standard_normal((64, 3))
    vectors, assignment = np.eye(3)[:2], np.arange(64) % 2
    index = ProxyIndex(x, vectors, assignment)
    queries = np.vstack((x[:3], rng.standard_normal((3, 3))))
    values = 2.0 ** np.arange(64)
    got = search.neighbour_means(index, queries, values, [1], 5e-324)
    want = radius_first_means(queries, x, values, [1], vectors, assignment, 5e-324)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k, n, indexed", [(1, 16, False), (1, 17, True), (32, 512, False),
                                           (32, 513, True), (323, 16384, True),
                                           (1024, 16384, False)])
def test_index_runs_while_first_windows_are_narrower_than_eta(k, n, indexed):
    """At a finite eta; at eta infinite the walk is the whole search, for
    every k, and no query leaves it."""
    rng = np.random.default_rng(0)
    train_x = rng.standard_normal((n, 3))
    index = ProxyIndex(train_x, np.eye(3)[:1], np.zeros(n, dtype=np.intp))
    real, rests = search._indexed_picks, []

    def walk(*args):
        out = real(*args)
        rests.append(out[2])
        return out

    with mock.patch.object(search, "_indexed_picks", walk):
        search.neighbour_means(index, train_x[:5], np.zeros(n), [k], 0.5)
        assert len(rests) == int(indexed)
        search.neighbour_means(index, train_x[:5], np.zeros(n), [k], math.inf)
    assert len(rests) == int(indexed) + 1 and rests[-1].size == 0


@pytest.mark.parametrize("k, n, rows", [(1, 17, 4), (1, 8192, 256), (32, 4096, 128),
                                        (100, 16384, 512), (323, 16384, 1292),
                                        (1023, 16384, 4092)])
def test_walk_bound_is_n_over_32_or_4_rows_per_neighbour(k, n, rows):
    assert search._walk_rows(k, n) == rows


def test_queries_whose_windows_outgrow_the_bound_leave_the_walk():
    """Rows on a line, one query on it and one beside it with no row in its
    radius: with room for 8 rows both leave the walk, with room for all 64
    only the one with no row inside the radius does (for the fallback)."""
    x = np.column_stack((np.arange(64) * 0.01, np.zeros(64)))
    index = ProxyIndex(x, np.array([[1.0, 0.0]]), np.zeros(64, dtype=np.intp))
    queries = np.array([[0.3, 0.0], [0.3, 5.0]])
    gram = queries @ x.T
    q_sq = np.einsum("md,md->m", queries, queries)
    c_sq = np.einsum("nd,nd->n", x, x)
    proj = queries @ index.vectors.T
    slab = search._slab(index, 0.2, q_sq, float(c_sq.max()), 2)
    for bound, left in ((8, [0, 1]), (64, [1])):
        _, _, rest = search._indexed_picks(index, gram, q_sq, proj, 0.2, 16, slab, bound)
        assert sorted(rest) == left


def test_index_keeps_the_squared_row_norms_between_searches():
    data, _ = generate(SynthConfig(make_curve("helix"), 4, 600, 9, 0.25, 0.1))
    model = fit(data, 4, 3, eta=0.5)
    queries = np.random.default_rng(2).normal(size=(50, 4))
    first = estimator.predict_many(model, queries)
    assert model.proxy_index.row_sq.tobytes() == np.einsum(
        "nd,nd->n", data.features, data.features).tobytes()
    with mock.patch.object(np, "einsum", wraps=np.einsum) as einsum:
        again = estimator.predict_many(model, queries)
    assert not [c for c in einsum.call_args_list if any(a is data.features for a in c.args)]
    assert again.tobytes() == first.tobytes()
