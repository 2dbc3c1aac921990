"""The sorted-offset index against the radius-first loop it replaces.

``radius_first_means`` restates the loop that every finite-eta search ran
before the index: per query chunk the expanded Euclidean block, then per
query the in-radius rows in index order, their proxy distances, and the
first max(ks) of them in (distance, index) order.  The index must pick the
same rows from the same bits, so its averages must equal the loop's bit for
bit, on float data far from the origin, with queries off the tube.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsim import estimator
from nsim.data import Dataset
from nsim.errors import InfeasibleFitError
from nsim.estimator import ProxyIndex, fit
from nsim.geometry import SynthConfig, generate, make_curve


def radius_first_means(queries, train_x, values, ks, vectors, assignment, eta):
    cand_sq = np.einsum("nd,nd->n", train_x, train_x)
    offsets = np.einsum("nd,nd->n", train_x, vectors[assignment])
    out = np.empty((len(ks), len(queries)))
    step = max(1, estimator._CHUNK_BUDGET // len(train_x))
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


def indexed_means(queries, train_x, values, ks, index, eta, divisor=1):
    """``_neighbour_means`` with the index forced on; ``divisor`` 1 lets no
    query leave the walk for the loop."""
    with (
        mock.patch.object(estimator, "_INDEX_ROWS_PER_K", 0),
        mock.patch.object(estimator, "_INDEX_WINDOW_DIVISOR", divisor),
        mock.patch.object(
            estimator, "_indexed_picks", wraps=estimator._indexed_picks
        ) as walk,
    ):
        out = estimator._neighbour_means(queries, train_x, values, ks, index, eta)
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
    expanded radius test rounds either way."""
    d = draw(st.integers(4, 8))
    n_base = draw(st.integers(30, 130))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    shift = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6])) * rng.uniform(-1.0, 1.0, d)
    eta = draw(st.sampled_from([0.01, 0.5]))
    train, near = clustered_helix(d, n_base, seed, eta)
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
    ks = draw(st.sampled_from([[1], [1, 4, 32]]))
    budget = draw(st.sampled_from([1, 7, estimator._CHUNK_BUDGET]))
    divisor = draw(st.sampled_from([1, 32]))
    return model, queries + shift, ks, budget, divisor


@given(shifted_helix_problems())
@settings(max_examples=150, deadline=None)
def test_index_matches_radius_first_loop_bit_for_bit(problem):
    model, queries, ks, budget, divisor = problem
    train = model.train
    with mock.patch.object(estimator, "_CHUNK_BUDGET", budget):
        got = indexed_means(
            queries, train.features, train.responses, ks, model.proxy_index, model.eta, divisor
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
    rounding step beside, other rows' distances, and ties are common."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 12))
    tenths = st.lists(st.integers(-20, 20), min_size=d, max_size=d)
    x = np.array(draw(st.lists(tenths, min_size=n, max_size=n))) * 0.1
    vectors = np.eye(d)[: draw(st.integers(1, d))] * draw(st.sampled_from([-1.0, 1.0]))
    assignment = np.array(draw(st.lists(st.integers(0, len(vectors) - 1), min_size=n, max_size=n)))
    twentieths = st.lists(st.integers(-40, 40), min_size=d, max_size=d)
    queries = np.array(draw(st.lists(twentieths, min_size=1, max_size=4))) * 0.05
    eta = draw(st.integers(1, 20)) * 0.1
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
    got = indexed_means(queries, x, values, [k], index, eta)
    want = radius_first_means(queries, x, values, [k], vectors, assignment, eta)
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
    admitted = ~(estimator._expanded_sq(gram, q_sq[:, None], c_sq) > eta * eta)
    dist = np.abs((queries @ index.vectors.T)[:, index.assignment] - index.offsets[None, :])
    assert (admitted & (dist > eta)).any()
    ks = [1, 4, 32]
    got = indexed_means(queries, train.features, train.responses, ks, index, eta)
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
            slab = estimator._slab(index, eta, q_sq, float(q_sq.max()), d)
            assert np.all(slab >= min(eta, 1e300))
    values = np.array([1.0, 2.0, 4.0])
    for eta in (0.5, 1e154):
        got = indexed_means(train_x, train_x, values, [1, 2], index, eta)
        want = radius_first_means(train_x, train_x, values, [1, 2], vectors, index.assignment, eta)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("k, n, indexed", [(1, 127, False), (1, 128, True), (32, 4096, True),
                                           (33, 4096, False)])
def test_index_runs_from_max_k_times_rows_per_k_up_to_n(k, n, indexed):
    rng = np.random.default_rng(0)
    train_x = rng.standard_normal((n, 3))
    index = ProxyIndex(train_x, np.eye(3)[:1], np.zeros(n, dtype=np.intp))
    with mock.patch.object(estimator, "_indexed_picks", wraps=estimator._indexed_picks) as walk:
        estimator._neighbour_means(train_x[:5], train_x, np.zeros(n), [k], index, 0.5)
        estimator._neighbour_means(train_x[:5], train_x, np.zeros(n), [k], index, math.inf)
    assert walk.call_count == int(indexed)
