import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsim.errors import DataError, InfeasibleFitError, UsageError
from nsim.metric import neighbor_order, proxy_distances


class TestProxyDistance:
    def test_axis_aligned(self):
        assert proxy_distances([0, 0], [[1, 0]], [[1, 0]], 2.0)[0] == 1.0

    def test_outside_restricting_radius(self):
        assert proxy_distances([0, 0], [[1, 0]], [[1, 0]], 0.5)[0] == math.inf

    def test_projection_onto_second_axis(self):
        assert proxy_distances([0, 0], [[1, 1]], [[0, 1]], math.inf)[0] == 1.0

    def test_boundary_is_included(self):
        assert proxy_distances([0.0, 0.0], [[1.0, 0.0]], [[0.0, 1.0]], 1.0)[0] == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DataError):
            proxy_distances([0, 0, 0], [[1, 0]], [[1, 0]], 1.0)

    def test_asymmetry_with_distinct_tangents(self):
        # the metric depends on the tangent attached to the candidate
        x, xi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        d_forward = proxy_distances(x, [xi], [[1.0, 0.0]], math.inf)[0]
        d_backward = proxy_distances(xi, [x], [[0.0, 1.0]], math.inf)[0]
        assert d_forward == d_backward == 1.0  # equal here, but by two projections

    def test_bad_eta_rejected(self):
        with pytest.raises(UsageError):
            proxy_distances([0.0], [[1.0]], [[1.0]], 0.0)


class TestNeighborOrder:
    def test_sorting(self):
        candidates = np.array([[2.0], [0.0], [1.0]])
        tangents = np.ones((3, 1))
        order = neighbor_order([0.0], candidates, tangents, math.inf, 2)
        assert order.tolist() == [1, 2]

    def test_truncation_to_finite_candidates(self):
        candidates = np.array([[0.1], [0.2], [9.0]])
        tangents = np.ones((3, 1))
        order = neighbor_order([0.0], candidates, tangents, 1.0, 5)
        assert order.tolist() == [0, 1]

    def test_tie_breaks_toward_lower_index(self):
        candidates = np.zeros((9, 2))
        candidates[:, 0] = [5, 5, 5, 5, 1, 5, 5, -1, 5]  # indices 4 and 7 tie at |1|
        tangents = np.tile([1.0, 0.0], (9, 1))
        order = neighbor_order([0.0, 0.0], candidates, tangents, math.inf, 2)
        assert order.tolist() == [4, 7]

    def test_no_finite_candidate_is_an_error(self):
        candidates = np.array([[3.0, 0.0], [0.0, 4.0]])
        tangents = np.tile([1.0, 0.0], (2, 1))
        with pytest.raises(InfeasibleFitError, match="restricting radius"):
            neighbor_order([0.0, 0.0], candidates, tangents, 1.0, 1)

    def test_k_below_one_rejected(self):
        with pytest.raises(UsageError):
            neighbor_order([0.0], np.ones((2, 1)), np.ones((2, 1)), 1.0, 0)

    def test_single_shared_tangent_matches_projected_ordering(self):
        rng = np.random.default_rng(17)
        candidates = rng.normal(size=(40, 3))
        a = np.array([2.0, -1.0, 0.5])
        a /= np.linalg.norm(a)
        tangents = np.tile(a, (40, 1))
        x = rng.normal(size=3)
        order = neighbor_order(x, candidates, tangents, math.inf, 40)
        projected = np.abs((candidates - x) @ a)
        assert order.tolist() == np.argsort(projected, kind="stable").tolist()


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 3.0), st.floats(0.0, 4.0))
@settings(max_examples=80, deadline=None)
def test_eta_monotonicity(seed, eta_small, delta):
    rng = np.random.default_rng(seed)
    candidates = rng.normal(size=(25, 3))
    tangents = rng.normal(size=(25, 3))
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    x = rng.normal(size=3)
    small = proxy_distances(x, candidates, tangents, eta_small)
    large = proxy_distances(x, candidates, tangents, eta_small + delta)
    finite_small = set(np.flatnonzero(np.isfinite(small)).tolist())
    finite_large = set(np.flatnonzero(np.isfinite(large)).tolist())
    assert finite_small <= finite_large
    for i in finite_small:
        assert small[i] == large[i]
