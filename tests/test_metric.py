import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsim.errors import DataError, UsageError
from nsim.metric import proxy_distances


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
