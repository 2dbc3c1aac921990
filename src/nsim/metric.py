"""Restricted proxy distance and neighbor ordering.

The distance from a query x to a candidate X_i is |a_i^T (x - X_i)| when
||x - X_i|| <= eta and infinity otherwise, where a_i is the unit index
vector attached to the candidate.  It is generally not symmetric.  Infinity
is the float infinity, never a large finite sentinel.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, InfeasibleFitError, UsageError


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if math.isnan(eta) or eta <= 0:
        raise UsageError(f"eta must be positive or infinite, got {eta}")
    return eta


def proxy_distances(x, candidates, tangents, eta: float) -> np.ndarray:
    """Proxy distance from one query to every candidate row."""
    x = np.asarray(x, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    tangents = np.asarray(tangents, dtype=np.float64)
    if x.ndim != 1:
        raise DataError(f"query must be a vector, got shape {x.shape}")
    if candidates.ndim != 2 or candidates.shape[1] != x.shape[0]:
        raise DataError(
            f"candidates of shape {candidates.shape} incompatible with query dim {x.shape[0]}"
        )
    if tangents.shape != candidates.shape:
        raise DataError(
            f"one tangent per candidate required: {tangents.shape} vs {candidates.shape}"
        )
    eta = _check_eta(eta)

    diffs = candidates - x
    within = np.einsum("nd,nd->n", diffs, diffs) <= eta * eta
    proj = np.abs(np.einsum("nd,nd->n", diffs, tangents))
    return np.where(within, proj, np.inf)


def neighbor_order(x, candidates, tangents, eta: float, k: int) -> np.ndarray:
    """Indices of the k smallest finite proxy distances, ascending.

    Ties break toward the lower candidate index.  Fewer than k finite
    distances yield all finite ones; zero finite distances are an error and
    the caller decides the fallback.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    dist = proxy_distances(x, candidates, tangents, eta)
    n_finite = int(np.isfinite(dist).sum())
    if n_finite == 0:
        raise InfeasibleFitError("no candidate within restricting radius")
    order = np.argsort(dist, kind="stable")
    return order[: min(k, n_finite)]
