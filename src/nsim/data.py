"""Dataset container shared by the estimator, generators, and CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError


def check_count(value, name: str, minimum: int = 1) -> int:
    """``value`` (J, k, a repetition or fold count) as an int if it is an
    integer >= ``minimum``; a bool, a float or a fraction raises
    ``UsageError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise UsageError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_folds(folds) -> int:
    """A cross-validation fold count as an int; it must be an integer >= 2."""
    return check_count(folds, "folds", minimum=2)


def check_seed(seed) -> int:
    """A random seed as an int; it must be an integer >= 0 (not a bool)."""
    return check_count(seed, "seed", minimum=0)


def check_eta(eta) -> float:
    """The restricting radius as a float; it must be positive or infinite."""
    eta = float(eta)
    if math.isnan(eta) or eta <= 0:
        raise UsageError(f"eta must be positive or infinite, got {eta}")
    return eta


def _as_float_array(values, ndim: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise DataError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite values")
    return arr


# With squared row norms below max/8, no term or partial sum of
# ||q||^2 - 2 q.x + ||x||^2 overflows.
_MAX_ROW_SQ_NORM = np.finfo(np.float64).max / 8


def check_row_norms(rows: np.ndarray, name: str) -> None:
    """Raise ``DataError`` for a row whose squared norm is not finite or
    exceeds max_float / 8."""
    with np.errstate(over="ignore"):
        sq = np.einsum("nd,nd->n", rows, rows)
    too_big = np.flatnonzero(~(sq <= _MAX_ROW_SQ_NORM))
    if too_big.size:
        i = too_big[0]
        raise DataError(
            f"{name} row {i} has squared norm {sq[i]:.3g}; rows above "
            f"{_MAX_ROW_SQ_NORM:.3g} would overflow the squared distances"
        )


@dataclass(frozen=True)
class Dataset:
    """N feature rows of dimension D paired with N scalar responses."""

    features: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        features = _as_float_array(self.features, 2, "features")
        responses = _as_float_array(self.responses, 1, "responses")
        if features.shape[0] != responses.shape[0]:
            raise DataError(
                f"feature rows ({features.shape[0]}) and responses "
                f"({responses.shape[0]}) differ in length"
            )
        check_row_norms(features, "features")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "responses", responses)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.intp)
        return Dataset(self.features[indices], self.responses[indices])
