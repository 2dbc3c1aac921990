"""Dense linear-algebra kernels used by the estimation pipeline.

Covariances use the 1/n (population) normalization throughout; only the
direction of the downstream regression vector is consumed, so a 1/(n-1)
variant is deliberately not offered.  Means and covariances are computed
two-pass (mean first, then deviations).  ``pseudo_inverse`` also takes a
(..., D, D) stack and inverts every matrix in it with one eigendecomposition
call, each bit for bit as if it were passed alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, UsageError


def _as_matrix(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise DataError("empty sample")
    if not np.all(np.isfinite(arr)):
        raise DataError("sample contains non-finite values")
    return arr


def sample_covariance(rows) -> np.ndarray:
    """(1/n) * sum_i (x_i - mean)(x_i - mean)^T; symmetric PSD by construction."""
    arr = _as_matrix(rows)
    centered = arr - arr.mean(axis=0)
    cov = centered.T @ centered / arr.shape[0]
    return (cov + cov.T) / 2.0


def cross_covariance(rows, responses) -> np.ndarray:
    """(1/n) * sum_i (y_i - mean_y)(x_i - mean_x)."""
    arr = _as_matrix(rows)
    resp = np.asarray(responses, dtype=np.float64)
    if resp.ndim != 1 or resp.shape[0] != arr.shape[0]:
        raise DataError(
            f"row count ({arr.shape[0]}) and response count ({resp.shape[0] if resp.ndim == 1 else resp.shape}) differ"
        )
    if not np.all(np.isfinite(resp)):
        raise DataError("responses contain non-finite values")
    centered_y = resp - resp.mean()
    centered_x = arr - arr.mean(axis=0)
    return centered_x.T @ centered_y / arr.shape[0]


def pseudo_inverse(m, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues <= rank_tol * lambda_max are treated as zero.  The default
    rank_tol is D * machine epsilon, the usual numerical-rank convention.
    A (..., D, D) stack is inverted matrix by matrix, each against its own
    lambda_max, in one ``eigh`` call; every matrix in it must be finite.
    """
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1] or arr.size == 0:
        raise DataError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError("matrix contains non-finite values")
    if rank_tol is None:
        rank_tol = arr.shape[-1] * np.finfo(np.float64).eps
    if not rank_tol > 0:
        raise UsageError(f"rank_tol must be positive, got {rank_tol}")

    eigvals, eigvecs = np.linalg.eigh(arr)
    cutoff = rank_tol * np.maximum(eigvals[..., -1:], 0.0)
    keep = eigvals > cutoff
    inv_vals = np.zeros_like(eigvals)
    inv_vals[keep] = 1.0 / eigvals[keep]
    return (eigvecs * inv_vals[..., None, :]) @ np.swapaxes(eigvecs, -1, -2)
