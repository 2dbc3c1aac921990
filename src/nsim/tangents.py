"""Per-level-set index vectors via conditional linear regression.

Each level set j gets the unit vector obtained by normalizing the solution
of linear regression on the centered group data,
``b_j = pinv(Sigma_j) @ r_j``, where Sigma_j is the group feature covariance
and r_j the feature/response cross-covariance.  The sign is taken from b_j
as computed: it correlates positively with the response inside its group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, InfeasibleFitError
from .linalg import pseudo_inverse
from .partition import ResponsePartition

DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class TangentField:
    """J unit index vectors with per-level-set means and counts."""

    vectors: np.ndarray  # (J, D), rows of unit norm
    level_means_x: np.ndarray  # (J, D)
    level_means_y: np.ndarray  # (J,)
    counts: np.ndarray  # (J,)


@np.errstate(over="ignore", invalid="ignore")  # overflow surfaces as a non-finite b_j
def fit_tangents(
    data: Dataset,
    partition: ResponsePartition,
    rank_tol: float | None = None,
) -> TangentField:
    """Estimate one unit index vector per level set.

    Every level set needs at least D+1 samples (a rank-D covariance plus the
    mean); a vanishing regression vector is reported as a degenerate
    direction rather than silently normalized, and a non-finite one (data
    too large in magnitude) as a ``DataError``.

    Each level set is centred once; its covariance and cross-covariance go
    into (J, D, D) and (J, D) stacks that one ``pseudo_inverse`` call solves.
    Errors are raised for the first failing level set in index order, in
    the per-level-set order: too small, non-finite covariance or bad
    ``rank_tol``, then a degenerate or non-finite direction.
    """
    j_count = partition.n_groups
    d = data.d
    sigmas = np.empty((j_count, d, d))
    rs = np.empty((j_count, d))
    means_x = np.empty((j_count, d))
    means_y = np.empty(j_count)
    counts = np.array([len(idx) for idx in partition.groups], dtype=np.intp)

    # stop at the first level set that fails before the solve (too small or
    # a non-finite covariance); the level sets ahead of it are solved first,
    # since a degenerate direction among them takes precedence
    stop = j_count
    for j, idx in enumerate(partition.groups):
        if len(idx) < d + 1:
            stop = j
            break
        x = data.features[idx]
        y = data.responses[idx]
        means_x[j] = x.mean(axis=0)
        means_y[j] = y.mean()
        centered = x - means_x[j]
        cov = centered.T @ centered / len(idx)
        sigmas[j] = (cov + cov.T) / 2.0
        rs[j] = centered.T @ (y - means_y[j]) / len(idx)
    finite = np.isfinite(sigmas[:stop]).all(axis=(1, 2))
    if not finite.all():
        stop = int(np.argmin(finite))

    if stop:
        b = (pseudo_inverse(sigmas[:stop], rank_tol) @ rs[:stop, :, None])[:, :, 0]
        norms = np.empty(stop)
        for j in range(stop):
            norms[j] = float(np.linalg.norm(b[j]))
            if not np.isfinite(norms[j]):
                raise DataError(f"non-finite regression direction in level set {j}")
            if norms[j] < DEGENERATE_NORM:
                raise InfeasibleFitError(f"degenerate regression direction in level set {j}")
    if stop < j_count:
        if counts[stop] < d + 1:
            raise InfeasibleFitError(
                f"level set {stop} too small (need >= {d + 1} samples, got {counts[stop]})"
            )
        pseudo_inverse(sigmas[stop], rank_tol)  # raises: this covariance is not finite

    return TangentField(b / norms[:, None], means_x, means_y, counts)


def grammian(field: TangentField) -> np.ndarray:
    """J x J matrix of pairwise inner products of the index vectors;
    symmetric with unit diagonal."""
    g = field.vectors @ field.vectors.T
    g = (g + g.T) / 2.0
    np.fill_diagonal(g, 1.0)  # rows are unit vectors; pin the 1-ulp residue
    return g
