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
from .errors import InfeasibleFitError
from .linalg import cross_covariance, pseudo_inverse, sample_covariance
from .partition import ResponsePartition

DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class TangentField:
    """J unit index vectors with per-level-set means and counts."""

    vectors: np.ndarray  # (J, D), rows of unit norm
    level_means_x: np.ndarray  # (J, D)
    level_means_y: np.ndarray  # (J,)
    counts: np.ndarray  # (J,)


def fit_tangents(
    data: Dataset,
    partition: ResponsePartition,
    rank_tol: float | None = None,
) -> TangentField:
    """Estimate one unit index vector per level set.

    Every level set needs at least D+1 samples (a rank-D covariance plus the
    mean); a vanishing regression vector is reported as a degenerate
    direction rather than silently normalized.
    """
    j_count = partition.n_groups
    d = data.d
    vectors = np.empty((j_count, d))
    means_x = np.empty((j_count, d))
    means_y = np.empty(j_count)
    counts = np.empty(j_count, dtype=np.intp)

    for j, idx in enumerate(partition.groups):
        if len(idx) < d + 1:
            raise InfeasibleFitError(
                f"level set {j} too small (need >= {d + 1} samples, got {len(idx)})"
            )
        x = data.features[idx]
        y = data.responses[idx]
        sigma = sample_covariance(x)
        r = cross_covariance(x, y)
        b = pseudo_inverse(sigma, rank_tol) @ r
        norm = float(np.linalg.norm(b))
        if norm < DEGENERATE_NORM:
            raise InfeasibleFitError(f"degenerate regression direction in level set {j}")
        vectors[j] = b / norm
        means_x[j] = x.mean(axis=0)
        means_y[j] = y.mean()
        counts[j] = len(idx)

    return TangentField(vectors, means_x, means_y, counts)


def grammian(field: TangentField) -> np.ndarray:
    """J x J matrix of pairwise inner products of the index vectors;
    symmetric with unit diagonal."""
    g = field.vectors @ field.vectors.T
    g = (g + g.T) / 2.0
    np.fill_diagonal(g, 1.0)  # rows are unit vectors; pin the 1-ulp residue
    return g
