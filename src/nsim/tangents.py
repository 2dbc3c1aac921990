"""Per-level-set index vectors via conditional linear regression.

Each level set j gets the unit vector obtained by normalizing the solution
of linear regression on the centered group data,
``b_j = pinv(Sigma_j) @ r_j``, where Sigma_j is the group feature covariance
and r_j the feature/response cross-covariance.  The sign is taken from b_j
as computed: it correlates positively with the response inside its group.
"""

from __future__ import annotations

import math
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


@np.errstate(over="ignore", invalid="ignore")  # overflow surfaces as a non-finite moment
def centred_moments(features, responses, groups):
    """(means_x, means_y, sigmas, rs): per group of row indices, the feature
    and response means, the (1/n) covariance of the centred rows
    (symmetrised) and their cross-covariance with the centred responses,
    stacked (G, D), (G,), (G, D, D) and (G, D).

    Each group's rows are gathered once (in the order the group lists them,
    which fixes the bits of every sum) and centred in place.  A response
    mean whose sum overflows on finite terms is taken from scaled terms
    instead.  The fit takes one group per level set, and the
    least-squares baseline one group of every row."""
    g, d = len(groups), features.shape[1]
    sigmas = np.empty((g, d, d))
    rs = np.empty((g, d))
    means_x = np.empty((g, d))
    means_y = np.empty(g)
    counts = np.array([len(idx) for idx in groups], dtype=np.intp)
    # take copies a strided source whole on every call (the CSV reader's
    # columns are strided); one copy here serves every group
    features = np.ascontiguousarray(features)
    responses = np.ascontiguousarray(responses)
    for j, idx in enumerate(groups):
        x = features.take(idx, axis=0)
        y = responses.take(idx)
        # add.reduce / n has the bits of x.mean(axis=0) and y.mean()
        means_x[j] = np.add.reduce(x, axis=0) / len(idx)
        means_y[j] = np.add.reduce(y) / len(idx)
        if not math.isfinite(means_y[j]):  # the sum overflowed; the terms need not
            means_y[j] = (y / len(idx)).sum()
        x -= means_x[j]
        np.matmul(x.T, x, out=sigmas[j])
        np.matmul(x.T, y - means_y[j], out=rs[j])
    # the scaling and the symmetrisation are elementwise, so one pass over
    # the stacks gives the bits that one pass per group gives
    sigmas /= counts[:, None, None]
    sigmas = (sigmas + sigmas.transpose(0, 2, 1)) / 2.0
    rs /= counts[:, None]
    return means_x, means_y, sigmas, rs


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
    too large in magnitude) as a ``DataError``.  A norm of b_j whose sum
    overflows on finite terms is taken from scaled terms instead, as the
    direction does not depend on the response scale.

    The level sets' moments come from one ``centred_moments`` call, and
    one ``pseudo_inverse`` call solves them.
    Errors are raised for the first failing level set in index order, in
    the per-level-set order: too small, non-finite covariance or bad
    ``rank_tol``, then a degenerate or non-finite direction.
    """
    j_count = partition.n_groups
    d = data.d
    counts = np.array([len(idx) for idx in partition.groups], dtype=np.intp)
    # stop at the first level set that fails before the solve (too small or
    # a non-finite covariance); the level sets ahead of it are solved first,
    # since a degenerate direction among them takes precedence
    small = np.flatnonzero(counts < d + 1)
    stop = int(small[0]) if small.size else j_count
    means_x, means_y, sigmas, rs = centred_moments(
        data.features, data.responses, partition.groups[:stop]
    )
    finite = np.isfinite(sigmas).all(axis=(1, 2))
    if not finite.all():
        stop = int(np.argmin(finite))

    if stop:
        b = (pseudo_inverse(sigmas[:stop], rank_tol) @ rs[:stop, :, None])[:, :, 0]
        norms = np.empty(stop)
        for j in range(stop):
            norms[j] = float(np.linalg.norm(b[j]))
            if math.isinf(norms[j]) and np.isfinite(b[j]).all():  # rescale before the squares
                b[j] /= np.abs(b[j]).max()
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
