"""Splitting a dataset into J level sets by response value.

Two partitioners are provided: equal-width intervals over the (min-max
scaled) response range, and statistically equivalent blocks over the ordered
response sequence.  Intervals are right-open except the last; group
membership is decided against the same boundary array used to build the
intervals, so the two views never disagree on continuous data.  When equal
response values straddle an equiblock boundary, the block assignment is
authoritative: a sample's group may then differ from the interval that the
right-open rule gives for its response value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import check_count
from .errors import DataError


@dataclass(frozen=True)
class ResponseInterval:
    lower: float
    upper: float
    closed_upper: bool


@dataclass(frozen=True)
class ResponsePartition:
    """Ordered response intervals plus the induced sample-index groups."""

    intervals: tuple[ResponseInterval, ...]
    groups: tuple[np.ndarray, ...]

    @property
    def n_groups(self) -> int:
        return len(self.intervals)

    @property
    def n_samples(self) -> int:
        return sum(len(g) for g in self.groups)

    def sample_groups(self) -> np.ndarray:
        """Inverse map: entry i is the group index containing sample i."""
        out = np.empty(self.n_samples, dtype=np.intp)
        for j, idx in enumerate(self.groups):
            out[idx] = j
        return out


def _validated_responses(responses) -> np.ndarray:
    arr = np.asarray(responses, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DataError("responses must be a non-empty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise DataError("responses contain non-finite values")
    return arr


def _intervals_from_edges(edges: np.ndarray) -> tuple[ResponseInterval, ...]:
    last = len(edges) - 2
    return tuple(
        ResponseInterval(float(edges[j]), float(edges[j + 1]), j == last)
        for j in range(len(edges) - 1)
    )


def dyadic_partition(responses, j_count: int) -> ResponsePartition:
    """J equal-width intervals over the min-max scaled response range.

    Intervals are right-open except the last; a constant response vector is
    only partitionable with J = 1.
    """
    arr = _validated_responses(responses)
    j_count = check_count(j_count, "J")
    lo, hi = float(arr.min()), float(arr.max())
    if j_count > 1 and lo == hi:
        raise DataError("degenerate response range: constant responses need J = 1")

    if math.isfinite((hi - lo) * j_count):
        edges = lo + (hi - lo) * np.arange(j_count + 1) / j_count
    else:  # the span overflows near float max; a convex combination of the ends cannot
        frac = np.arange(j_count + 1) / j_count
        edges = lo * (1.0 - frac) + hi * frac
    edges[0], edges[-1] = lo, hi
    member = np.searchsorted(edges[1:j_count], arr, side="right")
    # a stable sort keeps each group's indices ascending
    order = np.argsort(member, kind="stable")
    groups = tuple(np.split(order, np.cumsum(np.bincount(member, minlength=j_count))[:-1]))
    return ResponsePartition(_intervals_from_edges(edges), groups)


def equiblock_partition(responses, j_count: int) -> ResponsePartition:
    """J contiguous blocks of the response-ordered indices, sizes within 1.

    Larger blocks come first; interval boundaries sit at midpoints between
    the adjacent boundary responses, or at the upper one when the midpoint
    of two adjacent doubles rounds down onto the lower.
    """
    arr = _validated_responses(responses)
    j_count = check_count(j_count, "J")
    n = arr.size
    if j_count > n:
        raise DataError(f"J ({j_count}) exceeds sample count ({n})")

    order = np.argsort(arr, kind="stable")
    base, extra = divmod(n, j_count)
    sizes = [base + 1] * extra + [base] * (j_count - extra)
    splits = np.cumsum(sizes[:-1], dtype=np.intp)
    groups = tuple(np.split(order, splits))

    below, above = arr[order[splits - 1]], arr[order[splits]]
    with np.errstate(over="ignore"):
        mid = (below + above) / 2.0
    # where the sum of two responses near float max overflowed, halve before adding
    mid = np.where(np.isfinite(mid), mid, below / 2.0 + above / 2.0)
    edges = np.empty(j_count + 1)
    edges[0], edges[-1] = arr.min(), arr.max()
    # the midpoint of adjacent doubles can round down onto the lower one,
    # which would leave it outside its right-open interval
    edges[1:-1] = np.where((mid <= below) & (below < above), above, mid)
    return ResponsePartition(_intervals_from_edges(edges), groups)
