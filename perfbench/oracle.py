"""Brute-force oracle of nsim's documented prediction rule, in plain numpy.

The rule, restated from the package documentation rather than imported:
the distance from a query x to training sample X_i is |a_i^T (x - X_i)| when
||x - X_i|| <= eta and infinity otherwise; the prediction is the mean
response of the k nearest (lowest index first on equal distances), of all
of them when fewer than k lie inside the radius, and the response of the
Euclidean-nearest sample when none does.

The package computes the same distance as |a_i^T x - a_i^T X_i| and the
radius test from expanded squared norms, so the two can order a near-tie
differently.  ``admits`` therefore accepts any choice among candidates that
tie with the k-th within ``TIE_TOL`` and either side of a radius test that
is that close to eta.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

TIE_TOL = 1e-9
VALUE_TOL = 1e-9
_ROWS_PER_BLOCK = 256
_MAX_TIE_CHOICES = 1000


@dataclass(frozen=True)
class RuleModel:
    """The arrays the rule reads: training rows, their responses, the unit
    index vector attached to each row, k and eta."""

    features: np.ndarray
    responses: np.ndarray
    tangent_rows: np.ndarray
    k: int
    eta: float


def from_fitted(model) -> RuleModel:
    return RuleModel(
        features=np.asarray(model.train.features, dtype=np.float64),
        responses=np.asarray(model.train.responses, dtype=np.float64),
        tangent_rows=np.asarray(model.tangent_rows(), dtype=np.float64),
        k=int(model.k),
        eta=float(model.eta),
    )


def from_document(doc: dict) -> RuleModel:
    """Read the rule's arrays straight from a model JSON document."""
    tangents = np.asarray(doc["tangents"], dtype=np.float64)
    assignment = np.asarray(doc["tangent_assignment"], dtype=np.intp)
    eta = math.inf if doc["eta"] == "inf" else float(doc["eta"])
    return RuleModel(
        features=np.asarray(doc["train_features"], dtype=np.float64),
        responses=np.asarray(doc["train_responses"], dtype=np.float64),
        tangent_rows=tangents[assignment],
        k=int(doc["k"]),
        eta=eta,
    )


def _distances(model: RuleModel, x: np.ndarray):
    diff = x[None, :] - model.features
    eucl = np.sqrt(np.einsum("nd,nd->n", diff, diff))
    proxy = np.abs(np.einsum("nd,nd->n", model.tangent_rows, diff))
    return proxy, eucl


def predict(model: RuleModel, x) -> float:
    """The rule's prediction for one query, ties to the lowest index."""
    proxy, eucl = _distances(model, np.asarray(x, dtype=np.float64))
    inside = np.flatnonzero(eucl <= model.eta)
    if inside.size == 0:
        return float(model.responses[np.argmin(eucl)])
    order = inside[np.lexsort((inside, proxy[inside]))]
    return float(model.responses[order[: min(model.k, inside.size)]].mean())


def _admits_mean(responses, proxy, candidates, k, value) -> bool:
    m = min(k, candidates.size)
    ranked = candidates[np.lexsort((candidates, proxy[candidates]))]
    kth = proxy[ranked[m - 1]]
    tol = TIE_TOL * (1.0 + kth)
    certain = ranked[proxy[ranked] < kth - tol]
    tied = np.sort(responses[ranked[np.abs(proxy[ranked] - kth) <= tol]])
    need = m - certain.size
    rest = value * m - responses[certain].sum()
    slack = VALUE_TOL * m
    if math.comb(tied.size, need) <= _MAX_TIE_CHOICES:
        return any(abs(sum(c) - rest) <= slack for c in itertools.combinations(tied, need))
    # too many ways to break the tie: accept any total the tied values can reach
    return tied[:need].sum() - slack <= rest <= tied[tied.size - need:].sum() + slack


def admits(model: RuleModel, x, value: float) -> bool:
    """Whether ``value`` is a prediction the rule allows for query ``x``."""
    if not math.isfinite(value):
        return False
    proxy, eucl = _distances(model, np.asarray(x, dtype=np.float64))
    eta = model.eta
    if math.isinf(eta):
        variants = [np.arange(eucl.size)]
    else:
        band = TIE_TOL * (1.0 + eta)
        sure = np.flatnonzero(eucl < eta - band)
        edge = np.flatnonzero(np.abs(eucl - eta) <= band)
        variants = [sure] if edge.size == 0 else [sure, np.union1d(sure, edge)]
    for candidates in variants:
        if candidates.size == 0:
            nearest = eucl <= eucl.min() * (1.0 + TIE_TOL)
            if np.any(np.abs(model.responses[nearest] - value) <= VALUE_TOL):
                return True
        elif _admits_mean(model.responses, proxy, candidates, model.k, value):
            return True
    return False


def in_radius_counts(features: np.ndarray, eta: float, queries) -> np.ndarray:
    """Training rows within eta of each query.

    Squared distances come from the expanded form, and every pair whose
    expanded value is too close to eta^2 to trust is recomputed directly.
    """
    xs = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if math.isinf(eta):
        return np.full(xs.shape[0], features.shape[0], dtype=np.int64)
    eta2 = eta * eta
    feat_sq = np.einsum("nd,nd->n", features, features)
    out = np.empty(xs.shape[0], dtype=np.int64)
    for start in range(0, xs.shape[0], _ROWS_PER_BLOCK):
        block = xs[start:start + _ROWS_PER_BLOCK]
        block_sq = np.einsum("md,md->m", block, block)
        expanded = block_sq[:, None] + feat_sq[None, :] - 2.0 * (block @ features.T)
        inside = expanded <= eta2
        unsure = np.abs(expanded - eta2) <= 1e-10 * (block_sq[:, None] + feat_sq[None, :] + eta2)
        for i, j in zip(*np.nonzero(unsure)):
            diff = block[i] - features[j]
            inside[i, j] = float(diff @ diff) <= eta2
        out[start:start + block.shape[0]] = inside.sum(axis=1)
    return out


def neighbour_counts(model: RuleModel, queries) -> dict[str, int]:
    """Counters of one predict call: candidate pairs tried, pairs inside the
    radius, queries with none inside (Euclidean fallback) and queries with
    fewer than k inside."""
    counts = in_radius_counts(model.features, model.eta, queries)
    return {
        "pair_evals": int(counts.size * model.features.shape[0]),
        "in_radius": int(counts.sum()),
        "fallback_queries": int(np.count_nonzero(counts == 0)),
        "short_k_queries": int(np.count_nonzero((counts > 0) & (counts < model.k))),
    }
