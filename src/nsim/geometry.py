"""Synthetic curve problems: unit-speed curves, tubular feature noise, a
monotone link function, and the tangent oracle used for evaluation.

All three curves are arc-length parametrized, so the geodesic distance
between curve points is plainly |t1 - t2|:

* ``line``    segment from the origin to (1, 1, 1), i.e. direction
              (1,1,1)/sqrt(3) over t in [0, sqrt(3)];
* ``s_curve`` two unit circular arcs joined C^1 at (1, 0) over
              t in [-pi/2, pi/2];
* ``helix``   (cos(t/sqrt(2)), sin(t/sqrt(2)), t/sqrt(2)) over t in [0, 2*pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _MAX_ROW_SQ_NORM, Dataset, check_count
from .errors import DataError, UsageError

CURVE_KINDS = ("line", "s_curve", "helix")

_SQRT3 = math.sqrt(3.0)
_SQRT2 = math.sqrt(2.0)

_PARAM_INTERVALS = {
    "line": (0.0, _SQRT3),
    "s_curve": (-math.pi / 2.0, math.pi / 2.0),
    "helix": (0.0, 2.0 * math.pi),
}
_EMBED_DIMS = {"line": 3, "s_curve": 2, "helix": 3}


@dataclass(frozen=True)
class ParametricCurve:
    """Arc-length parametrized curve with point/tangent/geodesic evaluation."""

    kind: str

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise UsageError(f"unknown curve kind {self.kind!r}; expected one of {CURVE_KINDS}")

    @property
    def param_interval(self) -> tuple[float, float]:
        return _PARAM_INTERVALS[self.kind]

    @property
    def length(self) -> float:
        t0, t1 = self.param_interval
        return t1 - t0

    @property
    def embed_dim(self) -> int:
        return _EMBED_DIMS[self.kind]


def make_curve(kind: str) -> ParametricCurve:
    return ParametricCurve(kind)


def _check_param(curve: ParametricCurve, t) -> np.ndarray:
    arr = np.asarray(t, dtype=np.float64)
    t0, t1 = curve.param_interval
    if np.any(arr < t0) or np.any(arr > t1):
        raise DataError(f"parameter outside [{t0}, {t1}] for curve {curve.kind!r}")
    return arr


def curve_point(curve: ParametricCurve, t) -> np.ndarray:
    """Point in the curve's natural embedding; accepts scalar or array t."""
    arr = _check_param(curve, t)
    ts = np.atleast_1d(arr)
    if curve.kind == "line":
        pts = np.outer(ts, np.full(3, 1.0 / _SQRT3))
    elif curve.kind == "s_curve":
        x = np.where(ts <= 0.0, np.cos(ts), 2.0 - np.cos(ts))
        pts = np.stack([x, np.sin(ts)], axis=1)
    else:
        u = ts / _SQRT2
        pts = np.stack([np.cos(u), np.sin(u), u], axis=1)
    return pts[0] if arr.ndim == 0 else pts


def curve_tangent(curve: ParametricCurve, t) -> np.ndarray:
    """Unit tangent, analytically differentiated per curve kind."""
    arr = _check_param(curve, t)
    ts = np.atleast_1d(arr)
    if curve.kind == "line":
        tans = np.tile(np.full(3, 1.0 / _SQRT3), (ts.size, 1))
    elif curve.kind == "s_curve":
        x = np.where(ts <= 0.0, -np.sin(ts), np.sin(ts))
        tans = np.stack([x, np.cos(ts)], axis=1)
    else:
        u = ts / _SQRT2
        tans = np.stack([-np.sin(u), np.cos(u), np.ones_like(u)], axis=1) / _SQRT2
    return tans[0] if arr.ndim == 0 else tans


def link_function(t, interval_length: float):
    """Strictly increasing piecewise-quadratic link on [0, L] with range [0, 1].

    With s = t/L: 2*s^2 below the midpoint, 1 - 2*(1-s)^2 above; continuous
    and C^1 at the junction.
    """
    s = np.asarray(t, dtype=np.float64) / float(interval_length)
    g = np.where(s <= 0.5, 2.0 * s * s, 1.0 - 2.0 * (1.0 - s) * (1.0 - s))
    return float(g) if g.ndim == 0 else g


def _check_nonnegative(value, name: str) -> None:
    """Raise ``UsageError`` unless ``value`` is a finite number >= 0."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (number and math.isfinite(value) and value >= 0):
        raise UsageError(f"{name} must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class SynthConfig:
    """Generator configuration; ambient_dim must exceed the curve's natural
    embedding dimension."""

    curve: ParametricCurve
    ambient_dim: int
    n_samples: int
    seed: int
    tube_radius: float = 0.25
    noise_factor: float = 0.0

    def __post_init__(self):
        if self.ambient_dim <= self.curve.embed_dim:
            raise UsageError(
                f"ambient_dim must exceed {self.curve.embed_dim} for {self.curve.kind!r}, "
                f"got {self.ambient_dim}"
            )
        _check_nonnegative(self.tube_radius, "tube_radius")
        # Curve points have norm below 5, so rows stay within the norm bound
        # of ``Dataset`` while (radius + 5)^2 does.
        if not self.tube_radius + 5.0 < math.sqrt(_MAX_ROW_SQ_NORM):
            raise UsageError(
                f"tube_radius {self.tube_radius!r} would put feature rows past the squared "
                f"norm bound {_MAX_ROW_SQ_NORM:.3g}"
            )
        _check_nonnegative(self.noise_factor, "noise_factor")
        check_count(self.n_samples, "n_samples")


@dataclass(frozen=True)
class SynthSample:
    """One generated sample with its ground truth: arc-length parameter,
    curve point, and unit tangent (all in ambient coordinates)."""

    x: np.ndarray
    y: float
    t_true: float
    v_true: np.ndarray
    a_true: np.ndarray


def _embed(points: np.ndarray, ambient_dim: int) -> np.ndarray:
    out = np.zeros((points.shape[0], ambient_dim))
    out[:, : points.shape[1]] = points
    return out


def _normal_noise(tangents: np.ndarray, radial: np.ndarray) -> np.ndarray:
    """Map each (D-1)-vector into the tangent's normal space.

    Uses the Householder reflection sending the tangent to +-e_0: its last
    D-1 columns are a deterministic orthonormal basis of the normal space,
    applied here without materializing the matrix.
    """
    n, d = tangents.shape
    w = np.zeros((n, d))
    w[:, 1:] = radial
    v = tangents.copy()
    v[:, 0] += np.where(tangents[:, 0] >= 0.0, 1.0, -1.0)
    coef = 2.0 * np.einsum("nd,nd->n", w, v) / np.einsum("nd,nd->n", v, v)
    return w - coef[:, None] * v


def generate(config: SynthConfig) -> tuple[Dataset, list[SynthSample]]:
    """Draw n samples X = V + F(V) U with Y = g(t) + eps.

    t is uniform on the parameter interval, U uniform on the (D-1)-ball of
    the tube radius (exact radial CDF, no rejection), and eps uniform on
    [-sigma, sigma] with sigma = noise_factor * (max f - min f) / |I|.
    """
    curve = config.curve
    d = config.ambient_dim
    n = config.n_samples
    t0, t1 = curve.param_interval
    rng = np.random.default_rng(config.seed)

    ts = rng.uniform(t0, t1, n)
    v = _embed(curve_point(curve, ts), d)
    a = _embed(curve_tangent(curve, ts), d)

    direction = rng.standard_normal((n, d - 1))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    degenerate = norms[:, 0] == 0.0  # probability zero, but keep the draw total
    direction[degenerate] = 0.0
    direction[degenerate, 0] = 1.0
    norms[degenerate] = 1.0
    direction /= norms
    radii = config.tube_radius * rng.uniform(0.0, 1.0, n) ** (1.0 / (d - 1))
    x = v + _normal_noise(a, direction * radii[:, None])

    f_vals = link_function(ts - t0, curve.length)
    delta_f = (f_vals.max() - f_vals.min()) / curve.length
    sigma = config.noise_factor * delta_f
    if sigma > np.finfo(np.float64).max / 2:  # the noise interval is 2 sigma wide
        raise UsageError(f"noise_factor {config.noise_factor} overflows the noise range")
    y = f_vals + rng.uniform(-sigma, sigma, n)

    dataset = Dataset(x, y)
    samples = [
        SynthSample(x=x[i], y=float(y[i]), t_true=float(ts[i]), v_true=v[i], a_true=a[i])
        for i in range(n)
    ]
    return dataset, samples


def true_link_values(curve: ParametricCurve, ts) -> np.ndarray:
    """Noise-free response g(t) for evaluation against predictions."""
    t0, _ = curve.param_interval
    return np.asarray(link_function(np.asarray(ts, dtype=np.float64) - t0, curve.length))
