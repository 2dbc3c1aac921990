import math

import numpy as np
import pytest

from nsim.errors import DataError, UsageError
from nsim.geometry import (
    CURVE_KINDS,
    SynthConfig,
    curve_point,
    curve_tangent,
    generate,
    link_function,
    make_curve,
    true_link_values,
)

AMBIENT = {"line": 5, "s_curve": 4, "helix": 5}


def sample_params(curve, count, seed=123):
    t0, t1 = curve.param_interval
    return np.random.default_rng(seed).uniform(t0, t1, count)


class TestCurvePoints:
    def test_line_starts_at_origin(self):
        assert np.allclose(curve_point(make_curve("line"), 0.0), np.zeros(3))

    def test_s_curve_junction_point(self):
        # junction of the two arcs at angle 0 of the first circle
        assert np.allclose(curve_point(make_curve("s_curve"), 0.0), [1.0, 0.0])

    def test_helix_start(self):
        assert np.allclose(curve_point(make_curve("helix"), 0.0), [1.0, 0.0, 0.0])

    def test_line_passes_through_unit_corner(self):
        point = curve_point(make_curve("line"), math.sqrt(3.0))
        assert np.allclose(point, [1.0, 1.0, 1.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError, match="outside"):
            curve_point(make_curve("helix"), -0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(UsageError):
            make_curve("parabola")


class TestCurveTangents:
    def test_line_constant_direction(self):
        curve = make_curve("line")
        expected = np.ones(3) / math.sqrt(3.0)
        for t in sample_params(curve, 10):
            assert np.allclose(curve_tangent(curve, t), expected)

    def test_helix_unit_norm(self):
        curve = make_curve("helix")
        tans = curve_tangent(curve, sample_params(curve, 500))
        assert np.allclose(np.linalg.norm(tans, axis=1), 1.0, atol=1e-12)

    def test_s_curve_junction_is_c1(self):
        curve = make_curve("s_curve")
        h = 1e-7
        left = (curve_point(curve, 0.0) - curve_point(curve, -h)) / h
        right = (curve_point(curve, h) - curve_point(curve, 0.0)) / h
        assert np.allclose(left, right, atol=1e-6)
        assert np.allclose(left, [0.0, 1.0], atol=1e-6)

    def test_arc_length_parametrization_all_curves(self):
        h = 1e-6
        for kind in CURVE_KINDS:
            curve = make_curve(kind)
            t0, t1 = curve.param_interval
            ts = np.random.default_rng(9).uniform(t0 + h, t1 - h, 1000)
            speeds = np.linalg.norm(
                (curve_point(curve, ts + h) - curve_point(curve, ts - h)) / (2 * h), axis=1
            )
            assert np.allclose(speeds, 1.0, atol=1e-6), kind


class TestGeodesicDistance:
    def test_line_matches_euclidean(self):
        curve = make_curve("line")
        # unit speed: the arc length |1 - 0| is also the chord
        assert np.isclose(
            np.linalg.norm(curve_point(curve, 1.0) - curve_point(curve, 0.0)), 1.0
        )

    def test_s_curve_end_to_end_exceeds_euclidean(self):
        curve = make_curve("s_curve")
        geo = curve.length  # arc length between the two end points
        euec = np.linalg.norm(
            curve_point(curve, math.pi / 2) - curve_point(curve, -math.pi / 2)
        )
        assert np.isclose(geo, math.pi)
        assert geo > euec  # chord 2*sqrt(2) < pi


class TestLinkFunction:
    def test_endpoints(self):
        assert link_function(0.0, 2.0) == 0.0
        assert link_function(2.0, 2.0) == 1.0

    def test_junction_continuity(self):
        assert link_function(1.0, 2.0) == 0.5

    def test_monotone_on_sampled_pairs(self):
        rng = np.random.default_rng(999)
        pairs = rng.uniform(0.0, 1.0, size=(1000, 2))
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        keep = lo < hi
        assert np.all(link_function(lo[keep], 1.0) < link_function(hi[keep], 1.0))

    def test_c1_junction(self):
        h = 1e-7
        left = (link_function(0.5, 1.0) - link_function(0.5 - h, 1.0)) / h
        right = (link_function(0.5 + h, 1.0) - link_function(0.5, 1.0)) / h
        assert abs(left - right) < 1e-5
        assert abs(left - 2.0) < 1e-5

    def test_range_is_unit_interval(self):
        values = link_function(np.linspace(0, 3, 500), 3.0)
        assert values.min() == 0.0 and values.max() == 1.0


def config_for(kind, **overrides):
    defaults = dict(
        curve=make_curve(kind),
        ambient_dim=AMBIENT[kind],
        n_samples=300,
        seed=42,
        tube_radius=0.25,
        noise_factor=0.0,
    )
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestGenerate:
    def test_noise_free_responses_equal_link_values(self):
        for kind in CURVE_KINDS:
            curve = make_curve(kind)
            dataset, samples = generate(config_for(kind))
            ts = np.array([s.t_true for s in samples])
            assert np.array_equal(dataset.responses, true_link_values(curve, ts))

    def test_zero_tube_radius_puts_samples_on_curve(self):
        dataset, samples = generate(config_for("helix", tube_radius=0.0))
        v = np.stack([s.v_true for s in samples])
        assert np.array_equal(dataset.features, v)

    def test_sample_invariants(self):
        for kind in CURVE_KINDS:
            dataset, samples = generate(config_for(kind, n_samples=500))
            for s in samples:
                assert abs(np.linalg.norm(s.a_true) - 1.0) <= 1e-9
                w = s.x - s.v_true
                assert np.linalg.norm(w) <= 0.25 + 1e-9
                assert abs(w @ s.a_true) <= 1e-9

    def test_embedding_pads_with_zeros(self):
        curve = make_curve("s_curve")
        _, samples = generate(config_for("s_curve"))
        for s in samples[:20]:
            assert np.allclose(s.v_true[:2], curve_point(curve, s.t_true))
            assert np.array_equal(s.v_true[2:], np.zeros(2))

    def test_noise_level_scales_with_response_range(self):
        config = config_for("line", noise_factor=0.1, n_samples=4000, seed=3)
        curve = config.curve
        dataset, samples = generate(config)
        ts = np.array([s.t_true for s in samples])
        clean = true_link_values(curve, ts)
        eps = dataset.responses - clean
        sigma = 0.1 * (clean.max() - clean.min()) / curve.length
        assert np.max(np.abs(eps)) <= sigma
        assert np.max(np.abs(eps)) > 0.8 * sigma  # uniform noise actually spans it

    def test_determinism_bit_for_bit(self):
        a_data, a_samples = generate(config_for("helix", seed=77))
        b_data, b_samples = generate(config_for("helix", seed=77))
        assert np.array_equal(a_data.features, b_data.features)
        assert np.array_equal(a_data.responses, b_data.responses)
        assert all(
            sa.t_true == sb.t_true and np.array_equal(sa.a_true, sb.a_true)
            for sa, sb in zip(a_samples, b_samples)
        )

    def test_different_seeds_differ(self):
        a_data, _ = generate(config_for("helix", seed=1))
        b_data, _ = generate(config_for("helix", seed=2))
        assert not np.array_equal(a_data.features, b_data.features)

    def test_projection_consistency_grid_search(self):
        # tube radius 0.25 is well within the reach of both curved examples:
        # the nearest curve point to each sample is its generating point
        for kind in ("s_curve", "helix"):
            curve = make_curve(kind)
            t0, t1 = curve.param_interval
            grid = np.linspace(t0, t1, 4001)
            grid_pts = curve_point(curve, grid)
            _, samples = generate(config_for(kind, n_samples=40))
            for s in samples:
                x_natural = s.x[: curve.embed_dim]
                nearest = grid[np.argmin(np.linalg.norm(grid_pts - x_natural, axis=1))]
                assert abs(nearest - s.t_true) <= (t1 - t0) / 4000 + 1e-12

    def test_ambient_dim_must_exceed_curve_dim(self):
        with pytest.raises(UsageError, match="ambient_dim"):
            config_for("helix", ambient_dim=3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, True, "0.1"])
    @pytest.mark.parametrize("field", ["tube_radius", "noise_factor"])
    def test_radius_and_noise_factor_must_be_finite_and_nonnegative(self, field, value):
        with pytest.raises(UsageError, match=field):
            config_for("line", **{field: value})

    def test_noise_range_that_overflows_is_a_usage_error(self):
        # 2 * sigma exceeds float max although the factor itself is finite
        with pytest.raises(UsageError, match="noise range"):
            generate(config_for("line", noise_factor=1.7e308))
