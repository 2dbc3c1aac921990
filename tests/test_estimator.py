import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsim import estimator
from nsim.data import Dataset
from nsim.errors import DataError, InfeasibleFitError, UsageError
from nsim.estimator import (
    baseline_knn_many,
    baseline_linreg,
    cross_validate,
    cv_report_to_json,
    fit,
    fit_split,
    linreg_predict,
    model_from_dict,
    model_to_dict,
    model_to_json,
    predict_many,
    two_thirds_k,
)
from nsim.geometry import SynthConfig, generate, make_curve
from nsim.metric import proxy_distances


def synth(kind="line", d=4, n=200, seed=5, c=0.0):
    dataset, samples = generate(
        SynthConfig(make_curve(kind), d, n, seed, tube_radius=0.25, noise_factor=c)
    )
    return dataset, samples


def line_dataset(n=80, seed=2):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0, 2, n)
    features = np.outer(t, np.ones(3) / np.sqrt(3.0)) + rng.normal(scale=0.05, size=(n, 3))
    return Dataset(features, t)


class TestFit:
    def test_single_level_set_matches_global_regression_direction(self):
        data = line_dataset()
        model = fit(data, 1, 1)
        weights, _ = baseline_linreg(data)
        assert np.allclose(
            model.tangents.vectors[0], weights / np.linalg.norm(weights), atol=1e-9
        )

    def test_infeasible_j_names_the_level_set(self):
        data = line_dataset(n=20)
        with pytest.raises(InfeasibleFitError, match=r"J=8: level set \d+ too small"):
            fit(data, 8, 1)

    def test_s_curve_grammian_matches_true_tangent_pattern(self):
        # oracle: the Grammian of the true tangents at the level sets'
        # mean parameters; the fitted Grammian reproduces it entrywise and
        # preserves every comparison where the oracle has a clear margin
        from nsim.geometry import curve_tangent
        from nsim.tangents import grammian

        dataset, samples = synth("s_curve", d=4, n=2000, seed=10)
        model = fit(dataset, 4, 1, eta=0.5)
        t_true = np.array([s.t_true for s in samples])
        curve = make_curve("s_curve")
        true_vectors = np.zeros((4, dataset.d))
        for j, idx in enumerate(model.partition.groups):
            true_vectors[j, :2] = curve_tangent(curve, float(np.mean(t_true[idx])))
        oracle = true_vectors @ true_vectors.T
        fitted = grammian(model.tangents)
        # entrywise bound: tangent bias <= curvature * level-set arc (~0.4)
        # perturbs an inner product by at most twice that; observed ~0.19
        assert np.allclose(fitted, oracle, atol=0.25)
        pairs = [(a, b) for a in range(4) for b in range(4) if a < b]
        for i, j in pairs:
            for p, q in pairs:
                if oracle[i, j] > oracle[p, q] + 0.1:
                    assert fitted[i, j] > fitted[p, q]

    def test_rejects_bad_k_eta_kind(self):
        data = line_dataset()
        with pytest.raises(UsageError):
            fit(data, 1, 0)
        with pytest.raises(UsageError):
            fit(data, 1, 1, eta=-1.0)
        with pytest.raises(UsageError):
            fit(data, 1, 1, partition_kind="random")


class TestPredict:
    def test_k1_at_training_point_returns_its_response(self):
        data = line_dataset()
        model = fit(data, 2, 1)
        assert predict_many(model, data.features[7])[0] == data.responses[7]

    def test_k2_averages_two_nearest(self):
        data = Dataset([[0.0], [1.0], [10.0]], [1.0, 3.0, 50.0])
        model = fit(data, 1, 2)
        assert predict_many(model, np.array([0.4]))[0] == 2.0

    def test_k_equal_n_with_shared_tangent_gives_global_mean(self):
        data = line_dataset()
        model = fit(data, 1, data.n)
        value = predict_many(model, np.array([0.3, 0.3, 0.3]))[0]
        assert np.isclose(value, data.responses.mean(), atol=1e-12)

    def test_noise_free_interpolation_all_training_points(self):
        dataset, _ = synth(n=150)
        model = fit(dataset, 2, 1, eta=0.5)
        preds = predict_many(model, dataset.features)
        assert np.array_equal(preds, dataset.responses)

    def test_prediction_range_containment(self):
        dataset, _ = synth("helix", d=5, n=300, seed=8, c=0.1)
        model = fit(dataset, 4, 3, eta=0.5)
        queries = np.random.default_rng(0).normal(size=(200, 5))
        preds = predict_many(model, queries)
        assert preds.min() >= dataset.responses.min()
        assert preds.max() <= dataset.responses.max()

    def test_sim_equivalence_with_projected_knn(self):
        # J=1, eta=inf: identical outputs to a kNN regressor on the
        # 1-d projected samples, query by query
        dataset, _ = synth(n=160, seed=21)
        queries, _ = synth(n=60, seed=22)
        for k in (1, 3, 7):
            model = fit(dataset, 1, k, eta=math.inf)
            a = model.tangents.vectors[0]
            projected = Dataset((dataset.features @ a)[:, None], dataset.responses)
            expected = baseline_knn_many(projected, (queries.features @ a)[:, None], k)
            got = predict_many(model, queries.features)
            assert np.array_equal(got, expected)

    def test_fallback_uses_euclidean_nearest_when_radius_empty(self):
        data = Dataset([[0.0], [1.0], [5.0]], [1.0, 2.0, 9.0])
        model = fit(data, 1, 1, eta=0.5)
        assert predict_many(model, np.array([100.0]))[0] == 9.0

    def test_fewer_than_k_finite_neighbors_are_averaged(self):
        data = Dataset([[0.0], [0.2], [50.0]], [1.0, 2.0, 100.0])
        model = fit(data, 1, 3, eta=1.0)
        assert predict_many(model, np.array([0.1]))[0] == 1.5

    def test_response_shift_equivariance_equiblock(self):
        dataset, _ = synth(n=120, seed=9, c=0.1)
        queries = np.random.default_rng(1).normal(size=(50, 4)) * 0.5
        base = fit(dataset, 3, 2, eta=0.5, partition_kind="equiblock")
        shifted_data = Dataset(dataset.features, dataset.responses + 13.25)
        shifted = fit(shifted_data, 3, 2, eta=0.5, partition_kind="equiblock")
        for group_a, group_b in zip(base.partition.groups, shifted.partition.groups):
            assert np.array_equal(group_a, group_b)
        assert np.allclose(
            predict_many(shifted, queries), predict_many(base, queries) + 13.25, atol=1e-12
        )


def _int_rows(draw, count, d, lo, hi):
    rows = st.lists(st.integers(lo, hi), min_size=d, max_size=d)
    return np.array(draw(st.lists(rows, min_size=count, max_size=count)), dtype=np.float64)


@st.composite
def tied_problems(draw):
    """Integer grid points with duplicated rows, a model whose signed
    tangents are axis-aligned, and half-integer queries, so every distance
    on both sides is exact and ties are frequent."""
    d = draw(st.integers(1, 3))
    unique = _int_rows(draw, draw(st.integers(1, 8)), d, -2, 2)
    copies = draw(st.lists(st.integers(0, len(unique) - 1), max_size=6))
    features = np.vstack([unique, unique[copies]])
    n = len(features)
    j_count = draw(st.integers(1, 3))
    vectors = np.zeros((j_count, d))
    for j in range(j_count):
        vectors[j, draw(st.integers(0, d - 1))] = draw(st.sampled_from([-1.0, 1.0]))
    eta = draw(st.sampled_from([1.5, 2.5, math.inf]))
    doc = {
        "version": 1,
        "partition_kind": "dyadic",
        "intervals": [[j, j + 1, j == j_count - 1] for j in range(j_count)],
        "tangents": vectors.tolist(),
        "level_means_x": np.zeros((j_count, d)).tolist(),
        "level_means_y": [0.0] * j_count,
        "counts": [0] * j_count,
        "tangent_assignment": draw(
            st.lists(st.integers(0, j_count - 1), min_size=n, max_size=n)
        ),
        "train_features": features.tolist(),
        "train_responses": draw(
            st.lists(st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n)
        ),
        "k": draw(st.integers(1, n + 2)),
        "eta": "inf" if math.isinf(eta) else eta,
    }
    queries = _int_rows(draw, draw(st.integers(1, 8)), d, -8, 8) / 2.0
    # small scratch budgets split the queries over several chunks
    budget = draw(st.sampled_from([1, 7, estimator._CHUNK_BUDGET]))
    return model_from_dict(doc), queries, budget


def brute_force_predictions(model, queries):
    train = model.train
    rows = model.tangents.vectors[model.tangent_assignment]
    out = []
    for x in queries:
        dist = proxy_distances(x, train.features, rows, model.eta)
        in_radius = int(np.isfinite(dist).sum())
        if in_radius == 0:
            picks = np.argsort(((train.features - x) ** 2).sum(axis=1), kind="stable")[:1]
        else:
            picks = np.argsort(dist, kind="stable")[: min(model.k, in_radius)]
        out.append(train.responses[picks].mean())
    return np.array(out)


def brute_force_knn(data, queries, k):
    out = []
    for x in queries:
        eucl = ((data.features - x) ** 2).sum(axis=1)
        out.append(data.responses[np.argsort(eucl, kind="stable")[: min(k, data.n)]].mean())
    return np.array(out)


@given(tied_problems())
@settings(max_examples=200, deadline=None)
def test_neighbour_search_matches_brute_force_with_ties(problem):
    model, queries, budget = problem
    with mock.patch.object(estimator, "_CHUNK_BUDGET", budget):
        got = predict_many(model, queries)
        got_knn = baseline_knn_many(model.train, queries, model.k)
    assert np.array_equal(got, brute_force_predictions(model, queries))
    assert np.array_equal(got_knn, brute_force_knn(model.train, queries, model.k))


class TestFitSplit:
    def test_identical_halves_j1_reproduces_plain_fit(self):
        dataset, _ = synth(n=100, seed=33)
        model = fit(dataset, 1, 3, eta=0.5)
        split = fit_split(dataset, dataset, 1, 3, eta=0.5)
        queries = np.random.default_rng(4).normal(size=(40, 4))
        assert np.allclose(
            predict_many(split, queries), predict_many(model, queries), atol=1e-12
        )

    def test_line_halves_share_the_single_direction(self):
        geometry = line_dataset(n=60, seed=1)
        prediction = line_dataset(n=50, seed=2)
        split = fit_split(geometry, prediction, 1, 1)
        assert np.all(split.tangent_assignment == 0)
        assert split.train is prediction

    def test_tangent_extension_follows_proxy_minimizer(self):
        geometry, _ = synth(n=120, seed=3)
        prediction, _ = synth(n=40, seed=6)
        split = fit_split(geometry, prediction, 2, 1, eta=0.5)
        geo_groups = split.partition.sample_groups()
        rows = split.tangents.vectors[geo_groups]
        for ell in range(prediction.n):
            dist = proxy_distances(prediction.features[ell], geometry.features, rows, 0.5)
            assert split.tangent_assignment[ell] == geo_groups[np.argmin(dist)]

    def test_helix_split_rmse_within_2x_of_unsplit(self):
        from nsim.evaluation import rmse_function
        from nsim.geometry import true_link_values

        curve = make_curve("helix")
        geometry, _ = synth("helix", d=8, n=512, seed=71)
        prediction, _ = synth("helix", d=8, n=512, seed=72)
        both = Dataset(
            np.vstack([geometry.features, prediction.features]),
            np.concatenate([geometry.responses, prediction.responses]),
        )
        test_ds, test_samples = synth("helix", d=8, n=500, seed=73)
        truth = true_link_values(curve, np.array([s.t_true for s in test_samples]))
        j_count, k = 4, 1
        unsplit = fit(both, j_count, k, eta=0.5)
        split = fit_split(geometry, prediction, j_count, k, eta=0.5)
        rmse_unsplit = rmse_function(predict_many(unsplit, test_ds.features), truth)
        rmse_split = rmse_function(predict_many(split, test_ds.features), truth)
        assert rmse_split <= 2.0 * rmse_unsplit

    def test_dimension_mismatch_rejected(self):
        geometry, _ = synth(d=4)
        prediction, _ = synth(d=5)
        with pytest.raises(DataError):
            fit_split(geometry, prediction, 1, 1)


class TestCrossValidate:
    def test_single_pair_report(self):
        dataset, _ = synth(n=60, seed=44)
        report = cross_validate(dataset, [1], 1, folds=2, seed=0)
        assert report.grid == ((1, 1),)
        assert len(report.fold_scores) == 1
        assert report.selected == (1, 1)

    def test_selected_minimizes_mean_score(self):
        dataset, _ = synth(n=240, seed=45)
        report = cross_validate(dataset, [1, 2, 4], 1, eta=0.5, folds=5, seed=3)
        best = min(s for s in report.fold_scores if s is not None)
        assert report.fold_scores[report.grid.index(report.selected)] == best

    def test_seeded_determinism_byte_for_byte(self):
        dataset, _ = synth(n=150, seed=46, c=0.1)
        a = cross_validate(dataset, [1, 2, 4], "two-thirds", eta=0.5, folds=5, seed=11)
        b = cross_validate(dataset, [1, 2, 4], "two-thirds", eta=0.5, folds=5, seed=11)
        assert cv_report_to_json(a) == cv_report_to_json(b)

    def test_two_thirds_rule_k_values(self):
        dataset, _ = synth(n=100, seed=47)
        report = cross_validate(dataset, [1], "two-thirds", folds=4, seed=0)
        assert report.grid[0][1] == two_thirds_k(100) == math.ceil(0.5 * 100 ** (2 / 3))
        assert report.k_rule == "two-thirds"

    def test_infeasible_j_recorded_and_excluded(self):
        dataset, _ = synth(n=60, seed=48)
        report = cross_validate(dataset, [1, 16], 1, folds=3, seed=5)
        assert report.fold_scores[1] is None
        assert {s["fold"] for s in report.skipped} == {0, 1, 2}
        assert all(s["J"] == 16 for s in report.skipped)
        assert report.selected == (1, 1)

    def test_all_pairs_infeasible_raises(self):
        dataset, _ = synth(n=30, seed=49)
        with pytest.raises(InfeasibleFitError, match="all \\(J, k\\) pairs infeasible"):
            cross_validate(dataset, [16, 32], 1, folds=3, seed=5)

    def test_fold_count_validation(self):
        dataset, _ = synth(n=30, seed=50)
        with pytest.raises(UsageError):
            cross_validate(dataset, [1], 1, folds=1, seed=0)
        with pytest.raises(UsageError):
            cross_validate(dataset, [1], 1, folds=31, seed=0)


class TestBaselineKnn:
    def test_k1_at_training_point(self):
        data = line_dataset()
        assert baseline_knn_many(data, data.features[3], 1)[0] == data.responses[3]

    def test_k_equal_n_is_global_mean(self):
        data = line_dataset()
        value = baseline_knn_many(data, np.zeros(3), data.n)[0]
        assert np.isclose(value, data.responses.mean())

    def test_midpoint_tie_takes_lower_index(self):
        data = Dataset([[0.0], [2.0]], [5.0, 9.0])
        assert baseline_knn_many(data, np.array([1.0]), 1)[0] == 5.0

    def test_k_larger_than_n_clamps(self):
        data = Dataset([[0.0], [2.0]], [5.0, 9.0])
        assert baseline_knn_many(data, np.array([0.0]), 10)[0] == 7.0


class TestBaselineLinreg:
    def test_exact_line(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 3))
        y = 2.0 * x[:, 0] + 1.0
        weights, intercept = baseline_linreg(Dataset(x, y))
        assert np.allclose(weights, [2.0, 0.0, 0.0], atol=1e-9)
        assert abs(intercept - 1.0) < 1e-9

    def test_constant_responses(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.normal(size=(30, 2)), np.full(30, 3.5))
        weights, intercept = baseline_linreg(data)
        assert np.allclose(weights, 0.0, atol=1e-12)
        assert intercept == 3.5

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(100)
        x = rng.normal(size=(100, 5))
        y = x @ rng.normal(size=5) + rng.normal(scale=0.3, size=100)
        weights, intercept = baseline_linreg(Dataset(x, y))
        design = np.column_stack([x, np.ones(100)])
        oracle, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert np.allclose(weights, oracle[:5], atol=1e-8)
        assert abs(intercept - oracle[5]) < 1e-8

    def test_predict_helper(self):
        weights, intercept = np.array([1.0, -2.0]), 0.5
        assert np.allclose(
            linreg_predict(weights, intercept, [[1.0, 1.0], [0.0, 0.0]]), [-0.5, 0.5]
        )


class TestSerialization:
    def test_round_trip_reproduces_predictions(self):
        dataset, _ = synth(n=90, seed=55, c=0.1)
        model = fit(dataset, 3, 2, eta=0.5, partition_kind="equiblock")
        restored = model_from_dict(model_to_dict(model))
        queries = np.random.default_rng(6).normal(size=(40, 4))
        assert np.allclose(
            predict_many(restored, queries), predict_many(model, queries), atol=1e-12
        )

    def test_round_trip_through_json_text(self):
        dataset, _ = synth(n=80, seed=56)
        model = fit(dataset, 2, 1, eta=math.inf)
        import json

        restored = model_from_dict(json.loads(model_to_json(model)))
        assert math.isinf(restored.eta)
        queries = np.random.default_rng(7).normal(size=(25, 4))
        assert np.array_equal(predict_many(restored, queries), predict_many(model, queries))

    def test_split_model_round_trip(self):
        geometry, _ = synth(n=100, seed=57)
        prediction, _ = synth(n=100, seed=58)
        model = fit_split(geometry, prediction, 2, 2, eta=0.5)
        restored = model_from_dict(model_to_dict(model))
        assert restored.algorithm == "split"
        queries = np.random.default_rng(8).normal(size=(30, 4))
        assert np.array_equal(predict_many(restored, queries), predict_many(model, queries))

    def test_version_guard(self):
        dataset, _ = synth(n=60, seed=59)
        doc = model_to_dict(fit(dataset, 1, 1))
        doc["version"] = 99
        with pytest.raises(DataError, match="version"):
            model_from_dict(doc)
