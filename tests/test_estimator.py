import json
import math
from dataclasses import fields, is_dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsim import estimator, search
from nsim.data import Dataset
from nsim.errors import DataError, InfeasibleFitError, UsageError
from nsim.estimator import (
    baseline_knn_many,
    baseline_linreg,
    cross_validate,
    cv_report_to_dict,
    fit,
    fit_split,
    linreg_predict,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_many,
    save_model,
    two_thirds_k,
)
from nsim.geometry import SynthConfig, generate, make_curve
from nsim.metric import proxy_distances
from nsim.tangents import TangentField


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
        bad = [
            (1, 0, {}),
            (1, 2.7, {}),  # not truncated to k = 2
            (1, True, {}),  # not taken as k = 1
            (2.5, 1, {}),  # not a TypeError from slicing
            (0, 1, {}),
            (1, 1, {"eta": -1.0}),
            (1, 1, {"partition_kind": "random"}),
        ]
        for j_count, k, kwargs in bad:
            with pytest.raises(UsageError):
                fit(data, j_count, k, **kwargs)


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

    def test_neighbour_average_that_overflows_is_a_data_error(self):
        # 40 responses of about 5e306 sum past float max; the fit itself
        # copes with them, and fewer neighbours still average finitely
        rng = np.random.default_rng(0)
        features = rng.normal(size=(400, 3))
        data = Dataset(features, features[:, 0] * 1e306 + 5e306)
        model = fit(data, 2, 1)
        assert np.all(np.isfinite(predict_many(model, features[:5], [1, 20])))
        with pytest.raises(DataError, match="non-finite neighbour average"):
            predict_many(model, features[:5], 40)
        with pytest.raises(DataError, match="non-finite neighbour average"):
            baseline_knn_many(data, features[:5], 40)

    def test_partial_sums_overflowing_both_ways_are_a_data_error(self):
        # numpy sums 16 terms in 8 lanes: lane 0 reaches +inf, lane 1 -inf
        huge = [1.7e308, -1.7e308] + [0.0] * 6
        data = Dataset(np.arange(16.0)[:, None], huge + huge)
        with pytest.raises(DataError, match="non-finite neighbour average"):
            baseline_knn_many(data, [[-100.0]], 16)

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


def _axis_model(draw, features, responses, k, eta):
    """A model on ``features`` whose signed tangents are axis-aligned, with
    a drawn tangent assignment, so proxy distances between grid points are
    exact."""
    n, d = features.shape
    j_count = draw(st.integers(1, 3))
    vectors = np.zeros((j_count, d))
    for j in range(j_count):
        vectors[j, draw(st.integers(0, d - 1))] = draw(st.sampled_from([-1.0, 1.0]))
    assignment = draw(st.lists(st.integers(0, j_count - 1), min_size=n, max_size=n))
    doc = {
        "version": 1,
        "partition_kind": "dyadic",
        "intervals": [[j, j + 1, j == j_count - 1] for j in range(j_count)],
        "tangents": vectors.tolist(),
        "level_means_x": np.zeros((j_count, d)).tolist(),
        "level_means_y": [0.0] * j_count,
        "counts": np.bincount(assignment, minlength=j_count).tolist(),
        "tangent_assignment": assignment,
        "train_features": features.tolist(),
        "train_responses": list(responses),
        "k": k,
        "eta": "inf" if math.isinf(eta) else eta,
    }
    return model_from_dict(doc)


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
    responses = draw(st.lists(st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n))
    model = _axis_model(
        draw, features, responses, draw(st.integers(1, n + 2)),
        draw(st.sampled_from([1.5, 2.5, math.inf])),
    )
    queries = _int_rows(draw, draw(st.integers(1, 8)), d, -8, 8) / 2.0
    # small scratch budgets split the queries over several chunks
    budget = draw(st.sampled_from([1, 7, search._CHUNK_BUDGET]))
    return model, queries, budget


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


@st.composite
def averaging_problems(draw):
    """Integer grid points (9 to 30 rows, duplicates included) with float
    responses of mixed magnitude, a radius from {0.25, 0.5, inf} and a k
    grid reaching 9 and past N: numpy sums eight or more terms pairwise,
    so the last bits of an average depend on how its terms are gathered."""
    d = draw(st.integers(1, 3))
    unique = _int_rows(draw, draw(st.integers(3, 12)), d, -2, 2)
    copies = draw(st.lists(st.integers(0, len(unique) - 1), min_size=6, max_size=18))
    features = np.vstack([unique, unique[copies]])
    n = len(features)
    magnitudes = st.sampled_from([1e-3, 1.0, 1e8])
    responses = [
        draw(st.floats(-1.0, 1.0, allow_nan=False)) * draw(magnitudes) for _ in range(n)
    ]
    eta = draw(st.sampled_from([0.25, 0.5, math.inf]))
    model = _axis_model(draw, features, responses, 1, eta)
    queries = _int_rows(draw, draw(st.integers(1, 8)), d, -8, 8) / 2.0
    grid = draw(st.lists(st.integers(1, n + 3), max_size=3))
    grid += [draw(st.integers(9, n)), n + draw(st.integers(1, 3))]
    grid = draw(st.permutations(grid))
    budget = draw(st.sampled_from([1, 7, search._CHUNK_BUDGET]))
    return model, queries, budget, grid


@given(averaging_problems())
@settings(max_examples=200, deadline=None)
def test_k_grid_averages_equal_per_query_means_bit_for_bit(problem):
    model, queries, budget, grid = problem
    with mock.patch.object(search, "_CHUNK_BUDGET", budget):
        got = predict_many(model, queries, grid)
        got_knn = baseline_knn_many(model.train, queries, grid)
    for row, row_knn, k in zip(got, got_knn, grid):
        assert np.array_equal(row, brute_force_predictions(replace(model, k=k), queries))
        assert np.array_equal(row_knn, brute_force_knn(model.train, queries, k))


@given(tied_problems())
@settings(max_examples=200, deadline=None)
def test_neighbour_search_matches_brute_force_with_ties(problem):
    model, queries, budget = problem
    with mock.patch.object(search, "_CHUNK_BUDGET", budget):
        got = predict_many(model, queries)
        got_knn = baseline_knn_many(model.train, queries, model.k)
    assert np.array_equal(got, brute_force_predictions(model, queries))
    assert np.array_equal(got_knn, brute_force_knn(model.train, queries, model.k))


def walk_the_index():
    """Send every proxy search at a finite eta through the sorted-offset
    index, as every one at eta infinite goes, and let no query leave it for
    the loop on window size."""
    return mock.patch.object(search, "_walk_rows", lambda k_max, n: n)


@given(averaging_problems())
@settings(max_examples=200, deadline=None)
def test_k_grid_averages_through_the_index_equal_per_query_means(problem):
    with walk_the_index():
        test_k_grid_averages_equal_per_query_means_bit_for_bit.hypothesis.inner_test(problem)


@given(tied_problems())
@settings(max_examples=200, deadline=None)
def test_index_search_matches_brute_force_with_ties(problem):
    with walk_the_index():
        test_neighbour_search_matches_brute_force_with_ties.hypothesis.inner_test(problem)


@st.composite
def grid_problems(draw):
    """A tied problem with its radius redrawn (0.25 sends most half-integer
    queries to the Euclidean fallback, 1.5 leaves many short of k) and a k
    grid, unordered and with repeats, that can reach past N."""
    model, queries, budget = draw(tied_problems())
    eta = draw(st.sampled_from([0.25, 1.5, math.inf]))
    grid = draw(st.lists(st.integers(1, model.train.n + 3), min_size=1, max_size=5))
    return replace(model, eta=eta), queries, budget, grid


def ranked_once(call, *args):
    """``call(*args)`` and the largest k of its one ``neighbour_means`` call."""
    with mock.patch.object(
        estimator, "neighbour_means", wraps=estimator.neighbour_means
    ) as ranked:
        out = call(*args)
    assert ranked.call_count == 1
    return out, max(ranked.call_args.args[3])


@given(grid_problems())
@settings(max_examples=200, deadline=None)
def test_predict_k_grid_rows_match_single_k_calls(problem):
    model, queries, budget, grid = problem
    with mock.patch.object(search, "_CHUNK_BUDGET", budget):
        got, ranked_k = ranked_once(predict_many, model, queries, grid)
        assert ranked_k == max(grid)
        assert got.shape == (len(grid), len(queries))
        for row, k in zip(got, grid):
            assert np.array_equal(row, predict_many(replace(model, k=k), queries))
            assert np.array_equal(row, predict_many(model, queries, k))


@given(grid_problems())
@settings(max_examples=200, deadline=None)
def test_baseline_k_grid_rows_match_single_k_calls(problem):
    model, queries, budget, grid = problem
    with mock.patch.object(search, "_CHUNK_BUDGET", budget):
        got, ranked_k = ranked_once(baseline_knn_many, model.train, queries, grid)
        assert ranked_k == min(max(grid), model.train.n)
        assert got.shape == (len(grid), len(queries))
        for row, k in zip(got, grid):
            assert np.array_equal(row, baseline_knn_many(model.train, queries, k))


@pytest.mark.parametrize(
    "k", [[], [0], [2, 0], [True], [1.5], 0, 2.5, True, "4", np.array(3), np.ones((2, 2), int)]
)
def test_bad_k_grid_is_a_usage_error(k):
    data = line_dataset()
    model = fit(data, 2, 3)
    with pytest.raises(UsageError):
        predict_many(model, data.features[:4], k)
    with pytest.raises(UsageError):
        baseline_knn_many(data, data.features[:4], k)


@st.composite
def split_problems(draw):
    """Integer geometry rows with duplicates and half-integer prediction rows
    reaching past the geometry's range, so exact ties, in-radius boundary
    cases and Euclidean fallbacks all occur."""
    d = draw(st.integers(1, 3))
    unique = _int_rows(draw, draw(st.integers(1, 8)), d, -2, 2)
    copies = draw(st.lists(st.integers(0, len(unique) - 1), max_size=6))
    geo_features = np.vstack([unique, unique[copies]])
    n_geo = len(geo_features)
    geometry = Dataset(
        geo_features,
        draw(st.lists(st.integers(-3, 3), min_size=n_geo, max_size=n_geo)),
    )
    n_pred = draw(st.integers(1, 10))
    prediction = Dataset(_int_rows(draw, n_pred, d, -8, 8) / 2.0, np.zeros(n_pred))
    j_count = draw(st.integers(1, min(3, n_geo)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=j_count, max_size=j_count))
    axes = draw(st.lists(st.integers(0, d - 1), min_size=j_count, max_size=j_count))
    vectors = np.zeros((j_count, d))
    vectors[np.arange(j_count), axes] = signs
    eta = draw(st.sampled_from([0.5, 1.0, 1.5, math.inf]))
    # scratch budgets of one to three query rows per chunk
    budget = draw(st.sampled_from([1, 2, 3])) * n_geo
    return geometry, prediction, j_count, vectors, eta, budget


def brute_force_split_assignment(geometry, prediction, split):
    geo_groups = split.partition.member
    rows = split.tangents.vectors[geo_groups]
    out = []
    for x in prediction.features:
        dist = proxy_distances(x, geometry.features, rows, split.eta)
        if np.isfinite(dist).any():
            nearest = np.argmin(dist)  # first minimum: lowest index on ties
        else:
            nearest = np.argmin(((geometry.features - x) ** 2).sum(axis=1))
        out.append(geo_groups[nearest])
    return np.array(out)


@given(split_problems())
@settings(max_examples=200, deadline=None)
def test_split_assignment_matches_brute_force_with_ties(problem):
    geometry, prediction, j_count, vectors, eta, budget = problem

    # Axis-aligned signed tangents in place of fitted ones keep every
    # distance exact on both sides, so ties are real ties.
    def axis_tangents(data, partition, rank_tol=None):
        zeros = np.zeros(j_count)
        counts = np.array([len(g) for g in partition.groups])
        return TangentField(vectors, np.zeros_like(vectors), zeros, counts)

    with (
        mock.patch.object(estimator, "fit_tangents", axis_tangents),
        mock.patch.object(search, "_CHUNK_BUDGET", budget),
    ):
        split = fit_split(geometry, prediction, j_count, 1, eta, "equiblock")
    assert np.array_equal(
        split.tangent_assignment, brute_force_split_assignment(geometry, prediction, split)
    )


@given(split_problems())
@settings(max_examples=200, deadline=None)
def test_split_assignment_through_the_index_matches_brute_force_with_ties(problem):
    with walk_the_index():
        test_split_assignment_matches_brute_force_with_ties.hypothesis.inner_test(problem)


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
        geo_groups = split.partition.member
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

    def test_fractional_k_rejected(self):
        geometry = line_dataset(n=60, seed=1)
        with pytest.raises(UsageError):
            fit_split(geometry, line_dataset(n=50, seed=2), 1, 2.7)


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
        assert json.dumps(cv_report_to_dict(a)) == json.dumps(cv_report_to_dict(b))

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


    @staticmethod
    def per_k_reference(data, j_grid, k_grid, **kwargs):
        """One single-k ``cross_validate`` per k; an earlier k keeps a tie."""
        best, scores, skipped = None, {}, []
        for k in k_grid:
            report = cross_validate(data, j_grid, k, **kwargs)
            scores.update(zip(report.grid, report.fold_scores))
            skipped.extend(report.skipped)
            score = report.fold_scores[report.grid.index(report.selected)]
            if best is None or score < best[0]:
                best = (score, report.selected)
        return best[1], scores, skipped

    @pytest.mark.parametrize(
        "n, j_grid, k_grid, eta",
        [
            (60, [1, 2, 16], [3, 1, 8], math.inf),  # J=16 is infeasible on every fold
            (90, [2, 1, 4], [4, 1, 2], 1e-9),  # every validation query falls back
        ],
    )
    def test_k_grid_matches_one_call_per_k(self, n, j_grid, k_grid, eta):
        dataset, _ = synth(n=n, seed=51, c=0.1)
        kwargs = dict(eta=eta, folds=3, seed=5)
        report = cross_validate(dataset, j_grid, k_grid, **kwargs)
        selected, scores, skipped = self.per_k_reference(dataset, j_grid, k_grid, **kwargs)
        assert report.grid == tuple(scores) == tuple((j, k) for k in k_grid for j in j_grid)
        assert report.fold_scores == tuple(scores.values())
        assert list(report.skipped) == skipped
        assert report.selected == selected
        if eta < 1.0:
            assert len(set(report.fold_scores)) == 1
            assert report.selected == (j_grid[0], k_grid[0])

    def test_k_grid_fits_each_j_and_fold_once(self, monkeypatch):
        dataset, _ = synth(n=90, seed=52, c=0.1)
        calls = {"fit": 0, "predict_many": 0}

        def counted(name):
            original = getattr(estimator, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(estimator, name, counted(name))
        report = cross_validate(dataset, [1, 2], [1, 3, 5], folds=3, seed=7)
        # one predict_many per (J, fold) scores the whole k grid
        assert calls == {"fit": 2 * 3, "predict_many": 2 * 3}
        assert len(report.grid) == 6

    @pytest.mark.parametrize("k_rule", [[], [0], [True], [1.5], "three", 0, True, 2.0])
    def test_bad_k_rule_is_a_usage_error(self, k_rule):
        dataset, _ = synth(n=30, seed=53)
        with pytest.raises(UsageError):
            cross_validate(dataset, [1], k_rule, folds=3, seed=0)

    @pytest.mark.parametrize("j_grid", [[2.5], [2.5, 4], [0], [True], []])
    def test_bad_j_grid_is_a_usage_error(self, j_grid):
        dataset, _ = synth(n=30, seed=53)
        with pytest.raises(UsageError):
            cross_validate(dataset, j_grid, 1, folds=3, seed=0)

    def test_unknown_partition_kind_is_a_usage_error_before_any_subset(self):
        dataset, _ = synth(n=30, seed=53)
        with mock.patch.object(Dataset, "subset", side_effect=AssertionError) as subset:
            with pytest.raises(UsageError, match="unknown partition kind 'bogus'") as info:
                cross_validate(dataset, [1, 2], 3, folds=3, seed=1, partition_kind="bogus")
        assert not str(info.value).startswith("J=")
        assert subset.call_count == 0

    @pytest.mark.parametrize(
        "options",
        [{"folds": 2.5}, {"folds": True}, {"seed": -1}, {"seed": True}, {"seed": 1.5}],
        ids=["folds=2.5", "folds=True", "seed=-1", "seed=True", "seed=1.5"],
    )
    def test_bad_folds_or_seed_is_a_usage_error(self, options):
        dataset, _ = synth(n=30, seed=53)
        kwargs = {"folds": 3, "seed": 0, **options}
        with pytest.raises(UsageError):
            cross_validate(dataset, [1], 1, **kwargs)


class TestRowNormBound:
    """Rows whose squared norm exceeds max_float / 8 are rejected, so the
    expanded squared distances cannot overflow."""

    def test_predict_many(self):
        data = line_dataset()
        model = fit(data, 2, 3, eta=0.5)
        with pytest.raises(DataError, match="squared norm"):
            predict_many(model, np.full((2, 3), 1e160))
        assert np.all(np.isfinite(predict_many(model, np.full((2, 3), 1e150))))

    def test_baseline_knn_many(self):
        data = line_dataset()
        with pytest.raises(DataError, match="squared norm"):
            baseline_knn_many(data, np.array([0.0, -1e160, 0.0]), 3)
        assert np.isfinite(baseline_knn_many(data, np.array([0.0, -1e150, 0.0]), 3)[0])

    def test_dataset(self):
        with pytest.raises(DataError, match="features row 1"):
            Dataset([[0.0, 1.0], [1e160, 0.0]], [1.0, 2.0])
        assert Dataset([[0.0, 1.0], [1e150, 0.0]], [1.0, 2.0]).n == 2


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

    @pytest.mark.parametrize("k", [0, 2.7, True])
    def test_k_must_be_a_positive_integer(self, k):
        data = line_dataset()
        with pytest.raises(UsageError):
            baseline_knn_many(data, data.features[:2], k)


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

    def test_moments_that_overflow_are_a_data_error(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(300, 3))
        with pytest.raises(DataError, match="non-finite least-squares fit"):
            baseline_linreg(Dataset(x, 1e306 * x[:, 0] + 5e306))

    def test_responses_near_float_max_take_the_fits_moments(self):
        # the responses' plain sum overflows; the fit's scaled mean does not
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 3))
        w = np.array([1.0, -0.5, 0.25])
        data = Dataset(x, x @ w * 1e305 + 1e307)
        fit(data, 1, 1)
        weights, intercept = baseline_linreg(data)
        small_weights, small_intercept = baseline_linreg(Dataset(x, x @ w * 1e5 + 1e7))
        assert np.allclose(weights, small_weights * 1e300, rtol=1e-9, atol=0)
        assert intercept == pytest.approx(small_intercept * 1e300, rel=1e-9)

    def test_predict_helper(self):
        weights, intercept = np.array([1.0, -2.0]), 0.5
        assert np.allclose(
            linreg_predict(weights, intercept, [[1.0, 1.0], [0.0, 0.0]]), [-0.5, 0.5]
        )


def assert_same_fields(mine, theirs, skip=()):
    """Every field of two dataclasses equal, arrays and tuples of arrays
    entry by entry, nested dataclasses field by field; fields named in
    ``skip`` are left out at every level."""
    for field in fields(theirs):
        if field.name in skip:
            continue
        a, b = getattr(mine, field.name), getattr(theirs, field.name)
        if is_dataclass(b):
            assert_same_fields(a, b, skip)
        elif isinstance(b, np.ndarray):
            assert np.array_equal(a, b), field.name
        elif isinstance(b, tuple) and b and isinstance(b[0], np.ndarray):
            assert len(a) == len(b), field.name
            assert all(np.array_equal(p, q) for p, q in zip(a, b)), field.name
        else:
            assert a == b, field.name


class TestSerialization:
    def test_round_trip_reproduces_predictions(self):
        dataset, _ = synth(n=90, seed=55, c=0.1)
        model = fit(dataset, 3, 2, eta=0.5, partition_kind="equiblock")
        restored = model_from_dict(model_to_dict(model))
        queries = np.random.default_rng(6).normal(size=(40, 4))
        assert np.array_equal(predict_many(restored, queries), predict_many(model, queries))

    def test_round_trip_through_json_text(self):
        dataset, _ = synth(n=80, seed=56)
        model = fit(dataset, 2, 1, eta=math.inf)
        restored = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
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

    @given(
        kind=st.sampled_from(["dyadic", "equiblock"]),
        j_count=st.integers(1, 5),
        n=st.integers(12, 60),
        decimals=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_json_round_trip_restores_every_field(self, kind, j_count, n, decimals, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2 * n, 3))
        # rounded responses: runs of equal values inside and across level sets
        data = Dataset(x, np.round(x[:, 0] + 0.5 * x[:, 1], decimals))
        geometry, prediction = data.subset(np.arange(n)), data.subset(np.arange(n, 2 * n))
        try:
            plain = fit(data, j_count, 3, eta=0.5, partition_kind=kind)
            split = fit_split(geometry, prediction, j_count, 2, eta=math.inf, partition_kind=kind)
        except InfeasibleFitError:
            assume(False)
        for model, skip in ((plain, ()), (split, ("groups", "member"))):
            restored = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
            # a loaded split model's groups and members index the prediction
            # half, the fitted one's the geometry half
            assert_same_fields(restored, model, skip)

    @pytest.mark.parametrize("kind", ["dyadic", "equiblock"])
    def test_saved_model_reloads_its_groups(self, tmp_path, kind):
        smooth, _ = synth(n=300, seed=61, c=0.1)
        prediction, _ = synth(n=200, seed=62, c=0.1)
        # responses on a coarse grid: runs of equal responses in every group
        tied = Dataset(smooth.features, np.round(smooth.responses, 2))
        for geometry in (smooth, tied):
            plain = fit(geometry, 7, 2, eta=0.5, partition_kind=kind)
            split = fit_split(geometry, prediction, 7, 2, eta=0.5, partition_kind=kind)
            # a loaded model lists each group as the fit did; a split model's
            # groups index the prediction half it keeps, in ascending order
            split_groups = [np.flatnonzero(split.tangent_assignment == j) for j in range(7)]
            for model, groups in ((plain, plain.partition.groups), (split, split_groups)):
                save_model(tmp_path / "model.json", model)
                restored = load_model(tmp_path / "model.json").partition.groups
                assert len(restored) == len(groups)
                for mine, expected in zip(restored, groups):
                    assert mine.dtype == np.intp and np.array_equal(mine, expected)

    def test_indented_model_file_loads_and_predicts_bit_identically(self, tmp_path):
        model = fit(synth(n=120, seed=60, c=0.1)[0], 3, 2, eta=0.5)
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        save_model(compact, model)
        # the layout of model files written before the writer became compact
        old_text = json.dumps(model_to_dict(model), indent=2, sort_keys=True, allow_nan=False)
        indented.write_text(old_text + "\n", encoding="utf-8")
        assert compact.read_text(encoding="utf-8").count("\n") == 1
        assert json.loads(compact.read_text(encoding="utf-8")) == json.loads(old_text)
        queries = np.random.default_rng(9).normal(size=(40, 4))
        expected = predict_many(model, queries).tobytes()
        assert predict_many(load_model(compact), queries).tobytes() == expected
        assert predict_many(load_model(indented), queries).tobytes() == expected

    def test_version_guard(self):
        dataset, _ = synth(n=60, seed=59)
        doc = model_to_dict(fit(dataset, 1, 1))
        doc["version"] = 99
        with pytest.raises(DataError, match="version"):
            model_from_dict(doc)
