import json
import math
from dataclasses import astuple

import numpy as np
import pytest

from nsim import evaluation
from nsim.errors import DataError, UsageError
from nsim.evaluation import (
    decay_slope,
    real_benchmark,
    rmse_function,
    rmse_tangent,
    run_schedule,
    schedule_csv_rows,
    schedule_summary,
    split_csv_rows,
)
from nsim.geometry import SynthConfig, generate, make_curve


class TestRmseFunction:
    def test_zero_when_equal(self):
        assert rmse_function([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_zero_predictions_collapse_to_one(self):
        assert np.isclose(rmse_function([0.0, 0.0], [3.0, 4.0]), 1.0)

    def test_hand_arithmetic(self):
        assert np.isclose(rmse_function([3.0, 3.0], [3.0, 4.0]), 0.2)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        preds, truths = rng.normal(size=40), rng.normal(size=40)
        base = rmse_function(preds, truths)
        assert np.isclose(rmse_function(preds * 7.5, truths * 7.5), base)

    def test_all_zero_truths_rejected(self):
        with pytest.raises(DataError, match="relative RMSE"):
            rmse_function([1.0], [0.0])

    def test_responses_near_float_max_keep_the_ratio(self):
        # the plain squared sums overflow; the ratio does not
        rng = np.random.default_rng(0)
        truths = 1e306 * rng.normal(size=300) + 5e306
        assert rmse_function(0.5 * truths, truths) == pytest.approx(0.5, rel=1e-12)
        assert rmse_function(truths, truths) == 0.0

    def test_tiny_truths_are_not_taken_for_zero(self):
        assert rmse_function([1e-200, 0.0], [2e-200, 1e-200]) == pytest.approx(
            math.sqrt(2.0 / 5.0), rel=1e-12
        )

    def test_errors_far_above_tiny_truths_keep_a_finite_ratio(self):
        # the squared error of the truths divided by their max overflows; the ratio does not
        truth = 2.6745302977060815e-182
        assert rmse_function([1.0, 0.5], [truth, 0.0]) == pytest.approx(
            math.sqrt(1.25) / truth, rel=1e-12
        )
        assert rmse_function([1.7e308, 0.0], [-1.7e308, 1.0]) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("preds, truths", [([1e300], [1e-300]), ([1.7e308], [-5e-324])])
    def test_a_ratio_past_float_max_is_a_data_error(self, preds, truths):
        with pytest.raises(DataError, match="relative RMSE overflows"):
            rmse_function(preds, truths)

    def test_finite_sums_give_the_plain_formula_bit_for_bit(self):
        rng = np.random.default_rng(13)
        preds, truths = rng.normal(size=40) * 1e150, rng.normal(size=40) * 1e150
        plain = math.sqrt(float(np.sum((preds - truths) ** 2)) / float(np.sum(truths**2)))
        assert rmse_function(preds, truths) == plain


class TestRmseTangent:
    def test_zero_when_equal(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert rmse_tangent(vectors, vectors) == 0.0

    def test_orthogonal_unit_vectors(self):
        assert np.isclose(rmse_tangent([[1.0, 0.0]], [[0.0, 1.0]]), math.sqrt(2.0))

    def test_antipodal_unit_vectors(self):
        assert rmse_tangent([[1.0, 0.0]], [[-1.0, 0.0]]) == 2.0

    def test_bounded_by_two_for_unit_vectors(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        assert 0.0 <= rmse_tangent(a, b) <= 2.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            rmse_tangent([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])


class TestDecaySlope:
    def test_exact_inverse_law(self):
        ns = np.array([10, 20, 40, 80, 160])
        assert abs(decay_slope(ns, 1.0 / ns) + 1.0) < 1e-9

    def test_constant_errors(self):
        assert abs(decay_slope([10, 100, 1000], [2.0, 2.0, 2.0])) < 1e-12

    def test_jittered_third_root_law(self):
        rng = np.random.default_rng(88)
        ns = np.array([64, 128, 256, 512, 1024, 2048], dtype=float)
        errors = ns ** (-1 / 3) * (1.0 + 0.01 * rng.standard_normal(6))
        assert -0.40 <= decay_slope(ns, errors) <= -0.27

    def test_requires_three_positive_points(self):
        with pytest.raises(UsageError):
            decay_slope([10, 20], [1.0, 0.5])
        with pytest.raises(DataError):
            decay_slope([10, 20, 30], [1.0, 0.0, 0.5])


SMALL_GRID = dict(
    d_values=[4],
    noise_factors=[0.0],
    n_grid=[64, 128],
    repetitions=2,
    seed=1234,
    test_count=50,
)


class TestRunSchedule:
    def test_deterministic_repeat(self):
        a = run_schedule("line", **SMALL_GRID)
        b = run_schedule("line", **SMALL_GRID)
        assert schedule_summary(a) == schedule_summary(b)
        assert schedule_csv_rows(a) == schedule_csv_rows(b)

    def test_noise_free_parameter_rules(self):
        results = run_schedule("line", **SMALL_GRID)
        for cell in results[0].cells:
            assert cell.k_used == 1
            assert cell.j_used == max(1, cell.n // (15 * 4))

    def test_noisy_parameter_rules(self):
        config = dict(SMALL_GRID, noise_factors=[0.1], j_grid_noisy=(1, 2), cv_folds=3)
        results = run_schedule("line", **config)
        for cell in results[0].cells:
            assert cell.k_used == math.ceil(0.5 * cell.n ** (2 / 3))
            assert cell.j_used in (1, 2)

    def test_knn_method_shares_data_and_skips_tangents(self):
        nsim_res = run_schedule("line", **SMALL_GRID)
        knn_res = run_schedule("line", **SMALL_GRID, method="knn")
        assert [c.n for c in knn_res[0].cells] == [c.n for c in nsim_res[0].cells]
        assert all(math.isnan(c.rmse_a) for c in knn_res[0].cells)
        assert all(c.j_used == 0 for c in knn_res[0].cells)

    def test_infeasible_cells_recorded_and_skipped(self):
        # N=4 < D+1 cannot support even a single level set
        config = dict(SMALL_GRID, n_grid=[4, 64])
        results = run_schedule("line", **config)
        assert any(entry["n"] == 4 for entry in results[0].skipped)
        assert math.isnan(results[0].rmse_f_mean[0])
        assert not math.isnan(results[0].rmse_f_mean[1])
        assert schedule_summary(results)["results"][0]["rmse_f_mean"][0] is None

    def test_csv_rows_shape(self):
        rows = schedule_csv_rows(run_schedule("line", **SMALL_GRID))
        assert rows[0] == ["curve", "D", "c", "N", "rep", "rmse_f", "rmse_a", "J_used", "k_used"]
        assert len(rows) == 1 + 2 * 2  # header + n_grid x repetitions

    def test_summary_reports_grid_and_slope_fields(self):
        summary = schedule_summary(run_schedule("line", **SMALL_GRID))
        entry = summary["results"][0]
        assert entry["n_values"] == [64, 128]
        assert "slope_rmse_f" in entry and "slope_rmse_a" in entry
        assert entry["slope_rmse_f"] is None  # fewer than 3 grid points
        json.dumps(summary)  # JSON-serializable throughout

    def test_unknown_method_rejected(self):
        with pytest.raises(UsageError):
            run_schedule("line", **SMALL_GRID, method="forest")

    @pytest.mark.parametrize("method", ["nsim", "knn"])
    def test_bad_eta_rejected(self, method):
        with pytest.raises(UsageError):
            run_schedule("line", **SMALL_GRID, method=method, eta=-1)

    def test_negative_seed_rejected(self):
        with pytest.raises(UsageError):
            run_schedule("line", **{**SMALL_GRID, "seed": -1})

    @pytest.mark.parametrize(
        "options",
        [
            {"d_values": [4.7]}, {"d_values": [4, 3]}, {"n_grid": [64.9, 128]},
            {"n_grid": [64, True]}, {"cv_folds": 1}, {"cv_folds": 2.5}, {"test_count": 2.5},
            {"noise_factors": [0.0, math.inf]}, {"noise_factors": [math.nan]},
            {"noise_factors": [-1.0]}, {"noise_factors": [1e300]}, {"noise_factors": []},
            {"partition_kind": "bogus"}, {"partition_kind": "bogus", "method": "knn"},
        ],
        ids=[
            "D=4.7", "D=3", "N=64.9", "N=True", "folds=1", "folds=2.5", "test_count=2.5",
            "c=inf", "c=nan", "c=-1", "c=1e300", "c=[]", "partition=bogus",
            "partition=bogus-knn",
        ],
    )
    def test_bad_parameters_fail_before_the_first_cell(self, monkeypatch, options):
        def no_work(*args, **kwargs):
            raise AssertionError("ran a cell before the parameters were validated")

        monkeypatch.setattr(evaluation, "generate", no_work)
        with pytest.raises(UsageError):
            run_schedule("line", **{**SMALL_GRID, **options})

    def test_aggregation_commutes_with_repetition_order(self):
        result = run_schedule("line", **SMALL_GRID)[0]
        for pos, n in enumerate(result.n_values):
            cells = [c.rmse_f for c in result.cells if c.n == n]
            assert np.isclose(result.rmse_f_mean[pos], np.mean(sorted(cells)))
            assert np.isclose(result.rmse_f_mean[pos], np.mean(sorted(cells, reverse=True)))


def small_real_dataset(n=120, seed=9):
    dataset, _ = generate(
        SynthConfig(make_curve("line"), 4, n, seed, tube_radius=0.25, noise_factor=0.1)
    )
    return dataset


@pytest.fixture
def linreg_fails(monkeypatch):
    """``real_benchmark``'s linear regression raises ``DataError`` on every split."""

    def singular_design(data):
        raise DataError("singular design")

    monkeypatch.setattr(evaluation, "baseline_linreg", singular_design)


class TestRealBenchmark:
    def test_report_structure_and_determinism(self):
        data = small_real_dataset()
        kwargs = dict(
            repetitions=3,
            folds=3,
            j_grid=(1, 2),
            k_grid=(1, 4),
            seed=77,
        )
        report = real_benchmark(data, 77, **{k: v for k, v in kwargs.items() if k != "seed"})
        again = real_benchmark(data, 77, **{k: v for k, v in kwargs.items() if k != "seed"})
        assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)
        for method in ("nsim-dyadic", "nsim-equiblock", "linreg", "knn"):
            entry = report["methods"][method]
            assert entry["splits_used"] == 3
            assert entry["rmse_mean"] > 0
        assert report["methods"]["nsim-dyadic"]["j_mean"] >= 1
        assert report["methods"]["knn"]["k_mean"] >= 1
        assert "j_mean" not in report["methods"]["linreg"]

    def test_selected_hyperparameters_come_from_grids(self):
        data = small_real_dataset(seed=10)
        report = real_benchmark(
            data, 5, repetitions=2, folds=3, j_grid=(1, 2), k_grid=(1, 8)
        )
        for split in report["splits"]:
            if split["method"].startswith("nsim-"):
                assert split["J"] in (1, 2)
                assert split["k"] in (1, 8)

    def test_mean_and_std_of_split_rmses_near_float_max_stay_finite(self, monkeypatch):
        # every method scores 1.5e308 on the first split and 1e308 on the second
        rmses = iter([1.5e308] * 4 + [1e308] * 4)
        monkeypatch.setattr(evaluation, "rmse_function", lambda preds, truths: next(rmses))
        report = real_benchmark(
            small_real_dataset(), 3, repetitions=2, folds=3, j_grid=(1,), k_grid=(1,)
        )
        for method in evaluation.BENCHMARK_METHODS:
            entry = report["methods"][method]
            assert entry["rmse_mean"] == pytest.approx(1.25e308, rel=1e-12)
            assert entry["rmse_std"] == pytest.approx(0.25e308, rel=1e-12)
        json.dumps(report, allow_nan=False)

    def test_data_error_in_one_method_is_recorded_not_fatal(self, linreg_fails):
        report = real_benchmark(
            small_real_dataset(), 3, repetitions=2, folds=3, j_grid=(1, 2), k_grid=(1, 4)
        )
        assert report["methods"]["linreg"] == {
            "splits_used": 0, "rmse_mean": None, "rmse_std": None
        }
        linreg_rows = [r for r in report["splits"] if r["method"] == "linreg"]
        assert [r["reason"] for r in linreg_rows] == ["singular design"] * 2
        assert [r["rmse"] for r in linreg_rows] == [None, None]
        for method in ("nsim-dyadic", "nsim-equiblock", "knn"):
            assert report["methods"][method]["splits_used"] == 2

    @pytest.fixture
    def no_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("ran before the parameters were validated")

        for name in ("cross_validate", "fit", "baseline_knn_many", "baseline_linreg"):
            monkeypatch.setattr(evaluation, name, no_work)

    @pytest.mark.parametrize("k_grid", [(), (True,), (2, 0), (1.5,), (-1,), "4"])
    def test_bad_k_grid_fails_before_any_work(self, no_work, k_grid):
        with pytest.raises(UsageError):
            real_benchmark(small_real_dataset(), 1, repetitions=1, folds=3, k_grid=k_grid)

    @pytest.mark.parametrize(
        "options",
        [{"j_grid": (2.5,)}, {"j_grid": (0,)}, {"eta": -1}, {"eta": math.nan}],
        ids=["j_grid=2.5", "j_grid=0", "eta=-1", "eta=nan"],
    )
    def test_bad_j_grid_or_eta_fails_before_any_work(self, no_work, options):
        with pytest.raises(UsageError):
            real_benchmark(small_real_dataset(), 1, repetitions=1, folds=3, **options)

    @pytest.mark.parametrize(
        "options",
        [{"folds": 2.5}, {"folds": 1}, {"seed": -1}, {"seed": True}],
        ids=["folds=2.5", "folds=1", "seed=-1", "seed=True"],
    )
    def test_bad_folds_or_seed_fails_before_any_work(self, no_work, options):
        kwargs = {"seed": 1, "repetitions": 1, "folds": 3, **options}
        with pytest.raises(UsageError):
            real_benchmark(small_real_dataset(), **kwargs)

    def test_test_fraction_validation(self):
        data = small_real_dataset()
        with pytest.raises(UsageError):
            real_benchmark(data, 1, test_fraction=1.5)


def assert_parses_back(row, values):
    """Each CSV cell reads back as its report value bit for bit; "" is None."""
    assert len(row) == len(values)
    for text, value in zip(row, values):
        if value is None:
            assert text == ""
        elif isinstance(value, float):
            assert float(text).hex() == value.hex()
        else:
            assert type(value)(text) == value


class TestCsvRows:
    def test_schedule_cells_parse_back_to_the_report(self):
        noisy = dict(SMALL_GRID, noise_factors=[0.0, 0.1], j_grid_noisy=(1, 2), cv_folds=3)
        results = run_schedule("line", **noisy) + run_schedule("line", **SMALL_GRID, method="knn")
        _, *rows = schedule_csv_rows(results)
        cells = [cell for result in results for cell in result.cells]
        assert len(rows) == len(cells) == 12
        for row, cell in zip(rows, cells):
            assert_parses_back(row, astuple(cell))

    def test_split_cells_parse_back_to_the_report(self, linreg_fails):
        report = real_benchmark(
            small_real_dataset(), 3, repetitions=2, folds=3, j_grid=(1, 2), k_grid=(1, 4)
        )
        header, *rows = split_csv_rows(report)
        assert header == ["method", "rep", "rmse", "k", "J"]
        assert len(rows) == len(report["splits"]) == 8
        assert sum("reason" in split for split in report["splits"]) == 2
        for row, split in zip(rows, report["splits"]):
            assert_parses_back(row, [split[column] for column in header])
