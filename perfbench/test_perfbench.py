"""Tests of the benchmark's own parts: the oracle against ``predict_many``
and the span recorder's arithmetic.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import nsim  # noqa: E402
from nsim import estimator, evaluation  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402


def _tied_data(seed: int, d: int = 2, unique: int = 8, copies: int = 2) -> nsim.Dataset:
    """Every feature row appears ``copies`` times with its own response, so
    the copies tie exactly in both distance formulas."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, (unique, d))
    features = np.tile(base, (copies, 1))
    responses = rng.permutation(np.arange(unique * copies, dtype=np.float64))
    return nsim.Dataset(features, responses)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("eta", [math.inf, 0.8])
def test_oracle_matches_predict_many_with_forced_ties(seed, k, eta):
    data = _tied_data(seed)
    model = nsim.fit(data, 1, k, eta)
    queries = np.random.default_rng(100 + seed).uniform(-1.2, 1.2, (25, 2))
    # the query rows themselves put the tie at distance zero
    queries = np.vstack([queries, data.features[:4]])
    preds = nsim.predict_many(model, queries)
    rule = oracle.from_fitted(model)
    for x, pred in zip(queries, preds):
        assert oracle.predict(rule, x) == pytest.approx(pred, abs=1e-12)
        assert oracle.admits(rule, x, pred)


def test_tie_goes_to_the_lowest_index():
    # two copies of every row; k = 1 picks the first copy at distance zero
    data = _tied_data(0)
    model = nsim.fit(data, 1, 1, math.inf)
    rule = oracle.from_fitted(model)
    x = data.features[3]
    assert oracle.predict(rule, x) == data.responses[3]
    assert nsim.predict_many(model, x[None, :])[0] == data.responses[3]


def test_all_queries_outside_the_radius_take_the_euclidean_fallback():
    data = _tied_data(1)
    model = nsim.fit(data, 1, 3, 1e-3)
    queries = np.random.default_rng(7).uniform(5.0, 6.0, (10, 2))
    preds = nsim.predict_many(model, queries)
    rule = oracle.from_fitted(model)
    nearest = [data.responses[np.argmin(np.linalg.norm(data.features - q, axis=1))] for q in queries]
    assert list(preds) == nearest
    assert [oracle.predict(rule, q) for q in queries] == nearest
    assert all(oracle.admits(rule, q, p) for q, p in zip(queries, preds))
    counts = oracle.neighbour_counts(rule, queries)
    assert counts["fallback_queries"] == len(queries)
    assert counts["in_radius"] == 0


def test_fewer_than_k_candidates_are_averaged():
    features = np.array([[0.0, 0.0], [0.1, 0.0], [3.0, 0.0], [3.1, 0.2], [6.0, 1.0], [6.2, 1.1]])
    data = nsim.Dataset(features, np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]))
    model = nsim.fit(data, 1, 4, 0.5)
    rule = oracle.from_fitted(model)
    x = np.array([0.05, 0.0])
    assert nsim.predict_many(model, x[None, :])[0] == pytest.approx(1.5)
    assert oracle.predict(rule, x) == pytest.approx(1.5)
    counts = oracle.neighbour_counts(rule, x[None, :])
    assert counts == {"pair_evals": 6, "in_radius": 2, "fallback_queries": 0, "short_k_queries": 1}


def test_admits_rejects_a_wrong_prediction():
    data = _tied_data(2)
    model = nsim.fit(data, 1, 3, math.inf)
    rule = oracle.from_fitted(model)
    x = np.array([0.1, -0.2])
    pred = nsim.predict_many(model, x[None, :])[0]
    assert oracle.admits(rule, x, pred)
    assert not oracle.admits(rule, x, pred + 0.5)
    assert not oracle.admits(rule, x, math.nan)


def test_admits_accepts_either_side_of_a_near_tie_at_the_kth_place():
    features = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 1.0 + 1e-13], [0.0, 3.0]])
    rule = oracle.RuleModel(features, np.array([0.0, 10.0, 20.0, 30.0]),
                            np.tile([0.0, 1.0], (4, 1)), k=1, eta=math.inf)
    x = np.zeros(2)
    assert oracle.admits(rule, x, 0.0) and oracle.admits(rule, x, 10.0)
    assert oracle.admits(rule, x, 20.0)  # 1e-13 from the tie: also admitted
    assert not oracle.admits(rule, x, 30.0)


def test_in_radius_counts_are_exact_at_the_boundary():
    features = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5000001], [3.0, 4.0]])
    queries = np.array([[0.0, 0.0], [3.0, 4.5]])
    assert list(oracle.in_radius_counts(features, 0.5, queries)) == [2, 1]
    assert list(oracle.in_radius_counts(features, math.inf, queries)) == [4, 4]


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),  # overlaps a: [1, 5] is covered once
        _span("c", 8.0, 12.0, 0),  # clipped to the parent's end
        _span("a.child", 1.5, 2.5, 1),  # covers part of a, not of root again
    ]
    assert spans.self_times(recorded) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_aggregate_sums_durations_self_times_calls_and_counts():
    recorded = [_span("f", 0.0, 2.0), _span("g", 0.5, 1.0, 0), _span("f", 3.0, 4.0)]
    recorded[1].counts = {"queries": 5}
    recorded[2].counts = {"rows": 2}
    totals = spans.aggregate(recorded)
    assert totals["f"] == {"s": pytest.approx(3.0), "self_s": pytest.approx(2.5), "calls": 2, "rows": 2}
    assert totals["g"] == {"s": pytest.approx(0.5), "self_s": pytest.approx(0.5), "calls": 1,
                           "queries": 5}


def test_recorder_nests_spans_with_a_fake_clock():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: [inner(), inner()])
    outer()
    assert [(s.name, s.start, s.end, s.parent) for s in rec.spans] == [
        ("outer", 0.0, 5.0, None), ("inner", 1.0, 2.0, 0), ("inner", 3.0, 4.0, 0)]
    assert spans.self_times(rec.spans) == [3.0, 1.0, 1.0]


def test_tracing_catches_calls_where_they_are_looked_up_and_restores_them():
    data, _ = nsim.generate(nsim.SynthConfig(nsim.make_curve("line"), 4, 90, seed=3,
                                             noise_factor=0.1))
    originals = (evaluation.fit, estimator.predict_many, estimator.dyadic_partition)
    rec = spans.Recorder()
    with spans.installed(rec, layers.targets()):
        assert evaluation.fit is not originals[0]
        for k in (1, 2):
            estimator.cross_validate(data, [1, 2], k, math.inf, folds=3, seed=5)
    rec.finish()
    assert (evaluation.fit, estimator.predict_many, estimator.dyadic_partition) == originals
    totals = spans.aggregate(rec.spans)
    assert totals["estimator.fit"]["calls"] == 12
    assert totals["partition.dyadic_partition"]["calls"] == 12
    assert totals["estimator.predict_many"]["queries"] == 2 * 2 * 90
    assert layers.metric_value(totals, "estimator.cross_validate.distinct_fit_frac") == 0.5
    assert layers.metric_value(totals, "estimator.predict_many.in_radius_frac") == 1.0
    assert layers.metric_value(totals, "io.read_dataset_csv.s") == 0
    fits = [s for s in rec.spans if s.name == "estimator.fit"]
    assert all(rec.spans[s.parent].name == "estimator.cross_validate" for s in fits)


def test_infeasible_fits_are_counted_from_the_exception():
    data, _ = nsim.generate(nsim.SynthConfig(nsim.make_curve("line"), 4, 20, seed=1))
    rec = spans.Recorder()
    with spans.installed(rec, layers.targets()):
        with pytest.raises(nsim.InfeasibleFitError):
            estimator.fit(data, 10, 1)
    rec.finish()
    assert spans.aggregate(rec.spans)["estimator.fit"]["infeasible"] == 1
