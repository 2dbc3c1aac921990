"""What the traced run wraps, the counters it attaches, and how the
per-layer metrics are read off the aggregated spans.

Counters are computed from outside the package: query and row counts from
the wrapped calls' arguments and results, neighbour counts from the
benchmark's oracle, fit outcomes from the exceptions the calls raise.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

import oracle

_CV = "estimator.cross_validate"

# per-layer stat -> (numerator counter, denominator counter)
_RATIOS = {
    "in_radius_frac": ("in_radius", "pair_evals"),
    "distinct_fit_frac": ("distinct_fits", "fits"),
}


def _predict_hook(rec, span_id, args, kwargs, result, error):
    model, queries = args[0], args[1]
    rec.spans[span_id].counts["queries"] = int(np.atleast_2d(queries).shape[0])
    if error is None:
        rec.defer(span_id, lambda: oracle.neighbour_counts(oracle.from_fitted(model), queries))


def _fit_hook(rec, span_id, args, kwargs, result, error):
    from nsim.errors import InfeasibleFitError

    rec.spans[span_id].counts["infeasible"] = int(isinstance(error, InfeasibleFitError))
    cv = rec.ancestor(span_id, _CV)
    if cv is None:
        return
    data = args[0]
    j_count = args[1] if len(args) > 1 else kwargs["j_count"]
    kind = args[4] if len(args) > 4 else kwargs.get("partition_kind", "dyadic")

    def distinct():
        digest = hashlib.sha1(data.features.tobytes() + data.responses.tobytes()).hexdigest()
        key = (kind, int(j_count), digest)
        fresh = key not in rec.seen
        rec.seen.add(key)
        return {"fits": 1, "distinct_fits": int(fresh)}

    rec.defer(cv, distinct)


def _level_sets_hook(rec, span_id, args, kwargs, result, error):
    rec.spans[span_id].counts["level_sets"] = int(args[1].n_groups)


def _knn_hook(rec, span_id, args, kwargs, result, error):
    rec.spans[span_id].counts["queries"] = int(np.atleast_2d(args[1]).shape[0])


def _save_hook(rec, span_id, args, kwargs, result, error):
    if error is None:
        rec.spans[span_id].counts["bytes"] = os.path.getsize(args[0])


def _rows_hook(rows_of):
    def hook(rec, span_id, args, kwargs, result, error):
        if error is None:
            rec.spans[span_id].counts["rows"] = int(rows_of(result))

    return hook


def targets():
    """(span name, owner, attribute, counter hook) for every traced call."""
    from nsim import cli, data, estimator, evaluation, geometry, io, linalg, partition, tangents

    return [
        ("geometry.generate", geometry, "generate", None),
        ("data.subset", data.Dataset, "subset", None),
        ("io.read_dataset_csv", io, "read_dataset_csv", _rows_hook(lambda r: r[0].n)),
        ("io.read_feature_csv", io, "read_feature_csv", _rows_hook(lambda r: len(r[1]))),
        ("io.write_predictions_csv", io, "write_predictions_csv", None),
        ("partition.dyadic_partition", partition, "dyadic_partition", None),
        ("partition.equiblock_partition", partition, "equiblock_partition", None),
        ("linalg.sample_covariance", linalg, "sample_covariance", None),
        ("linalg.cross_covariance", linalg, "cross_covariance", None),
        ("linalg.pseudo_inverse", linalg, "pseudo_inverse", None),
        ("tangents.fit_tangents", tangents, "fit_tangents", _level_sets_hook),
        ("tangents.grammian", tangents, "grammian", None),
        ("estimator.fit", estimator, "fit", _fit_hook),
        ("estimator.fit_split", estimator, "fit_split", None),
        ("estimator.predict_many", estimator, "predict_many", _predict_hook),
        ("estimator.cross_validate", estimator, "cross_validate", None),
        ("estimator.baseline_knn_many", estimator, "baseline_knn_many", _knn_hook),
        ("estimator.save_model", estimator, "save_model", _save_hook),
        ("estimator.load_model", estimator, "load_model", None),
        ("evaluation.real_benchmark", evaluation, "real_benchmark", None),
        ("cli.fit", cli, "cmd_fit", None),
        ("cli.predict", cli, "cmd_predict", None),
    ]


def is_count(stat: str) -> bool:
    """Every stat but a time (``s``, ``self_s``, ``overhead_s``) is a count
    or a ratio of counts, and must repeat exactly."""
    return stat != "s" and not stat.endswith("_s")


def metric_value(totals: dict[str, dict[str, float]], metric: str) -> float:
    """Value of ``<module>.<function>.<stat>`` from aggregated span totals;
    a call that never happened reads 0."""
    span_name, stat = metric.rsplit(".", 1)
    entry = totals.get(span_name, {})
    if stat in _RATIOS:
        num, den = _RATIOS[stat]
        return entry.get(num, 0) / entry[den] if entry.get(den) else 0.0
    return entry.get(stat, 0)
