"""Level-set single-index regression toolkit.

Fits a regression model by partitioning samples into response level sets,
estimating one unit index vector per level set via conditional linear
regression, and predicting with a kNN rule under a restricted proxy metric.
Includes synthetic curve generators, evaluation metrics, baselines, and an
experiment harness.
"""

from .data import Dataset
from .errors import DataError, InfeasibleFitError, NsimError, UsageError
from .estimator import (
    CvReport,
    FittedNsim,
    baseline_knn_many,
    baseline_linreg,
    cross_validate,
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
from .evaluation import (
    ExperimentResult,
    decay_slope,
    real_benchmark,
    rmse_function,
    rmse_tangent,
    run_schedule,
)
from .geometry import (
    CURVE_KINDS,
    ParametricCurve,
    SynthConfig,
    SynthSample,
    curve_point,
    curve_tangent,
    generate,
    link_function,
    make_curve,
)
from .linalg import cross_covariance, pseudo_inverse, sample_covariance
from .metric import proxy_distances
from .partition import (
    ResponseInterval,
    ResponsePartition,
    dyadic_partition,
    equiblock_partition,
)
from .tangents import TangentField, fit_tangents, grammian

__version__ = "0.1.0"

__all__ = [
    "CURVE_KINDS",
    "CvReport",
    "DataError",
    "Dataset",
    "ExperimentResult",
    "FittedNsim",
    "InfeasibleFitError",
    "NsimError",
    "ParametricCurve",
    "ResponseInterval",
    "ResponsePartition",
    "SynthConfig",
    "SynthSample",
    "TangentField",
    "UsageError",
    "baseline_knn_many",
    "baseline_linreg",
    "cross_covariance",
    "cross_validate",
    "curve_point",
    "curve_tangent",
    "decay_slope",
    "dyadic_partition",
    "equiblock_partition",
    "fit",
    "fit_split",
    "fit_tangents",
    "generate",
    "grammian",
    "linreg_predict",
    "link_function",
    "load_model",
    "make_curve",
    "model_from_dict",
    "model_to_dict",
    "predict_many",
    "proxy_distances",
    "pseudo_inverse",
    "real_benchmark",
    "rmse_function",
    "rmse_tangent",
    "run_schedule",
    "sample_covariance",
    "save_model",
    "two_thirds_k",
]
