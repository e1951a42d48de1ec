"""Decorrelated local linear inference for additive models.

Estimates the pointwise derivative of one component of an additive
regression model, with confidence intervals and a zero-derivative test
that stay valid in the presence of (possibly high-dimensional) estimated
nuisance components.
"""

from .errors import DataError, DLLError, NumericalError
from .estimator import (
    CrossFit,
    Dataset,
    DLLFit,
    PipelineOptions,
    cross_fit,
    dll_pipeline,
    evaluate,
)
from .simulate import SimConfig

__version__ = "0.1.0"
