"""Estimator core: the paper's primary contribution.

Subpackages
-----------

``repro.core.base``
    Abstract interfaces shared by every estimator.
``repro.core.sampling``
    Pure sampling (the baseline every other method is measured against).
``repro.core.histogram``
    Equi-width, equi-depth, max-diff, uniform and average shifted
    histograms (paper §3.1).
``repro.core.kernel``
    Kernel selectivity estimation with boundary treatments (paper §3.2).
``repro.core.hybrid``
    The paper's new hybrid histogram-kernel estimator (paper §3.3).
``repro.core.changepoints``
    Second-derivative change-point detection used by the hybrid.
``repro.core.summary``
    Mergeable, versioned column summaries — the incremental-ANALYZE
    substrate every estimator family can be rebuilt from.
"""

from repro.core.base import (
    DensityEstimator,
    EstimatorError,
    InvalidQueryError,
    InvalidSampleError,
    SelectivityEstimator,
)
from repro.core.summary import ColumnSummary

__all__ = [
    "ColumnSummary",
    "DensityEstimator",
    "EstimatorError",
    "InvalidQueryError",
    "InvalidSampleError",
    "SelectivityEstimator",
]
