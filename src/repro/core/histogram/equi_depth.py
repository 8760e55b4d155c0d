"""Equi-depth histograms (Piatetsky-Shapiro & Connell; paper §3.1).

Bin boundaries sit at sample quantiles so every bin holds (nearly) the
same number of samples.  On data with heavy duplicates several
quantiles can coincide; the resulting zero-width bins are retained as
point masses by the shared machinery, so the estimator stays exact on
discrete domains.
"""

from __future__ import annotations

import numpy as np

from repro.bandwidth.scale import sorted_quantiles
from repro.core.base import InvalidSampleError, validate_sample
from repro.core.histogram.bins import PiecewiseConstantDensity
from repro.data.domain import Interval


class EquiDepthHistogram(PiecewiseConstantDensity):
    """Equi-depth (equi-height) histogram.

    Parameters
    ----------
    sample:
        Sample set; boundaries are its ``i/k`` quantiles.
    bins:
        Number of bins ``k >= 1``.
    domain:
        Optional attribute domain (validation and reporting only; the
        binned range is the sample range, outside which the estimated
        density is zero).
    """

    def __init__(
        self,
        sample: np.ndarray,
        bins: int,
        domain: Interval | None = None,
    ) -> None:
        if bins < 1:
            raise InvalidSampleError(f"need at least one bin, got {bins}")
        values = np.sort(validate_sample(sample, domain))
        if bins > values.size:
            raise InvalidSampleError(
                f"cannot build {bins} equi-depth bins from {values.size} samples"
            )
        edges = sorted_quantiles(values, np.linspace(0.0, 1.0, bins + 1))
        # Equi-depth by definition: every bin carries exactly n/k of the
        # sample mass.  On heavy-duplicate data several quantiles
        # coincide; those zero-width bins then carry n/k each, which is
        # precisely the point mass of the duplicated value.
        counts = np.full(bins, values.size / bins, dtype=np.float64)
        super().__init__(edges, counts, values.size, domain)
