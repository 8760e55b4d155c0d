"""Average shifted histograms (Scott; paper §3.1).

An ASH with ``m`` shifts is the pointwise average of ``m`` equi-width
histograms with a common bin width ``h`` and origins offset by
``h / m``.  Averaging smooths the discontinuities at bin boundaries
(the paper: the jump-point problem "still exists, however in a more
diminished form") without the cost of a kernel estimator — the ASH is
in fact a discretized triangular-kernel estimator.

The paper's final comparison (Fig. 12) runs the ASH with ten shifts.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import (
    DensityEstimator,
    InvalidSampleError,
    validate_query,
    validate_query_batch,
)
from repro.core.histogram.equi_width import EquiWidthHistogram
from repro.data.domain import Interval

#: Number of shifts used in the paper's experiments.
PAPER_SHIFTS = 10


class AverageShiftedHistogram(DensityEstimator):
    """Average of ``shifts`` shifted equi-width histograms.

    Parameters
    ----------
    sample:
        Sample set shared by all component histograms.
    domain:
        Attribute domain.
    bins:
        Number of bins of each component histogram (sets the common
        bin width ``h = domain.width / bins``).
    shifts:
        Number of component histograms ``m``; origins are offset by
        ``j * h / m`` to the left of the domain start.
    """

    def __init__(
        self,
        sample: np.ndarray,
        domain: Interval,
        bins: int,
        *,
        shifts: int = PAPER_SHIFTS,
    ) -> None:
        if shifts < 1:
            raise InvalidSampleError(f"need at least one shift, got {shifts}")
        if bins < 1:
            raise InvalidSampleError(f"need at least one bin, got {bins}")
        bin_width = domain.width / bins
        step = bin_width / shifts
        self._components = tuple(
            EquiWidthHistogram(sample, domain, bins, origin=domain.low - j * step)
            for j in range(shifts)
        )
        self._domain = domain
        self._bin_width = bin_width
        # Merged fine-grid CDF: every component CDF is piecewise
        # linear on its own (coarse) edge lattice, so their average is
        # piecewise linear on the union of all edges — a lattice with
        # step ``h / shifts``.  Precomputing the averaged CDF at those
        # knots turns a whole query batch into two ``np.interp`` calls
        # instead of one pass per component.
        knots = np.unique(
            np.concatenate([component.boundaries for component in self._components])
        )
        cdf = np.zeros(knots.shape, dtype=np.float64)
        for component in self._components:
            cdf += component._bulk_cdf(knots)
        self._cdf_knots = knots
        self._cdf_values = cdf / len(self._components)

    @property
    def sample_size(self) -> int:
        return self._components[0].sample_size

    @property
    def domain(self) -> Interval:
        """Attribute domain."""
        return self._domain

    @property
    def shifts(self) -> int:
        """Number of component histograms."""
        return len(self._components)

    @property
    def bin_width(self) -> float:
        """Common bin width ``h`` of the component histograms."""
        return self._bin_width

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros(x.shape, dtype=np.float64)
        for component in self._components:
            total += component.density(x)
        return total / len(self._components)

    def selectivity(self, a: float, b: float) -> float:
        a, b = validate_query(a, b)
        return float(self.selectivities(np.array([a]), np.array([b]))[0])

    def selectivities(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batch evaluation against the merged fine-grid CDF."""
        a, b = validate_query_batch(a, b)
        result = np.interp(b, self._cdf_knots, self._cdf_values) - np.interp(
            a, self._cdf_knots, self._cdf_values
        )
        return np.clip(result, 0.0, 1.0)
