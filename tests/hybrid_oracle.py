"""Per-bin reference evaluation of the hybrid estimator.

The hybrid (paper §3.3) is a sum of per-bin boundary-kernel
estimators, each weighted by its bin's sample fraction and rescaled to
unit mass over its bin.  :class:`repro.core.hybrid.HybridEstimator`
evaluates that sum from contiguous arrays; this oracle evaluates it
literally, with one estimator object per kernel bin and a uniform
density per fallback bin.  The kernel bins come from
``make_kernel_estimator(..., boundary="kernel", use_moments=False)``,
so their interior sums run per sample and stay numerically independent
of the prefix moments the flat layout uses.  The oracle reuses the
built estimator's partition and per-bin bandwidths but computes every
bin mass itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.hybrid import HybridEstimator
from repro.core.kernel.boundary import make_kernel_estimator
from repro.core.kernel.estimator import KernelSelectivityEstimator


class PerBinHybrid:
    """Literal per-bin evaluation of a built :class:`HybridEstimator`."""

    def __init__(self, estimator: HybridEstimator) -> None:
        flat = estimator._flat
        self._bins = estimator.bins
        self._weights = estimator.bin_weights
        self._estimators: list[KernelSelectivityEstimator | None] = []
        masses = []
        for k, interval in enumerate(self._bins):
            if not flat.is_kernel[k]:
                self._estimators.append(None)
                masses.append(1.0)
                continue
            kernel = make_kernel_estimator(
                flat.values[flat.offsets[k] : flat.offsets[k + 1]],
                float(flat.h[k]),
                interval,
                boundary="kernel",
                use_moments=False,
            )
            self._estimators.append(kernel)
            low, high = np.array([interval.low]), np.array([interval.high])
            masses.append(float(kernel.raw_selectivities(low, high)[0]))
        #: Raw mass each bin's estimate assigns to its own interval.
        self.masses = np.array(masses)
        usable = np.isfinite(self.masses) & (self.masses > 1e-9)
        self._scales = 1.0 / np.where(usable, self.masses, 1.0)

    def _parts(self):
        return zip(self._bins, self._weights * self._scales, self._estimators)

    def selectivities(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        total = np.zeros(a.shape, dtype=np.float64)
        for interval, coeff, kernel in self._parts():
            overlap = (b >= interval.low) & (a <= interval.high)
            if coeff == 0.0 or not overlap.any():
                continue
            lo = np.clip(a[overlap], interval.low, interval.high)
            hi = np.maximum(np.clip(b[overlap], interval.low, interval.high), lo)
            if kernel is None:
                part = (hi - lo) / interval.width
            else:
                part = kernel.raw_selectivities(lo, hi)
            total[overlap] += coeff * part
        return np.clip(total, 0.0, 1.0)

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros(x.shape, dtype=np.float64)
        for interval, coeff, kernel in self._parts():
            inside = (x >= interval.low) & (x <= interval.high)
            if coeff == 0.0 or not inside.any():
                continue
            if kernel is None:
                local = np.full(int(inside.sum()), 1.0 / interval.width)
            else:
                local = kernel.density(x[inside])
            total[inside] += coeff * local
        return total
