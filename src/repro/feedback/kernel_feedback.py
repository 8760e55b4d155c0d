"""Query feedback for kernel estimators (paper §6, third item).

The paper's exact sentence: "we will include the knowledge of previous
queries to improve the quality of kernel estimators".  The histogram
variant (:mod:`repro.feedback.adaptive`) redistributes bin masses; the
kernel variant here keeps the *samples* and reweights them:

* each sample ``X_i`` carries a weight ``w_i`` (initially ``1/n``),
* the estimator is the weighted kernel sum
  ``sigma_hat(a,b) = sum_i w_i * [C((b-X_i)/h) - C((a-X_i)/h)]``,
* after a query executes, the weights of the samples responsible for
  the estimate inside the range are scaled multiplicatively towards
  the observed truth and renormalized —
  a multiplicative-weights update, damped by a learning rate.

Reweighting preserves everything that makes the kernel estimator good
(smoothness, boundary behaviour, exact primitives) while letting the
workload correct what the sample got wrong — e.g. a sample that
under-represents a hot region.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import (
    DensityEstimator,
    InvalidQueryError,
    InvalidSampleError,
    validate_query,
    validate_sample,
    validate_query_batch,
)
from repro.core.kernel.estimator import PickFn, segment_window_sums
from repro.core.kernel.functions import EPANECHNIKOV, KernelFunction, get_kernel
from repro.data.domain import Interval
from repro.telemetry import get_telemetry
from repro.telemetry.quality import record_quality


class FeedbackKernelEstimator(DensityEstimator):
    """A kernel estimator whose sample weights learn from feedback.

    Parameters
    ----------
    sample:
        Sample set (reflected at the domain boundaries internally).
    bandwidth:
        Kernel bandwidth ``h``.
    domain:
        Attribute domain (required: reflection boundary treatment).
    kernel:
        Kernel function.
    learning_rate:
        Fraction of each observed log-discrepancy applied per update,
        in ``(0, 1]``.
    """

    def __init__(
        self,
        sample: np.ndarray,
        bandwidth: float,
        domain: Interval,
        kernel: "KernelFunction | str" = EPANECHNIKOV,
        learning_rate: float = 0.5,
    ) -> None:
        if not 0.0 < learning_rate <= 1.0:
            raise InvalidSampleError(
                f"learning_rate must be in (0, 1], got {learning_rate}"
            )
        values = np.sort(validate_sample(sample, domain))
        if bandwidth <= 0 or not np.isfinite(bandwidth):
            raise InvalidSampleError(f"bandwidth must be positive, got {bandwidth}")
        self._kernel = get_kernel(kernel)
        self._domain = domain
        self._h = float(bandwidth)
        self._n = int(values.size)
        self._rate = float(learning_rate)

        reach = self._h * self._kernel.support
        left = values[values < domain.low + reach]
        right = values[values > domain.high - reach]
        self._points = np.concatenate(
            [values, 2.0 * domain.low - left, 2.0 * domain.high - right]
        )
        # Mirror bookkeeping: each reflected copy shares its source's
        # weight, so updates touch both together.
        self._source = np.concatenate(
            [
                np.arange(values.size),
                np.flatnonzero(values < domain.low + reach),
                np.flatnonzero(values > domain.high - reach),
            ]
        )
        order = np.argsort(self._points, kind="stable")
        self._points = self._points[order]
        self._source = self._source[order]
        self._weights = np.full(self._n, 1.0 / self._n)
        self._updates = 0

    @property
    def sample_size(self) -> int:
        return self._n

    @property
    def domain(self) -> Interval:
        """Attribute domain."""
        return self._domain

    @property
    def bandwidth(self) -> float:
        """Kernel bandwidth ``h``."""
        return self._h

    @property
    def updates(self) -> int:
        """Feedback observations consumed."""
        return self._updates

    @property
    def weights(self) -> np.ndarray:
        """Current per-sample weights (copy; sums to 1)."""
        return self._weights.copy()

    @property
    def distribution_shift(self) -> float:
        """Total-variation distance from the uniform build-time weights.

        0 means feedback has not reweighted anything; emitted as the
        ``drift.feedback.shift.FeedbackKernelEstimator`` gauge in
        traced runs.
        """
        return float(0.5 * np.abs(self._weights - 1.0 / self._n).sum())

    def _per_sample_mass(self, a: float, b: float) -> np.ndarray:
        """Unweighted kernel mass of ``[a, b]`` per stored point."""
        return self._kernel.mass_between(
            (a - self._points) / self._h, (b - self._points) / self._h
        )

    def selectivity(self, a: float, b: float) -> float:
        a, b = validate_query(a, b)
        a = max(a, self._domain.low)
        b = min(b, self._domain.high)
        if a > b:
            return 0.0
        mass = self._per_sample_mass(a, b)
        total = float(self._weights[self._source] @ mass)
        return float(np.clip(total, 0.0, 1.0))

    def _weighted_cdf_sums(self, x: np.ndarray) -> np.ndarray:
        """``sum_i w_i * C((x_j - X_i) / h)`` for every point of flat ``x``.

        The weighted analogue of the plain kernel estimator's windowed
        CDF sums: points more than one kernel reach below ``x``
        contribute their full weight (via a prefix sum over the sorted
        points), points above contribute 0, and only the window around
        ``x`` evaluates the kernel primitive.  The weight prefix is
        recomputed per call because :meth:`observe` reweights.
        """
        points, h = self._points, self._h
        weights = self._weights[self._source]
        prefix = np.concatenate(([0.0], np.cumsum(weights)))
        reach = h * self._kernel.support
        lo = np.searchsorted(points, x - reach, side="left")
        hi = np.searchsorted(points, x + reach, side="right")
        inv_h = 1.0 / h

        def term(pick: PickFn, i: np.ndarray) -> np.ndarray:
            t = pick(x)
            t -= points[i]
            t *= inv_h
            return weights[i] * self._kernel.cdf(t)

        return prefix[lo] + segment_window_sums(lo, hi, term)

    def selectivities(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized weighted-kernel batch path (no per-query loop)."""
        a, b = validate_query_batch(a, b)
        shape = np.broadcast(a, b).shape
        lo = np.maximum(np.ravel(np.broadcast_to(a, shape)), self._domain.low)
        hi = np.minimum(np.ravel(np.broadcast_to(b, shape)), self._domain.high)
        nonempty = lo <= hi
        lo = np.where(nonempty, lo, self._domain.low)
        hi = np.where(nonempty, hi, self._domain.low)
        totals = self._weighted_cdf_sums(hi) - self._weighted_cdf_sums(lo)
        out = np.where(nonempty, np.clip(totals, 0.0, 1.0), 0.0)
        return out.reshape(shape)

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        out = np.empty(x.shape, dtype=np.float64)
        flat_x, flat_out = x.ravel(), out.ravel()
        for j, point in enumerate(flat_x):
            contributions = self._kernel.pdf((point - self._points) / self._h)
            flat_out[j] = float(
                self._weights[self._source] @ contributions
            ) / self._h
        inside = (x >= self._domain.low) & (x <= self._domain.high)
        return np.where(inside, out, 0.0)

    def observe(self, a: float, b: float, true_selectivity: float) -> float:
        """Feed back one executed query; returns the pre-update error.

        Weights of samples contributing mass inside ``[a, b]`` are
        scaled towards the ratio ``truth / estimate`` (exponentiated by
        the learning rate and each sample's share of contribution),
        then renormalized.
        """
        a, b = validate_query(a, b)
        if not 0.0 <= true_selectivity <= 1.0:
            raise InvalidQueryError(
                f"true selectivity must be in [0, 1], got {true_selectivity}"
            )
        estimate = self.selectivity(a, b)
        error = true_selectivity - estimate
        # This estimator is *explicitly* adaptive: observe() is its whole
        # point, callers own one instance per workload, and no catalog
        # or serving snapshot ever shares it.
        self._updates += 1  # repro: allow[frozen-after-build] — adaptive by design; not cache-shared
        if estimate <= 0.0 and true_selectivity <= 0.0:
            self._record_feedback_telemetry(estimate, true_selectivity)
            return float(error)

        mass = self._per_sample_mass(max(a, self._domain.low), min(b, self._domain.high))
        # Fraction of each source sample's kernel mass inside the range
        # (mirrored copies fold into their source).
        inside_fraction = np.zeros(self._n, dtype=np.float64)
        np.add.at(inside_fraction, self._source, mass)
        inside_fraction = np.clip(inside_fraction, 0.0, 1.0)

        if estimate > 0.0:
            ratio = (true_selectivity + 1e-12) / (estimate + 1e-12)
            factors = ratio ** (self._rate * inside_fraction)
        else:
            # Nothing currently contributes but the truth is positive:
            # boost the nearest samples uniformly by their proximity.
            factors = 1.0 + self._rate * inside_fraction
        self._weights = self._weights * factors  # repro: allow[frozen-after-build] — adaptive by design; not cache-shared
        total = self._weights.sum()
        if total > 0:
            self._weights /= total  # repro: allow[frozen-after-build] — adaptive by design; not cache-shared
        self._record_feedback_telemetry(estimate, true_selectivity)
        return float(error)

    def _record_feedback_telemetry(self, estimate: float, truth: float) -> None:
        telemetry = get_telemetry()
        if telemetry.enabled:
            record_quality(estimate, truth, key=type(self).__name__)
            telemetry.metrics.set_gauge(
                f"drift.feedback.shift.{type(self).__name__}",
                self.distribution_shift,
            )

    def observe_workload(
        self, a: np.ndarray, b: np.ndarray, true_selectivities: np.ndarray
    ) -> np.ndarray:
        """Feed back a whole executed workload; returns per-query errors."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        true = np.asarray(true_selectivities, dtype=np.float64)
        if not (a.shape == b.shape == true.shape):
            raise InvalidQueryError("workload arrays must be parallel")
        return np.array([self.observe(x, y, t) for x, y, t in zip(a, b, true)])
