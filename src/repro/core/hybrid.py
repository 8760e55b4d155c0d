"""The hybrid histogram-kernel estimator (paper §3.3).

The paper's new estimator combines the strengths of both families:

1. **Partition** the domain into bins at the density's change points
   (detected via the second derivative,
   :mod:`repro.core.changepoints`).
2. **Merge** adjacent bins whose sample count is too small to support
   their own kernel estimate.
3. **Estimate within bins**: each bin runs an independent kernel
   estimate over its samples, with its *own* bandwidth, treating the
   bin edges as domain boundaries (Simonoff–Dong boundary kernels).  A
   bin's mass is its sample fraction, so discontinuities of the true
   PDF end up *between* bins where kernel smoothing never crosses
   them.

Bins whose sample population is too thin for kernel estimation fall
back to the uniform-within-bin assumption — exactly a histogram bin —
which is why the method is a genuine hybrid.  The partition is stored
and evaluated as contiguous arrays (:mod:`repro.core.hybrid_flat`),
never as one estimator object per bin.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.base import (
    DensityEstimator,
    EstimatorError,
    InvalidSampleError,
    validate_query,
    validate_query_batch,
    validate_sample,
)
from repro.bandwidth.scale import clamp_bandwidth
from repro.core.changepoints import detect_change_points
from repro.core.hybrid_flat import (
    bin_offsets,
    build_flat,
    flat_density,
    flat_selectivities,
)
from repro.data.domain import Interval

#: Bins with fewer samples than this cannot support a kernel estimate
#: and fall back to the uniform-within-bin assumption.
MIN_KERNEL_SAMPLES = 8


class HybridEstimator(DensityEstimator):
    """Change-point-partitioned kernel estimator.

    Parameters
    ----------
    sample:
        Sample set.
    domain:
        Attribute domain.
    max_changepoints:
        Upper bound on detected change points (bins = change points + 1).
    min_bin_fraction:
        Adjacent bins are merged until every bin holds at least this
        fraction of the sample ("merged into one if the corresponding
        number of records is not sufficiently large", paper §3.3).
    bandwidth_rule:
        Callable mapping a bin's sample array to a bandwidth.  Defaults
        to the Epanechnikov normal-scale rule; the bandwidth is always
        clamped below a quarter of the bin width so boundary regions
        never overlap.
    changepoint_kwargs:
        Extra keyword arguments forwarded to
        :func:`repro.core.changepoints.detect_change_points`.
    """

    def __init__(
        self,
        sample: np.ndarray,
        domain: Interval,
        *,
        max_changepoints: int = 8,
        min_bin_fraction: float = 0.05,
        bandwidth_rule: Callable[[np.ndarray], float] | None = None,
        changepoint_kwargs: dict | None = None,
    ) -> None:
        if not 0.0 < min_bin_fraction < 1.0:
            raise InvalidSampleError(
                f"min_bin_fraction must be in (0, 1), got {min_bin_fraction}"
            )
        values = validate_sample(sample, domain)
        if bandwidth_rule is None:
            from repro.bandwidth.normal_scale import kernel_bandwidth

            bandwidth_rule = kernel_bandwidth

        kwargs = dict(changepoint_kwargs or {})
        kwargs.setdefault("max_points", max_changepoints)
        points = detect_change_points(values, domain, **kwargs)
        sorted_values = np.sort(values)
        edges = self._merge_small_bins(sorted_values, domain, points, min_bin_fraction)
        offsets = bin_offsets(sorted_values, edges)

        self._domain = domain
        self._n = int(values.size)
        self._edges = edges
        self._bins: list[Interval] = domain.subdivide(edges[1:-1])
        self._weights = np.diff(offsets) / self._n
        bandwidths = [
            self._bin_bandwidth(
                sorted_values[offsets[index] : offsets[index + 1]],
                interval,
                bandwidth_rule,
            )
            for index, interval in enumerate(self._bins)
        ]
        self._flat = build_flat(
            sorted_values,
            edges,
            offsets,
            self._weights,
            np.array([h is not None for h in bandwidths]),
            np.array([1.0 if h is None else h for h in bandwidths]),
        )

    @staticmethod
    def _merge_small_bins(
        sorted_values: np.ndarray,
        domain: Interval,
        points: np.ndarray,
        min_bin_fraction: float,
    ) -> np.ndarray:
        """Drop change points until every bin is sufficiently populated.

        Greedy: while some bin holds less than the minimum fraction,
        remove the interior boundary that separates it from its
        lighter neighbour.  Bin populations come from the same
        ``searchsorted`` rule as every other binning step
        (:func:`bin_offsets`), so a sample exactly on an interior edge
        is counted by the bin that will actually own it.
        """
        edges = np.concatenate(([domain.low], np.asarray(points, dtype=np.float64), [domain.high]))
        minimum = min_bin_fraction * sorted_values.size
        while edges.size > 2:
            counts = np.diff(bin_offsets(sorted_values, edges))
            light = int(np.argmin(counts))
            if counts[light] >= minimum:
                break
            if light == 0:
                drop = 1
            elif light == counts.size - 1:
                drop = edges.size - 2
            else:
                # Merge towards the lighter neighbour.
                drop = light if counts[light - 1] <= counts[light + 1] else light + 1
            edges = np.delete(edges, drop)
        return edges

    @staticmethod
    def _bin_bandwidth(
        in_bin: np.ndarray,
        interval: Interval,
        bandwidth_rule: Callable[[np.ndarray], float],
    ) -> float | None:
        """The bin's kernel bandwidth, or ``None`` for a uniform bin."""
        if in_bin.size < MIN_KERNEL_SAMPLES:
            return None
        try:
            bandwidth = float(bandwidth_rule(in_bin))
        except EstimatorError:
            # Degenerate bins (all duplicates => zero scale) cannot
            # support a kernel estimate.
            return None
        # Non-finite bandwidths (a rule dividing by a zero scale can
        # produce NaN/inf) must be caught *before* the clamp, which
        # would silently coerce them to the cap.
        if not np.isfinite(bandwidth):
            return None
        # Cap the bandwidth at a quarter of the bin width so the two
        # boundary regions never cover more than half the bin.  The
        # looser half-width cap (which only keeps the regions disjoint)
        # lets oversmoothed bins degenerate into pure boundary
        # correction, whose signed-kernel dips grow with ``h``; also
        # guard degenerate zero bandwidths from duplicate-heavy bins.
        bandwidth = clamp_bandwidth(bandwidth, interval.width / 2.0)
        if bandwidth <= 0:
            return None
        return bandwidth

    @property
    def sample_size(self) -> int:
        return self._n

    @property
    def domain(self) -> Interval:
        """Attribute domain."""
        return self._domain

    @property
    def bins(self) -> list[Interval]:
        """The change-point partition after merging."""
        return list(self._bins)

    @property
    def change_points(self) -> np.ndarray:
        """Interior bin boundaries actually in use."""
        return self._edges[1:-1].copy()

    @property
    def bin_weights(self) -> np.ndarray:
        """Sample mass fraction per bin."""
        return self._weights.copy()

    def selectivity(self, a: float, b: float) -> float:
        a, b = validate_query(a, b)
        return float(self.selectivities(np.array([a]), np.array([b]))[0])

    def selectivities(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched selectivity over the partition.

        The flat layout answers the whole batch with two
        ``searchsorted`` calls plus segmented reductions across all
        bins at once.  Per-bin estimates are renormalized to unit mass
        over the bin before weighting (see
        :func:`repro.core.hybrid_flat.build_flat`).
        """
        a, b = validate_query_batch(a, b)
        shape = np.broadcast(a, b).shape
        flat_a = np.broadcast_to(a, shape).astype(np.float64, copy=False).ravel()
        flat_b = np.broadcast_to(b, shape).astype(np.float64, copy=False).ravel()
        total = flat_selectivities(self._flat, flat_a, flat_b)
        return np.clip(total, 0.0, 1.0).reshape(shape)

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return flat_density(self._flat, x.ravel()).reshape(x.shape)
