"""One-stop factories for every estimator in the paper.

The core classes take explicit smoothing parameters; these factories
wire in the paper's default selection rules so a user can build any
estimator from just a sample and a domain::

    est = estimators.kernel(sample, domain)            # boundary kernels + NS
    est = estimators.kernel(sample, domain, bandwidth="plug-in")
    est = estimators.equi_width(sample, domain)        # NS bin count
    est = estimators.hybrid(sample, domain)

String smoothing parameters select a rule (``"normal-scale"`` or
``"plug-in"``); numbers are used verbatim.
"""

from __future__ import annotations

import numpy as np

from repro.bandwidth.normal_scale import histogram_bin_count, kernel_bandwidth
from repro.bandwidth.plugin import plugin_bandwidth, plugin_bin_count
from repro.bandwidth.scale import clamp_bandwidth
from repro.core.base import InvalidSampleError, SelectivityEstimator
from repro.core.histogram import (
    AverageShiftedHistogram,
    EndBiasedHistogram,
    EquiDepthHistogram,
    EquiWidthHistogram,
    MaxDiffHistogram,
    UniformEstimator,
    VOptimalHistogram,
    WaveletHistogram,
)
from repro.core.hybrid import HybridEstimator
from repro.core.kernel import make_kernel_estimator
from repro.core.kernel.functions import EPANECHNIKOV, KernelFunction
from repro.core.sampling import SamplingEstimator
from repro.data.domain import Interval

#: Rules accepted wherever a smoothing parameter may be a string.
RULES = ("normal-scale", "plug-in")


def _require_domain(domain: Interval | None) -> Interval:
    """The declared domain, which every histogram and the hybrid need."""
    if domain is None:
        raise InvalidSampleError("a domain is required to build this estimator")
    return domain


def _resolve_bins(bins: "int | str", sample: np.ndarray, domain: Interval) -> int:
    if isinstance(bins, str):
        if bins == "normal-scale":
            return histogram_bin_count(sample, domain)
        if bins == "plug-in":
            return plugin_bin_count(sample, domain)
        raise InvalidSampleError(f"unknown bin rule {bins!r}; expected one of {RULES}")
    if bins < 1:
        raise InvalidSampleError(f"need at least one bin, got {bins}")
    return int(bins)


def _resolve_bandwidth(
    bandwidth: "float | str",
    sample: np.ndarray,
    domain: Interval | None,
    kernel_function: "KernelFunction | str",
) -> float:
    if isinstance(bandwidth, str):
        if bandwidth == "normal-scale":
            return kernel_bandwidth(sample, kernel_function)
        if bandwidth == "plug-in":
            return plugin_bandwidth(sample, kernel=kernel_function, domain=domain)
        raise InvalidSampleError(
            f"unknown bandwidth rule {bandwidth!r}; expected one of {RULES}"
        )
    return float(bandwidth)


def sampling(
    sample: np.ndarray, domain: Interval | None = None
) -> SamplingEstimator:
    """Pure sampling estimator."""
    return SamplingEstimator(sample, domain)


def uniform(domain: Interval) -> UniformEstimator:
    """System R's uniform-assumption estimator."""
    return UniformEstimator(domain)


def equi_width(
    sample: np.ndarray,
    domain: Interval | None = None,
    bins: "int | str" = "normal-scale",
) -> EquiWidthHistogram:
    """Equi-width histogram; ``bins`` may be a count or a rule name."""
    domain = _require_domain(domain)
    return EquiWidthHistogram(sample, domain, _resolve_bins(bins, sample, domain))


def equi_depth(
    sample: np.ndarray,
    domain: Interval | None = None,
    bins: "int | str" = "normal-scale",
) -> EquiDepthHistogram:
    """Equi-depth histogram.

    No bin-count theory exists for equi-depth histograms; the paper
    observes the equi-width rules carry over reasonably (§5.2.4), so
    the same rules are accepted here.
    """
    domain = _require_domain(domain)
    return EquiDepthHistogram(sample, _resolve_bins(bins, sample, domain), domain)


def max_diff(
    sample: np.ndarray,
    domain: Interval | None = None,
    bins: "int | str" = "normal-scale",
) -> MaxDiffHistogram:
    """Max-diff histogram (same bin-count convention as equi-depth)."""
    domain = _require_domain(domain)
    return MaxDiffHistogram(sample, _resolve_bins(bins, sample, domain), domain)


def ash(
    sample: np.ndarray,
    domain: Interval | None = None,
    bins: "int | str" = "normal-scale",
    shifts: int = 10,
) -> AverageShiftedHistogram:
    """Average shifted histogram (ten shifts, as in the paper)."""
    domain = _require_domain(domain)
    return AverageShiftedHistogram(
        sample, domain, _resolve_bins(bins, sample, domain), shifts=shifts
    )


def v_optimal(
    sample: np.ndarray,
    domain: Interval | None = None,
    bins: "int | str" = "normal-scale",
) -> VOptimalHistogram:
    """V-optimal histogram (SSE-minimizing boundaries, refs [2]/[7])."""
    domain = _require_domain(domain)
    return VOptimalHistogram(sample, domain, _resolve_bins(bins, sample, domain))


def wavelet(
    sample: np.ndarray,
    domain: Interval | None = None,
    coefficients: int = 32,
) -> WaveletHistogram:
    """Haar-wavelet compressed estimator (ref [4])."""
    domain = _require_domain(domain)
    return WaveletHistogram(sample, domain, coefficients)


def end_biased(
    sample: np.ndarray,
    domain: Interval | None = None,
    top: int = 16,
) -> EndBiasedHistogram:
    """End-biased histogram: exact top-``top`` values + uniform rest."""
    domain = _require_domain(domain)
    return EndBiasedHistogram(sample, domain, top)


def kernel(
    sample: np.ndarray,
    domain: Interval | None = None,
    bandwidth: "float | str" = "normal-scale",
    *,
    boundary: str | None = None,
    kernel_function: "KernelFunction | str" = EPANECHNIKOV,
) -> SelectivityEstimator:
    """Kernel selectivity estimator.

    ``boundary`` defaults to Simonoff–Dong boundary kernels when a
    domain is available and to no treatment otherwise.  Bandwidths are
    clamped so the two boundary regions never overlap.
    """
    if boundary is None:
        boundary = "kernel" if domain is not None else "none"
    h = _resolve_bandwidth(bandwidth, sample, domain, kernel_function)
    if domain is not None and boundary != "none":
        h = clamp_bandwidth(h, domain.width)
    return make_kernel_estimator(
        sample, h, domain, boundary=boundary, kernel=kernel_function
    )


def hybrid(
    sample: np.ndarray,
    domain: Interval | None = None,
    **kwargs: object,
) -> HybridEstimator:
    """The paper's hybrid histogram-kernel estimator."""
    domain = _require_domain(domain)
    return HybridEstimator(sample, domain, **kwargs)


#: Factories for the paper's Fig. 12 line-up, keyed by the labels used
#: in the figure.
PAPER_LINEUP = {
    "EWH": equi_width,
    "Kernel": kernel,
    "Hybrid": hybrid,
    "ASH": ash,
}
