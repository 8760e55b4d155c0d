"""Robust scale estimation (paper §4.1).

The normal scale rules need the standard deviation ``s`` of the
unknown PDF.  The paper estimates it as the **minimum** of the sample
standard deviation and the interquartile range divided by 1.348 (the
IQR of a standard normal), because the plain standard deviation was
observed to oversmooth: outliers and heavy tails inflate the standard
deviation while barely moving the IQR.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import InvalidSampleError, validate_sample
from repro.telemetry import get_telemetry

#: IQR of the standard normal distribution: ``2 * Phi^-1(0.75)``.
NORMAL_IQR = 1.348

#: Largest bandwidth-to-width ratio the boundary treatments allow: the
#: left and right boundary regions (each one bandwidth wide) must not
#: overlap, so ``h`` is capped just below half the domain width.
MAX_BANDWIDTH_FRACTION = 0.499

#: Canonical-bandwidth ratio between the Gaussian and Epanechnikov
#: kernels, ``delta_gauss / delta_epan`` with
#: ``delta = (R(K) / k2^2)^(1/5)``.  Multiplying an Epanechnikov
#: bandwidth by this converts it to the Gaussian bandwidth with the
#: same amount of smoothing.
GAUSS_TO_EPANECHNIKOV = ((0.5 / np.sqrt(np.pi)) / 15.0) ** 0.2


#: Probabilities of the lower and upper quartile.
QUARTILES = np.array([0.25, 0.75])


def sorted_quantiles(ordered: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(ordered, q)`` of an ascending array, without sorting.

    The same arithmetic as NumPy's default ``"linear"`` method: the
    virtual index ``(n - 1) q``, its floor, and the two-sided lerp that
    switches to ``b - (b - a)(1 - gamma)`` at ``gamma >= 0.5``.  So the
    result equals ``np.quantile``'s; only the sign of a zero may differ,
    because ``np.quantile`` partitions and a partition may order ``-0.0``
    and ``0.0`` differently from a sort.
    """
    virtual = (ordered.size - 1) * q
    lower = np.floor(virtual)
    index = lower.astype(np.intp)
    a = ordered[index]
    b = ordered[np.minimum(index + 1, ordered.size - 1)]
    gamma = virtual - lower
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)


def iqr(sample: np.ndarray) -> float:
    """Interquartile range (0.75 quantile minus 0.25 quantile)."""
    values = validate_sample(sample)
    q1, q3 = sorted_quantiles(np.sort(values), QUARTILES)
    return float(q3 - q1)


def robust_scale(sample: np.ndarray) -> float:
    """The paper's scale estimate ``min(sd, IQR / 1.348)``.

    Falls back to whichever of the two is positive when the other
    collapses to zero (heavy duplicates can zero the IQR while the
    standard deviation stays informative, and vice versa).

    Raises
    ------
    InvalidSampleError
        If both estimates are zero — every sample value is identical,
        so no scale exists.
    """
    values = validate_sample(sample)
    sd = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    robust = iqr(values) / NORMAL_IQR
    candidates = [x for x in (sd, robust) if x > 0]
    if not candidates:
        raise InvalidSampleError("sample has zero scale (all values identical)")
    return min(candidates)


def clamp_bandwidth(bandwidth: float, width: float) -> float:
    """Cap ``bandwidth`` at :data:`MAX_BANDWIDTH_FRACTION` of ``width``.

    Boundary treatments assume the two boundary regions are disjoint;
    selection rules occasionally propose a bandwidth wider than half
    the (sub)domain, especially on narrow hybrid bins.  Each clamp is
    counted as the ``estimator.bandwidth.clamp`` telemetry event so
    traced runs reveal how often the rules run into the cap.
    """
    limit = MAX_BANDWIDTH_FRACTION * float(width)
    if bandwidth <= limit:
        return float(bandwidth)
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.metrics.inc("estimator.bandwidth.clamp")
    return limit


def to_gaussian_bandwidth(epanechnikov_bandwidth: float) -> float:
    """Convert an Epanechnikov bandwidth to its Gaussian equivalent.

    Uses the canonical-kernel rescaling, so a Gaussian KDE with the
    returned bandwidth smooths as much as the Epanechnikov estimator
    with the input bandwidth.  Needed wherever the pipeline mixes the
    two kernels (plug-in pilots, change-point detection).
    """
    if epanechnikov_bandwidth <= 0:
        raise InvalidSampleError(
            f"bandwidth must be positive, got {epanechnikov_bandwidth}"
        )
    return float(epanechnikov_bandwidth * GAUSS_TO_EPANECHNIKOV)
