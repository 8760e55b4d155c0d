"""Change-point detection via the estimated second derivative (paper §3.3).

The hybrid estimator partitions the domain at *change points* — points
where the true PDF changes considerably.  The paper detects them with
the second derivative of a (smooth) density estimate: the first change
point is the location of the maximum of ``|f''|``, and further points
are found recursively.  The rationale is that the kernel estimator's
asymptotic error is driven by ``R(f'')`` (paper §4.2), so removing the
maxima of the second derivative from any single bin's interior lowers
the achievable error inside every bin.

Three refinements make the textbook recipe usable in practice:

* **Boundary reflection.**  An untreated KDE rolls off to zero at the
  domain edges, which manufactures enormous phantom curvature there.
  Derivatives are therefore estimated on a boundary-reflected sample.
* **Noise floor.**  On smooth data ``f'' = 0`` and the estimated
  curvature is pure sampling noise.  The pointwise standard deviation
  of a Gaussian-KDE second derivative is
  ``sqrt(f(x) * R(phi'') / (n * g^5))``; only curvature several sigmas
  above it counts as structure.
* **Jump refinement.**  For a *jump* of the density the smoothed
  ``|f''|`` peaks at +-g around the jump (it is ``|phi'|`` of the
  smoothed step) while ``|f'|`` peaks exactly at it; each detected
  point is therefore refined to an interior peak of ``|f'|`` when one
  exists.  For a *kink* (slope change) ``|f''|`` is already centered
  and the refinement leaves it alone.

The greedy maxima-with-separation search is exactly the paper's
recursive scheme: after each split the next global maximum over all
segment interiors is the next recursive maximum.  Blocking only grows,
so the search visits the candidates once, in decreasing-curvature
order, and skips the blocked ones (``tests/changepoint_oracle.py``
keeps the argmax-per-iteration loop it replaces as a test oracle).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import InvalidSampleError, validate_sample
from repro.core.kernel.density import KernelDensity
from repro.data.domain import Interval

#: Roughness of the standard normal's second derivative,
#: ``R(phi'') = 3 / (8 sqrt(pi))`` — the constant in the curvature
#: noise floor.
_R_PHI2 = 3.0 / (8.0 * np.sqrt(np.pi))


def pilot_bandwidth(sample: np.ndarray, order: int = 2) -> float:
    """Generalized normal-scale pilot for derivative estimation.

    ``g = s * (4 / ((2 r + 1) n))^(1 / (2 r + 5))`` — Silverman's rule
    extended to the estimation of the ``r``-th density derivative.  It
    only needs to land in the right ballpark: the detector looks for
    the *locations* of second-derivative extremes, not their values.
    """
    from repro.bandwidth.scale import robust_scale

    values = np.asarray(sample, dtype=np.float64)
    n = values.size
    s = robust_scale(values)
    return s * (4.0 / ((2.0 * order + 1.0) * n)) ** (1.0 / (2.0 * order + 5.0))


def _reflected(sample: np.ndarray, domain: Interval, reach: float) -> np.ndarray:
    """Mirror boundary-adjacent samples so KDE derivatives see a flat
    continuation instead of a rolloff at the domain edges."""
    left = sample[sample < domain.low + reach]
    right = sample[sample > domain.high - reach]
    return np.concatenate([sample, 2.0 * domain.low - left, 2.0 * domain.high - right])


def detect_change_points(
    sample: np.ndarray,
    domain: Interval,
    *,
    max_points: int = 8,
    min_separation: float = 0.04,
    relative_threshold: float = 0.05,
    significance: float = 4.0,
    grid_points: int = 512,
    bandwidth: float | None = None,
) -> np.ndarray:
    """Find density change points inside the domain.

    Parameters
    ----------
    sample:
        Sample set.
    domain:
        Attribute domain; change points are strictly interior.
    max_points:
        Upper bound on the number of change points returned.
    min_separation:
        Minimum distance between change points (and to the domain
        edges) as a fraction of the domain width.  Prevents splintering
        the domain into unusably thin bins.
    relative_threshold:
        Stop once the next maximum of ``|f''|`` falls below this
        fraction of the global maximum — smaller wiggles are not worth
        a bin of their own even when statistically real.
    significance:
        Minimum ratio of ``|f''|`` to its pointwise sampling noise; a
        few sigmas keep smooth densities from splintering on noise.
    grid_points:
        Resolution of the evaluation grid.
    bandwidth:
        Gaussian pilot bandwidth; default :func:`pilot_bandwidth`.

    Returns
    -------
    numpy.ndarray
        Sorted change-point positions (possibly empty).
    """
    if max_points < 0:
        raise InvalidSampleError(f"max_points must be non-negative, got {max_points}")
    if not 0.0 < min_separation < 0.5:
        raise InvalidSampleError(
            f"min_separation must be in (0, 0.5) as a domain fraction, got {min_separation}"
        )
    if significance < 0:
        raise InvalidSampleError(f"significance must be non-negative, got {significance}")
    values = validate_sample(sample, domain)
    if max_points == 0 or values.size < 4:
        return np.empty(0)
    if bandwidth is None:
        try:
            bandwidth = pilot_bandwidth(values)
        except InvalidSampleError:
            # Zero-scale samples (all duplicates) have no structure to
            # partition.
            return np.empty(0)
    if bandwidth <= 0:
        return np.empty(0)

    n = values.size
    g = float(bandwidth)
    # Degenerate scales: g**5 under/overflow would poison the noise
    # floor, and no meaningful structure exists at such scales anyway.
    if not np.isfinite(g) or g**5 == 0.0 or not np.isfinite(g**5):
        return np.empty(0)
    reflected = _reflected(values, domain, 8.0 * g)
    kde = KernelDensity(reflected, g)
    grid = np.linspace(domain.low, domain.high, grid_points)
    # The reflected array dilutes the normalization; rescale to the
    # original sample size so density magnitudes stay meaningful.
    correction = reflected.size / n
    # One shared evaluation for all three orders; the pilot bandwidth
    # is far wider than the grid step, so the binned path applies.
    stack = kde.derivatives(grid, (0, 1, 2), binned=True)
    density = np.maximum(stack[0] * correction, 0.0)
    slope = stack[1] * correction
    curvature = np.abs(stack[2] * correction)

    # Pointwise sampling noise of the estimated second derivative.
    noise = np.sqrt(density * _R_PHI2 / (n * g**5))
    significant = curvature > significance * noise

    separation = min_separation * domain.width
    margin = max(separation, g)
    interior = (grid >= domain.low + margin) & (grid <= domain.high - margin)
    candidates = np.where(significant & interior, curvature, 0.0)
    peak = candidates.max()
    if peak <= 0:
        return np.empty(0)

    step = grid[1] - grid[0]
    refine_radius = max(1, int(round(1.5 * g / step)))
    # The greedy loop takes the largest unblocked candidate at or above
    # the threshold, and blocking only ever grows, so visiting the
    # candidates once in decreasing order (stable: ties go to the lower
    # index, as argmax does) takes the same maxima in the same order.
    order = np.argsort(-candidates, kind="stable")
    order = order[: np.count_nonzero((candidates >= relative_threshold * peak) & (candidates > 0))]
    targets = _jump_targets(slope, order, refine_radius)
    positions = grid.tolist()
    windows: dict[int, np.ndarray] = {}
    chosen: list[float] = []
    blocked = np.zeros(grid.size, dtype=bool)
    for index, target in zip(order.tolist(), targets.tolist()):
        if blocked[index]:
            continue
        position = positions[target]
        window = windows.get(target)
        if window is None:
            window = windows[target] = np.abs(grid - position) < separation
        blocked |= window
        # Several curvature peaks can refine onto one density jump
        # (|f''| peaks on both sides of it); keep each jump once.
        if all(abs(position - previous) >= separation for previous in chosen):
            chosen.append(position)
            if len(chosen) == max_points:
                break
    return np.sort(np.asarray(chosen))


def _jump_targets(slope: np.ndarray, indices: np.ndarray, radius: int) -> np.ndarray:
    """Grid index each curvature peak in ``indices`` refines to.

    Snaps a peak to the nearby ``|f'|`` peak when one exists.  A density
    *jump* puts its ``|f''|`` maxima one pilot bandwidth to either side
    of the jump while ``|f'|`` peaks exactly on it.  A *kink* has no
    interior ``|f'|`` peak nearby, so its curvature location is kept.
    The window of ``index`` is ``|f'|`` over ``index ± radius`` clipped
    to the grid; its first maximum counts when it is strictly inside
    the clipped window and positive.
    """
    magnitude = np.abs(slope)
    pad = np.full(radius, -np.inf)
    padded = np.concatenate([pad, magnitude, pad])
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * radius + 1)[indices]
    peak = indices - radius + np.argmax(windows, axis=1)
    lo = np.maximum(indices - radius, 0)
    hi = np.minimum(indices + radius + 1, magnitude.size)
    snap = (peak > lo) & (peak < hi - 1) & (magnitude[peak] > 0)
    return np.where(snap, peak, indices)
