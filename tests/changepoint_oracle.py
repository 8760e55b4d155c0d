"""Argmax-per-iteration reference for the change-point search.

:func:`repro.core.changepoints.detect_change_points` visits its
candidates once, in decreasing-curvature order.  This oracle is the
loop that search replaced: every iteration masks the blocked grid
points, takes the ``argmax`` of what is left, refines it to a nearby
``|f'|`` peak and blocks a ``±separation`` window around the result.
The density derivatives come from the same (unchanged) steps as the
production function, so the two must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import InvalidSampleError, validate_sample
from repro.core.changepoints import _R_PHI2, _reflected, pilot_bandwidth
from repro.core.kernel.density import KernelDensity
from repro.data.domain import Interval


def greedy_change_points(
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
    """Change points by the argmax-per-iteration greedy loop."""
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
            return np.empty(0)
    if bandwidth <= 0:
        return np.empty(0)

    n = values.size
    g = float(bandwidth)
    if not np.isfinite(g) or g**5 == 0.0 or not np.isfinite(g**5):
        return np.empty(0)
    reflected = _reflected(values, domain, 8.0 * g)
    kde = KernelDensity(reflected, g)
    grid = np.linspace(domain.low, domain.high, grid_points)
    correction = reflected.size / n
    stack = kde.derivatives(grid, (0, 1, 2), binned=True)
    density = np.maximum(stack[0] * correction, 0.0)
    slope = stack[1] * correction
    curvature = np.abs(stack[2] * correction)

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
    chosen: list[float] = []
    blocked = ~(significant & interior)
    while len(chosen) < max_points:
        masked = np.where(blocked, 0.0, candidates)
        index = int(np.argmax(masked))
        value = masked[index]
        if value < relative_threshold * peak or value <= 0:
            break
        position = _refine_jump(grid, slope, index, refine_radius)
        blocked[index] = True
        blocked |= np.abs(grid - position) < separation
        if all(abs(position - previous) >= separation for previous in chosen):
            chosen.append(position)
    return np.sort(np.asarray(chosen))


def _refine_jump(grid: np.ndarray, slope: np.ndarray, index: int, radius: int) -> float:
    """Snap a curvature peak to the nearby interior ``|f'|`` peak, if any."""
    lo = max(0, index - radius)
    hi = min(grid.size, index + radius + 1)
    window = np.abs(slope[lo:hi])
    local = int(np.argmax(window))
    absolute = lo + local
    interior = 0 < local < window.size - 1
    if interior and window[local] > 0:
        return float(grid[absolute])
    return float(grid[index])
