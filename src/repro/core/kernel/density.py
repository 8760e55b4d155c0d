"""Pointwise kernel density and derivative estimation.

The smoothing-parameter machinery needs more than selectivities: the
direct plug-in rule (paper §4.3) estimates the roughness functionals
``R(f') = int f'(x)^2 dx`` and ``R(f'') = int f''(x)^2 dx``, and the
hybrid estimator's change-point detector (paper §3.3) scans the
estimated second derivative.  Both need smooth derivative estimates,
so this module evaluates Gaussian-kernel density derivatives (the
Gaussian has analytic derivatives of every order); selectivity
estimation itself stays on the Epanechnikov kernel as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import InvalidSampleError, validate_sample
from repro.core.kernel.estimator import (
    PickFn,
    _validate_bandwidth,
    segment_window_multi_sums,
)
from repro.data.domain import Interval

#: Hermite-polynomial factors of the standard normal density:
#: ``phi^(r)(t) = He_r(t) * phi(t)`` with signs folded in.
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _phi(t: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * t * t) / _SQRT_2PI


def _phi_d1(t: np.ndarray) -> np.ndarray:
    return -t * _phi(t)


def _phi_d2(t: np.ndarray) -> np.ndarray:
    return (t * t - 1.0) * _phi(t)


def _phi_d3(t: np.ndarray) -> np.ndarray:
    return (3.0 * t - t * t * t) * _phi(t)


def _phi_d4(t: np.ndarray) -> np.ndarray:
    tt = t * t
    return (tt * tt - 6.0 * tt + 3.0) * _phi(t)


_DERIVATIVES = {0: _phi, 1: _phi_d1, 2: _phi_d2, 3: _phi_d3, 4: _phi_d4}


def _hermite_factor(t: np.ndarray, order: int) -> np.ndarray:
    """The polynomial factor of ``phi^(order)`` (without ``phi``)."""
    if order == 1:
        return -t
    if order == 2:
        return t * t - 1.0
    if order == 3:
        return 3.0 * t - t * t * t
    tt = t * t
    return tt * tt - 6.0 * tt + 3.0


#: Gaussian effective support in standard deviations for derivative
#: evaluation windows.
_REACH = 9.0

#: Minimum bandwidth-to-grid-step ratio for the linear-binned grid
#: path.  Binning error scales like ``(step / g)^2`` (and worsens with
#: derivative order), so the approximation is only taken when the
#: kernel is much wider than the grid spacing; below the ratio the
#: exact windowed path is used — and is cheap there, because narrow
#: kernels mean narrow windows.
BINNED_MIN_RATIO = 4.0


class KernelDensity:
    """Gaussian-kernel density with analytic derivatives.

    Parameters
    ----------
    sample:
        Sample set.
    bandwidth:
        Gaussian bandwidth ``g``.  Note Gaussian bandwidths are *not*
        interchangeable with Epanechnikov ones; see
        :func:`repro.bandwidth.scale.to_gaussian_bandwidth`.
    domain:
        Optional domain used to bound evaluation grids.
    """

    def __init__(
        self,
        sample: np.ndarray,
        bandwidth: float,
        domain: Interval | None = None,
    ) -> None:
        self._sorted = np.sort(validate_sample(sample, domain))
        self._g = _validate_bandwidth(bandwidth)
        self._domain = domain

    @property
    def bandwidth(self) -> float:
        """The Gaussian bandwidth ``g``."""
        return self._g

    @property
    def sample_size(self) -> int:
        """Number of samples."""
        return int(self._sorted.size)

    def derivative(
        self, x: np.ndarray, order: int = 0, *, binned: bool = False
    ) -> np.ndarray:
        """Evaluate the ``order``-th derivative of the KDE at ``x``.

        ``f_hat^(r)(x) = (1 / (n g^(r+1))) * sum phi^(r)((x - X_i) / g)``.
        Orders 0 through 4 are supported (4 is what the plug-in rule's
        stage functionals need).  ``binned=True`` permits the
        linear-binned grid approximation (see :meth:`derivatives`).
        """
        return self.derivatives(x, (order,), binned=binned)[order]

    def derivatives(
        self,
        x: np.ndarray,
        orders: "tuple[int, ...]",
        *,
        binned: bool = False,
    ) -> "dict[int, np.ndarray]":
        """Evaluate several KDE derivative orders at ``x`` in one pass.

        All orders share the windowing and — on the NumPy path — the
        single expensive ``exp`` evaluation (each Hermite factor is a
        cheap polynomial on top of the same ``phi``), so asking for
        ``(0, 1, 2)`` together costs barely more than one order.

        With ``binned=True`` and ``x`` a uniform grid whose spacing is
        much finer than the bandwidth (:data:`BINNED_MIN_RATIO`), the
        sums are evaluated by linear-binning the sample onto the grid
        and convolving with the kernel vector — ``O(n + G * K)`` with
        relative error ``O((step / g)^2)`` instead of ``O(G * n)``
        exact work.  When the gate does not apply the exact path runs,
        so ``binned=True`` callers degrade in speed, never accuracy.
        """
        unique: list[int] = []
        for order in orders:
            if order not in _DERIVATIVES:
                raise InvalidSampleError(
                    f"derivative order must be in {sorted(_DERIVATIVES)}, got {order}"
                )
            if order not in unique:
                unique.append(order)
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        flat = np.ascontiguousarray(x.ravel())
        sums = self._binned_sums(flat, unique) if binned else None
        if sums is None:
            sums = self._windowed_sums(flat, unique)
        n, g = self._sorted.size, self._g
        return {
            order: (sums[order] / (n * g ** (order + 1))).reshape(x.shape)
            for order in unique
        }

    def _windowed_sums(
        self, flat: np.ndarray, orders: "list[int]"
    ) -> "dict[int, np.ndarray]":
        """Exact ``sum_i phi^(r)((x_j - X_i) / g)`` per point and order."""
        sample, g = self._sorted, self._g
        reach = _REACH * g
        inv_g = 1.0 / g
        lo = np.searchsorted(sample, flat - reach, side="left")
        hi = np.searchsorted(sample, flat + reach, side="right")

        def prepare(pick: PickFn, i: np.ndarray) -> object:
            t = pick(flat)
            t -= sample[i]
            t *= inv_g
            phi = np.exp(-0.5 * t * t)
            phi /= _SQRT_2PI
            return t, phi

        def term(shared: object, _order: int = 0) -> np.ndarray:
            t, phi = shared  # type: ignore[misc]
            if _order == 0:
                return phi  # type: ignore[no-any-return]
            return _hermite_factor(t, _order) * phi

        terms = [lambda shared, _o=order: term(shared, _o) for order in orders]
        sums = segment_window_multi_sums(lo, hi, prepare, terms)
        return dict(zip(orders, sums))

    def _binned_sums(
        self, flat: np.ndarray, orders: "list[int]"
    ) -> "dict[int, np.ndarray] | None":
        """Linear-binned convolution sums on a uniform grid, or ``None``.

        The sample is spread onto the grid nodes (extended to cover
        samples outside the evaluation range) with linear weights, and
        each derivative order becomes one discrete convolution with the
        kernel vector ``phi^(r)(d * step / g)``.  Returns ``None`` when
        ``flat`` is not a uniform ascending grid or the spacing is too
        coarse relative to the bandwidth for the binning error bound.
        """
        if flat.size < 8:
            return None
        step = (float(flat[-1]) - float(flat[0])) / (flat.size - 1)
        if not np.isfinite(step) or step <= 0.0:
            return None
        if not np.allclose(np.diff(flat), step, rtol=1e-9, atol=1e-12 * step):
            return None
        g = self._g
        if g < BINNED_MIN_RATIO * step:
            return None
        sample = self._sorted
        pad_lo = max(0, int(np.ceil((float(flat[0]) - float(sample[0])) / step)))
        pad_hi = max(0, int(np.ceil((float(sample[-1]) - float(flat[-1])) / step)))
        padded = flat.size + pad_lo + pad_hi
        origin = float(flat[0]) - pad_lo * step
        position = (sample - origin) / step
        node = np.clip(np.floor(position).astype(np.intp), 0, padded - 2)
        frac = position - node
        weights = np.bincount(node, weights=1.0 - frac, minlength=padded)
        weights += np.bincount(node + 1, weights=frac, minlength=padded)
        half = min(int(np.ceil(_REACH * g / step)), padded - 1)
        t_kernel = np.arange(-half, half + 1, dtype=np.float64) * (step / g)
        sums: dict[int, np.ndarray] = {}
        for order in orders:
            kernel = _DERIVATIVES[order](t_kernel)
            # full convolution: value at padded node ``i`` is
            # ``sum_m weights[m] * phi^(r)((i - m) step / g)`` =
            # ``conv[i + half]``.
            conv = np.convolve(weights, kernel)
            sums[order] = conv[pad_lo + half : pad_lo + half + flat.size].copy()
        return sums

    def density(self, x: np.ndarray) -> np.ndarray:
        """The KDE itself (order-0 derivative)."""
        return self.derivative(x, order=0)

    def grid(self, points: int = 512, pad: float = 3.0) -> np.ndarray:
        """An evaluation grid covering the sample (or declared domain).

        The grid spans the domain when one was given, otherwise the
        sample range padded by ``pad`` bandwidths.
        """
        if points < 2:
            raise InvalidSampleError(f"grid needs at least 2 points, got {points}")
        if self._domain is not None:
            lo, hi = self._domain.low, self._domain.high
        else:
            lo = self._sorted[0] - pad * self._g
            hi = self._sorted[-1] + pad * self._g
        return np.linspace(lo, hi, points)

    def roughness(self, order: int, points: int = 512, *, binned: bool = True) -> float:
        """Estimate ``R(f^(order)) = int f^(order)(x)^2 dx`` on a grid.

        This is the plug-in estimate of the unknown functional in the
        AMISE-optimal formulas (paper eqs. 7 and 9): ``order=1`` feeds
        the histogram bin-width rule, ``order=2`` the kernel bandwidth
        rule.  The grid is uniform and plug-in stage bandwidths are
        wide, so the binned fast path applies by default; pass
        ``binned=False`` to force the exact evaluation.
        """
        grid = self.grid(points)
        values = self.derivative(grid, order=order, binned=binned)
        return float(np.trapezoid(values * values, grid))
