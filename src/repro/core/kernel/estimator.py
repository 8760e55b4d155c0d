"""Algorithm 1: the kernel selectivity estimator (paper §3.2).

The estimator integrates a kernel density estimate over the query
range (paper eq. 6):

.. math::

   \\hat\\sigma_K(a, b) = \\frac{1}{n} \\sum_{i=1}^{n}
       \\Big( C\\big(\\tfrac{b - X_i}{h}\\big)
            - C\\big(\\tfrac{a - X_i}{h}\\big) \\Big)

where ``C`` is the kernel CDF.  Algorithm 1 of the paper is the
observation that most terms are exactly 0 or 1: only samples within
one bandwidth of a query endpoint need the primitive evaluated.  With
the sample kept sorted this gives the ``O(log n + k)`` evaluation the
paper sketches (``k`` = samples near the endpoints).

The batch path is vectorized end to end: a whole query batch is
answered with two ``searchsorted`` calls plus one flattened
kernel-CDF evaluation over the per-endpoint windows, reduced by
segmented sums (``np.add.reduceat``) — no Python-level per-query
loop.  An exhaustive ``Theta(n)`` reference path
(:meth:`KernelSelectivityEstimator.selectivity_scan`) keeps the fast
path honest in tests.

This class applies **no boundary treatment** — its estimates are
biased near the domain edges, which is exactly the behaviour the
paper's Fig. 3 demonstrates.  Use :mod:`repro.core.kernel.boundary`
for the corrected estimators.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.base import (
    DensityEstimator,
    InvalidSampleError,
    validate_query,
    validate_query_batch,
    validate_sample,
)
from repro.core.kernel import moments as moments_mod
from repro.core.kernel.functions import EPANECHNIKOV, KernelFunction, get_kernel
from repro.data.domain import Interval

#: Cap on the flattened (query x window) work array of one vectorized
#: pass.  Batches whose windows would exceed it are processed in query
#: chunks, bounding peak memory at ~32 MB per intermediate array while
#: staying fully vectorized inside each chunk.
MAX_FLAT_WINDOW = 4_194_304


def _validate_bandwidth(bandwidth: float) -> float:
    bandwidth = float(bandwidth)
    if not np.isfinite(bandwidth) or bandwidth <= 0:
        raise InvalidSampleError(f"bandwidth must be a positive finite number, got {bandwidth}")
    return bandwidth


#: ``pick`` broadcasts a per-query array onto the flattened window
#: layout; a window term maps ``(pick, sample_idx)`` to per-element
#: kernel contributions.
PickFn = Callable[[np.ndarray], np.ndarray]
WindowTerm = Callable[[PickFn, np.ndarray], np.ndarray]
#: Multi-term variant: ``prepare`` builds shared per-element state
#: (e.g. the scaled offsets and one kernel evaluation) and each term
#: maps that state to its per-element contributions.
PrepareFn = Callable[[PickFn, np.ndarray], object]
SharedTerm = Callable[[object], np.ndarray]


def segment_window_sums(lo: np.ndarray, hi: np.ndarray, term: WindowTerm) -> np.ndarray:
    """Per-window sums of a kernel term over sorted-sample windows.

    For each window ``j`` spanning sample indices ``[lo[j], hi[j])``,
    computes ``sum_i term(j, i)`` fully vectorized: the windows are
    flattened into one index array, ``term`` is evaluated once over
    the flat arrays, and the per-window sums come from a segmented
    reduction.  Windows larger in aggregate than
    :data:`MAX_FLAT_WINDOW` are processed in query chunks.

    Parameters
    ----------
    lo, hi:
        Window boundaries (``hi >= lo``), one pair per query/point.
    term:
        Callable ``term(pick, sample_idx) -> float array`` where
        ``sample_idx`` is the flat array of window sample indices and
        ``pick(arr)`` expands a per-window array to the flat layout
        (``pick(arr)[k]`` is ``arr`` at the window the ``k``-th
        flattened element belongs to).  The flat arrays ``term``
        receives (and ``pick`` returns) are fresh, so it may mutate
        them in place.
    """

    def prepare(pick: PickFn, sample_idx: np.ndarray) -> object:
        return term(pick, sample_idx)

    def identity(values: object) -> np.ndarray:
        return values  # type: ignore[return-value]

    return segment_window_multi_sums(lo, hi, prepare, [identity])[0]


def segment_window_multi_sums(
    lo: np.ndarray,
    hi: np.ndarray,
    prepare: PrepareFn,
    terms: "list[SharedTerm]",
) -> "list[np.ndarray]":
    """Per-window sums of several kernel terms sharing one evaluation.

    Generalizes :func:`segment_window_sums` to terms that share
    expensive per-element state — e.g. the Gaussian derivative stack,
    where one ``exp`` evaluation feeds every Hermite order.
    ``prepare(pick, sample_idx)`` is called once per chunk and its
    result is handed to each ``terms[k]``, whose output is segment-
    reduced into the ``k``-th returned array.  Terms must not mutate
    the shared state they receive.
    """
    lo = np.asarray(lo, dtype=np.intp)
    hi = np.asarray(hi, dtype=np.intp)
    counts = hi - lo
    out = [np.zeros(counts.shape, dtype=np.float64) for _ in terms]
    if counts.size == 0:
        return out
    cumulative = np.cumsum(counts)
    total = int(cumulative[-1])
    if total == 0:
        return out
    start = 0
    while start < counts.size:
        base = int(cumulative[start - 1]) if start else 0
        stop = int(np.searchsorted(cumulative, base + MAX_FLAT_WINDOW, side="right")) + 1
        stop = max(start + 1, min(stop, counts.size))
        chunk_counts = counts[start:stop]
        chunk_total = int(cumulative[stop - 1]) - base
        if chunk_total:
            # Exclusive prefix sums double as the segment boundaries for
            # the reduction and the flattening shift: element ``k`` of
            # window ``j`` lands at flat position ``prefix[j] + k``, so
            # one ``repeat`` of ``lo - prefix`` plus one ``arange``
            # yields every window's sample indices at once.
            prefix = np.concatenate(([0], np.cumsum(chunk_counts)[:-1]))
            sample_idx = np.arange(chunk_total) + np.repeat(
                lo[start:stop] - prefix, chunk_counts
            )

            def pick(
                arr: np.ndarray,
                _s: int = start,
                _e: int = stop,
                _c: np.ndarray = chunk_counts,
            ) -> np.ndarray:
                return np.repeat(arr[_s:_e], _c)

            shared = prepare(pick, sample_idx)
            nonempty = chunk_counts > 0
            for k, term in enumerate(terms):
                values = term(shared)
                out[k][start:stop][nonempty] = np.add.reduceat(values, prefix[nonempty])
        start = stop
    return out


class KernelSelectivityEstimator(DensityEstimator):
    """Kernel selectivity estimator without boundary treatment.

    Parameters
    ----------
    sample:
        Sample set the estimator is built from.
    bandwidth:
        The smoothing parameter ``h`` (see :mod:`repro.bandwidth` for
        selection rules).
    kernel:
        Kernel function or registry name; the paper uses the
        Epanechnikov kernel.
    domain:
        Optional attribute domain (validation, CDF origin).
    """

    def __init__(
        self,
        sample: np.ndarray,
        bandwidth: float,
        kernel: "KernelFunction | str" = EPANECHNIKOV,
        domain: Interval | None = None,
        *,
        use_moments: bool = True,
    ) -> None:
        self._sorted = np.sort(validate_sample(sample, domain))
        self._sorted.flags.writeable = False
        self._h = _validate_bandwidth(bandwidth)
        self._kernel = get_kernel(kernel)
        self._domain = domain
        # Normalizing count: equals the stored sample size here, but the
        # reflection estimator stores mirrored copies while normalizing
        # by the original n (the mirrored mass belongs to its source
        # sample, paper §3.2.1).
        self._norm = int(self._sorted.size)
        # Prefix-moment O(1) window sums (Epanechnikov only; eager so
        # the estimator stays frozen after build).  The precision gate
        # keeps the polynomial-expansion cancellation far below 1e-12;
        # ``use_moments=False`` pins the per-sample path — the hybrid's
        # per-bin test oracle uses it so it stays numerically
        # independent of the flat layout's prefix moments.
        self._moments: moments_mod.PrefixMoments | None = None
        if (
            use_moments
            and self._kernel.name == "epanechnikov"
            and self._sorted.size > 0
            and moments_mod.half_spread(self._sorted)
            <= moments_mod.MOMENT_MAX_RATIO * self._h
        ):
            self._moments = moments_mod.build_moments(self._sorted)

    @property
    def sample_size(self) -> int:
        return self._norm

    @property
    def bandwidth(self) -> float:
        """The smoothing parameter ``h``."""
        return self._h

    @property
    def kernel(self) -> KernelFunction:
        """The kernel function ``K``."""
        return self._kernel

    @property
    def domain(self) -> Interval | None:
        """Attribute domain, if declared."""
        return self._domain

    @property
    def sorted_sample(self) -> np.ndarray:
        """The sorted sample (read-only view)."""
        return self._sorted

    def _cdf_sums(self, x: np.ndarray) -> np.ndarray:
        """``sum_i C((x_j - X_i) / h)`` for every point of flat ``x``.

        Samples more than one kernel reach below ``x`` contribute
        exactly 1 (counted via ``searchsorted``), samples above the
        reach contribute 0; only the window in between evaluates the
        kernel primitive — in O(1) per point through the prefix
        moments when available, else per sample.
        """
        sample, h = self._sorted, self._h
        reach = h * self._kernel.support
        lo = np.searchsorted(sample, x - reach, side="left")
        hi = np.searchsorted(sample, x + reach, side="right")
        inv_h = 1.0 / h
        if self._moments is not None:
            return lo + moments_mod.epan_cdf_sums(self._moments, x, inv_h, lo, hi)

        def term(pick: PickFn, i: np.ndarray) -> np.ndarray:
            t = pick(x)
            t -= sample[i]
            t *= inv_h
            return self._kernel.cdf(t)

        return lo + segment_window_sums(lo, hi, term)

    def density(self, x: np.ndarray) -> np.ndarray:
        """Pointwise KDE ``(1 / nh) * sum K((x - X_i) / h)``, vectorized."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        flat = np.ascontiguousarray(x.ravel())
        sample, h = self._sorted, self._h
        reach = h * self._kernel.support
        lo = np.searchsorted(sample, flat - reach, side="left")
        hi = np.searchsorted(sample, flat + reach, side="right")
        if self._moments is not None:
            sums = moments_mod.epan_pdf_sums(self._moments, flat, 1.0 / h, lo, hi)
        else:
            sums = segment_window_sums(
                lo, hi, lambda pick, i: self._kernel.pdf((pick(flat) - sample[i]) / h)
            )
        return (sums / (self._norm * h)).reshape(x.shape)

    def selectivity(self, a: float, b: float) -> float:
        a, b = validate_query(a, b)
        return float(self.selectivities(np.array([a]), np.array([b]))[0])

    def raw_selectivities(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Unclipped batch selectivities (may exit ``[0, 1]`` by fp noise).

        The building block :meth:`selectivities` clips; raw values let
        a caller renormalize an estimate's mass over its domain.
        Endpoints must already be validated ``float64`` arrays.
        """
        flat_a = np.ascontiguousarray(a.ravel())
        flat_b = np.ascontiguousarray(b.ravel())
        totals = self._cdf_sums(flat_b) - self._cdf_sums(flat_a)
        return (totals / self._norm).reshape(a.shape)

    def selectivities(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized Algorithm 1 over a batch of queries.

        Per query: samples fully below ``a - h`` contribute 0 to both
        CDF sums, samples fully below ``b - h`` and above ``a + h``
        contribute exactly 1, and only the samples near the endpoints
        evaluate the kernel primitive — all queries at once through
        segmented window sums.
        """
        a, b = validate_query_batch(a, b)
        return np.clip(self.raw_selectivities(a, b), 0.0, 1.0)

    def selectivity_scan(self, a: float, b: float) -> float:
        """Reference ``Theta(n)`` evaluation (the literal Algorithm 1 loop).

        Exists to cross-check the windowed fast path; prefer
        :meth:`selectivity`.
        """
        a, b = validate_query(a, b)
        h = self._h
        total = self._kernel.mass_between((a - self._sorted) / h, (b - self._sorted) / h).sum()
        return float(np.clip(total / self._norm, 0.0, 1.0))
