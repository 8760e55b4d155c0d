"""Flat (structure-of-arrays) evaluation of the hybrid estimator.

:class:`repro.core.hybrid.HybridEstimator` keeps its whole partition
in contiguous arrays instead of one estimator object per bin:

- one concatenated sorted-sample array (bins partition the domain in
  order, so per-bin sorted samples concatenate to the globally sorted
  sample) with per-bin ``offsets``;
- per-bin ``coeff`` (weight x mass-renormalization scale), bandwidth,
  and uniform-fallback arrays;
- per-bin prefix moments (:mod:`repro.core.kernel.moments`) so the
  interior Epanechnikov sums of *every* (query, bin) pair cost O(1).

A query batch expands into (query, bin) pairs for the bins each query
overlaps — two ``searchsorted`` calls against the edge array — and
every pair evaluates the per-bin boundary-kernel formulas
(:class:`~repro.core.kernel.boundary.BoundaryKernelEstimator`
three-region decomposition, uniform fallback), reduced back to per-
query totals with one ``np.add.reduceat``.  The build computes each
bin's renormalizing mass with the same pair formulas.  No Python loop
over bins or queries survives.

``tests/hybrid_oracle.py`` rebuilds the partition as one boundary-
kernel estimator per bin; the property tests in
``tests/test_hybrid_flat.py`` pin this layout to it to 1e-12.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.kernel.boundary import _left_region_mass, boundary_kernel_pdf
from repro.core.kernel.estimator import PickFn, segment_window_sums
from repro.core.kernel.functions import EPANECHNIKOV
from repro.core.kernel.moments import (
    MOMENT_MAX_RATIO,
    PrefixMoments,
    build_moments,
    epan_cdf_sums,
    epan_pdf_sums,
    half_spread,
)


def bin_offsets(sorted_values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Offsets of each bin's samples within the sorted sample.

    This is the single binning rule of the hybrid estimator: bins are
    half-open ``[low, high)`` with the rightmost bin closed, so a
    sample exactly on an interior edge belongs to the bin on its
    right.  Returns ``len(edges)`` offsets with ``offsets[k] ..
    offsets[k + 1]`` spanning bin ``k``'s samples.
    """
    offsets = np.empty(edges.size, dtype=np.intp)
    offsets[0] = 0
    offsets[-1] = sorted_values.size
    if edges.size > 2:
        offsets[1:-1] = np.searchsorted(sorted_values, edges[1:-1], side="left")
    return offsets


@dataclasses.dataclass(frozen=True)
class FlatHybrid:
    """Contiguous representation of a built hybrid partition.

    All arrays are per-bin (length ``m``) except ``edges``/``offsets``
    (length ``m + 1``) and ``values`` (the concatenated sorted
    sample).  Uniform-fallback bins carry a placeholder bandwidth of
    1.0 and are routed by ``is_kernel``.
    """

    edges: np.ndarray
    offsets: np.ndarray
    values: np.ndarray
    coeff: np.ndarray
    is_kernel: np.ndarray
    h: np.ndarray
    inv_h: np.ndarray
    inv_width: np.ndarray
    counts: np.ndarray
    moments: PrefixMoments
    use_moments: np.ndarray


def build_flat(
    sorted_values: np.ndarray,
    edges: np.ndarray,
    offsets: np.ndarray,
    weights: np.ndarray,
    is_kernel: np.ndarray,
    bandwidths: np.ndarray,
) -> FlatHybrid:
    """Assemble the flat layout from the partition and per-bin bandwidths.

    ``bandwidths`` entries for non-kernel bins are ignored (stored as
    the 1.0 placeholder).  The prefix moments are built per bin (each
    bin is its own segment, centered on its own midrange) so interior
    sums never mix bins and carry no cross-bin cancellation.

    Each bin's ``coeff`` is its sample ``weight`` divided by its raw
    mass (:func:`bin_masses`).  Boundary-kernel estimates are
    consistent but not densities (paper §3.2.1): the mass a bin assigns
    to its own interval drifts from 1 as the bandwidth grows (observed
    up to ~1.08 high and ~0.9 low on duplicate-heavy bins), so the
    rescaling hands every bin exactly its sample fraction.  A
    non-finite or vanishing mass leaves the bin unscaled.
    """
    values = np.ascontiguousarray(sorted_values, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.intp)
    is_kernel = np.asarray(is_kernel, dtype=bool)
    h = np.where(is_kernel, np.asarray(bandwidths, dtype=np.float64), 1.0)
    counts = np.diff(offsets)
    moments = build_moments(values, offsets)
    spreads = np.array(
        [
            half_spread(values[offsets[k] : offsets[k + 1]])
            for k in range(offsets.size - 1)
        ]
    )
    use_moments = is_kernel & (spreads <= MOMENT_MAX_RATIO * h)
    weights = np.asarray(weights, dtype=np.float64)
    flat = FlatHybrid(
        edges=edges,
        offsets=offsets,
        values=values,
        coeff=weights,
        is_kernel=is_kernel,
        h=h,
        inv_h=1.0 / h,
        inv_width=1.0 / np.diff(edges),
        counts=counts,
        moments=moments,
        use_moments=use_moments,
    )
    mass = bin_masses(flat)
    usable = np.isfinite(mass) & (mass > 1e-9)
    scale = 1.0 / np.where(usable, mass, 1.0)
    return dataclasses.replace(flat, coeff=weights * scale)


def bin_masses(flat: FlatHybrid) -> np.ndarray:
    """Raw (unscaled) mass each bin's estimate assigns to its own interval.

    Kernel bins evaluate the pair formulas of :func:`flat_selectivities`
    over ``[low, high]``; uniform-fallback bins have mass exactly 1.
    """
    mass = np.ones(flat.counts.size, dtype=np.float64)
    kernel = np.flatnonzero(flat.is_kernel)
    if kernel.size:
        mass[kernel] = _kernel_pair_masses(
            flat, flat.edges[kernel], flat.edges[kernel + 1], kernel
        )
    return mass


def _expand_pairs(
    flat: FlatHybrid, k_min: np.ndarray, k_max: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """(query, bin) pair arrays for per-query bin ranges.

    Returns ``(pair_q, pair_k, counts, prefix)`` where ``prefix`` is
    the exclusive pair-count prefix (segment starts for the final
    reduction).
    """
    counts = np.maximum(k_max - k_min + 1, 0)
    prefix = np.concatenate(([0], np.cumsum(counts)[:-1]))
    total = int(counts.sum())
    pair_q = np.repeat(np.arange(counts.size), counts)
    pair_k = np.arange(total) + np.repeat(k_min - prefix, counts)
    return pair_q, pair_k, counts, prefix


def _pair_cdf_sums(
    flat: FlatHybrid, x: np.ndarray, pair_k: np.ndarray
) -> np.ndarray:
    """``sum_{i in bin k} C((x_j - X_i) / h_k)`` per (query, bin) pair.

    Matches ``KernelSelectivityEstimator._cdf_sums`` bin by bin:
    samples of the bin below the kernel window contribute exactly 1,
    the window itself goes through the prefix-moment O(1) path when
    the bin's precision gate allows, and through the per-sample
    Epanechnikov CDF otherwise.
    """
    values = flat.values
    reach = flat.h[pair_k]
    off_lo = flat.offsets[pair_k]
    off_hi = flat.offsets[pair_k + 1]
    lo = np.clip(np.searchsorted(values, x - reach, side="left"), off_lo, off_hi)
    hi = np.clip(np.searchsorted(values, x + reach, side="right"), off_lo, off_hi)
    out = (lo - off_lo).astype(np.float64)
    fast = flat.use_moments[pair_k]
    if fast.any():
        out[fast] += epan_cdf_sums(
            flat.moments,
            x[fast],
            flat.inv_h[pair_k[fast]],
            lo[fast],
            hi[fast],
            segment=pair_k[fast],
        )
    slow = ~fast
    if slow.any():
        x_s = x[slow]
        inv_h_s = flat.inv_h[pair_k[slow]]

        def term(pick: PickFn, i: np.ndarray) -> np.ndarray:
            t = pick(x_s)
            t -= values[i]
            t *= pick(inv_h_s)
            return EPANECHNIKOV.cdf(t)

        out[slow] += segment_window_sums(lo[slow], hi[slow], term)
    return out


def _pair_left_sums(
    flat: FlatHybrid,
    v_lo: np.ndarray,
    v_hi: np.ndarray,
    pair_k: np.ndarray,
) -> np.ndarray:
    """Left-boundary-region mass sums per pair, in boundary units.

    Mirrors ``BoundaryKernelEstimator._left_masses``: contributing
    samples (``w < v_hi + 1``) form a prefix of the bin's samples;
    zero-width segments get empty windows.
    """
    values = flat.values
    left = flat.edges[pair_k]
    h = flat.h[pair_k]
    off_lo = flat.offsets[pair_k]
    off_hi = flat.offsets[pair_k + 1]
    v_lo = np.minimum(v_lo, v_hi)
    cutoff = left + (v_hi + 1.0) * h
    hi_idx = np.minimum(np.searchsorted(values, cutoff, side="left"), off_hi)
    hi_idx = np.where(v_hi > v_lo, hi_idx, off_lo)

    def term(pick: PickFn, i: np.ndarray) -> np.ndarray:
        return _left_region_mass(
            pick(v_lo), pick(v_hi), (values[i] - pick(left)) / pick(h)
        )

    return segment_window_sums(off_lo, hi_idx, term)


def _pair_right_sums(
    flat: FlatHybrid,
    v_lo: np.ndarray,
    v_hi: np.ndarray,
    pair_k: np.ndarray,
) -> np.ndarray:
    """Right-boundary-region mass sums per pair; mirror of the left."""
    values = flat.values
    right = flat.edges[pair_k + 1]
    h = flat.h[pair_k]
    off_lo = flat.offsets[pair_k]
    off_hi = flat.offsets[pair_k + 1]
    v_lo = np.minimum(v_lo, v_hi)
    cutoff = right - (v_hi + 1.0) * h
    lo_idx = np.maximum(np.searchsorted(values, cutoff, side="right"), off_lo)
    lo_idx = np.where(v_hi > v_lo, lo_idx, off_hi)

    def term(pick: PickFn, i: np.ndarray) -> np.ndarray:
        return _left_region_mass(
            pick(v_lo), pick(v_hi), (pick(right) - values[i]) / pick(h)
        )

    return segment_window_sums(lo_idx, off_hi, term)


def _kernel_pair_masses(
    flat: FlatHybrid, lo: np.ndarray, hi: np.ndarray, pk: np.ndarray
) -> np.ndarray:
    """Raw boundary-kernel mass of ``[lo, hi]`` within kernel bin ``pk``.

    Per (range, bin) pair, with the range already clipped to the bin
    (``left <= lo <= hi <= right``): the three-region decomposition of
    ``BoundaryKernelEstimator.raw_selectivities``, as a fraction of the
    bin's own samples.
    """
    left = flat.edges[pk]
    right = flat.edges[pk + 1]
    h = flat.h[pk]
    inv_h = flat.inv_h[pk]
    inner_left = left + h
    inner_right = right - h
    # Left boundary region [left, left + h), in boundary units.
    left_mass = _pair_left_sums(
        flat,
        (lo - left) * inv_h,
        (np.minimum(hi, inner_left) - left) * inv_h,
        pk,
    )
    # Right boundary region (right - h, right], mirrored units.
    right_mass = _pair_right_sums(
        flat,
        (right - hi) * inv_h,
        (right - np.maximum(lo, inner_right)) * inv_h,
        pk,
    )
    # Interior region: ordinary Epanechnikov CDF sums.
    i_lo = np.minimum(np.maximum(lo, inner_left), inner_right)
    i_hi = np.maximum(np.minimum(hi, inner_right), i_lo)
    interior = _pair_cdf_sums(flat, i_hi, pk) - _pair_cdf_sums(flat, i_lo, pk)
    return (left_mass + interior + right_mass) / flat.counts[pk]


def flat_selectivities(
    flat: FlatHybrid, flat_a: np.ndarray, flat_b: np.ndarray
) -> np.ndarray:
    """Unclipped hybrid selectivities over a validated flat batch.

    Expands each query to the bins it overlaps, evaluates every pair's
    contribution with the per-bin formulas (three-region boundary
    kernel or uniform fallback), and reduces to per-query totals.
    Bins a query merely touches at an edge contribute exactly 0, so
    the edge conventions of the pair expansion cannot change totals.
    """
    edges = flat.edges
    bins = edges.size - 1
    k_min = np.clip(np.searchsorted(edges, flat_a, side="right") - 1, 0, bins - 1)
    k_max = np.clip(np.searchsorted(edges, flat_b, side="left") - 1, 0, bins - 1)
    pair_q, pair_k, counts, prefix = _expand_pairs(flat, k_min, k_max)
    totals = np.zeros(flat_a.shape, dtype=np.float64)
    if pair_q.size == 0:
        return totals
    left_edge = edges[pair_k]
    right_edge = edges[pair_k + 1]
    lo = np.clip(flat_a[pair_q], left_edge, right_edge)
    hi = np.maximum(np.clip(flat_b[pair_q], left_edge, right_edge), lo)
    contrib = np.zeros(pair_q.shape, dtype=np.float64)

    uniform = ~flat.is_kernel[pair_k]
    if uniform.any():
        contrib[uniform] = (hi[uniform] - lo[uniform]) * flat.inv_width[
            pair_k[uniform]
        ]

    kernel = ~uniform
    if kernel.any():
        contrib[kernel] = _kernel_pair_masses(
            flat, lo[kernel], hi[kernel], pair_k[kernel]
        )

    weighted = contrib * flat.coeff[pair_k]
    populated = counts > 0
    totals[populated] = np.add.reduceat(weighted, prefix[populated])
    return totals


def flat_density(flat: FlatHybrid, flat_x: np.ndarray) -> np.ndarray:
    """Pointwise hybrid density over a flat batch of points.

    Points on an interior edge receive contributions from *both*
    adjacent bins (each bin's density is inclusive of both its edges).
    """
    edges = flat.edges
    bins = edges.size - 1
    k_min = np.clip(np.searchsorted(edges, flat_x, side="left") - 1, 0, bins - 1)
    k_max = np.clip(np.searchsorted(edges, flat_x, side="right") - 1, 0, bins - 1)
    pair_q, pair_k, counts, prefix = _expand_pairs(flat, k_min, k_max)
    totals = np.zeros(flat_x.shape, dtype=np.float64)
    if pair_q.size == 0:
        return totals
    x = flat_x[pair_q]
    left_edge = edges[pair_k]
    right_edge = edges[pair_k + 1]
    inside = (x >= left_edge) & (x <= right_edge)
    contrib = np.zeros(pair_q.shape, dtype=np.float64)

    uniform = inside & ~flat.is_kernel[pair_k]
    if uniform.any():
        contrib[uniform] = flat.inv_width[pair_k[uniform]]

    kernel = inside & flat.is_kernel[pair_k]
    if kernel.any():
        h = flat.h[pair_k]
        in_left = kernel & (x < left_edge + h)
        in_right = kernel & (x > right_edge - h)
        interior = kernel & ~in_left & ~in_right
        values = flat.values
        if interior.any():
            pk = pair_k[interior]
            x_i = x[interior]
            reach = flat.h[pk]
            off_lo = flat.offsets[pk]
            off_hi = flat.offsets[pk + 1]
            lo = np.clip(
                np.searchsorted(values, x_i - reach, side="left"), off_lo, off_hi
            )
            hi = np.clip(
                np.searchsorted(values, x_i + reach, side="right"), off_lo, off_hi
            )
            sums = np.zeros(x_i.shape, dtype=np.float64)
            fast = flat.use_moments[pk]
            if fast.any():
                sums[fast] = epan_pdf_sums(
                    flat.moments,
                    x_i[fast],
                    flat.inv_h[pk[fast]],
                    lo[fast],
                    hi[fast],
                    segment=pk[fast],
                )
            slow = ~fast
            if slow.any():
                x_s = x_i[slow]
                h_s = flat.h[pk[slow]]

                def term(pick: PickFn, i: np.ndarray) -> np.ndarray:
                    return EPANECHNIKOV.pdf((pick(x_s) - values[i]) / pick(h_s))

                sums[slow] = segment_window_sums(lo[slow], hi[slow], term)
            contrib[interior] = sums / (flat.counts[pk] * flat.h[pk])
        for mask, mirrored in ((in_left, False), (in_right, True)):
            if not mask.any():
                continue
            pk = pair_k[mask]
            x_b = x[mask]
            h_b = flat.h[pk]
            if mirrored:
                edge = edges[pk + 1]
                q = (edge - x_b) / h_b
                # Contributing samples lie within 2h of the right edge:
                # a suffix of the bin's samples.
                lo_idx = np.maximum(
                    np.searchsorted(values, edge - 2.0 * h_b, side="left"),
                    flat.offsets[pk],
                )
                hi_idx = flat.offsets[pk + 1]
            else:
                edge = edges[pk]
                q = (x_b - edge) / h_b
                lo_idx = flat.offsets[pk]
                hi_idx = np.minimum(
                    np.searchsorted(values, edge + 2.0 * h_b, side="right"),
                    flat.offsets[pk + 1],
                )
            sign = -1.0 if mirrored else 1.0

            def boundary_term(
                pick: PickFn,
                i: np.ndarray,
                _sign: float = sign,
                _x: np.ndarray = x_b,
                _q: np.ndarray = q,
                _h: np.ndarray = h_b,
            ) -> np.ndarray:
                t = _sign * (pick(_x) - values[i]) / pick(_h)
                return boundary_kernel_pdf(t, pick(_q))

            sums = segment_window_sums(lo_idx, hi_idx, boundary_term)
            contrib[mask] = sums / (flat.counts[pk] * h_b)

    weighted = contrib * flat.coeff[pair_k]
    populated = counts > 0
    totals[populated] = np.add.reduceat(weighted, prefix[populated])
    return totals
