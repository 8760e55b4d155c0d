"""The flat hybrid layout vs the per-bin oracle.

The contract under test: ``HybridEstimator.selectivities`` /
``density`` and the bin masses, answered through the contiguous flat
layout (:mod:`repro.core.hybrid_flat`), must match one boundary-kernel
estimator per bin (:class:`tests.hybrid_oracle.PerBinHybrid`) to
1e-12 — including the awkward inputs (zero-width queries, queries
pinned on bin edges, single-bin partitions, uniform-fallback bins) —
while the prefix-moment machinery it rides on
(:mod:`repro.core.kernel.moments`) holds its own numerical guarantees.
"""

import numpy as np
import pytest

from repro.core.base import EstimatorError
from repro.core.hybrid import HybridEstimator
from repro.core.hybrid_flat import bin_masses, bin_offsets
from repro.core.kernel.moments import (
    MOMENT_MAX_RATIO,
    build_moments,
    compensated_cumsum,
    epan_cdf_sums,
    epan_pdf_sums,
    half_spread,
)
from repro.data.domain import Interval
from tests.hybrid_oracle import PerBinHybrid

DOMAIN = Interval(0.0, 1_000_000.0)

ATOL = 1e-12


def _random_sample(seed: int, n: int = 2_000) -> np.ndarray:
    """Multi-modal sample with sharp edges: multi-bin partitions."""
    rng = np.random.default_rng(seed)
    parts = [
        rng.normal(rng.uniform(0.1, 0.4) * DOMAIN.width, 30_000.0, n // 3),
        rng.uniform(0.5 * DOMAIN.width, 0.8 * DOMAIN.width, n // 3),
        rng.normal(0.9 * DOMAIN.width, 15_000.0, n - 2 * (n // 3)),
    ]
    return np.clip(np.concatenate(parts), DOMAIN.low, DOMAIN.high)


def _random_queries(seed: int, n: int = 400) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.uniform(DOMAIN.low, DOMAIN.high, n)
    b = np.minimum(a + rng.uniform(0.0, 0.3, n) * DOMAIN.width, DOMAIN.high)
    return a, b


class TestFlatMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_changepoints(self, seed):
        est = HybridEstimator(_random_sample(seed), DOMAIN)
        a, b = _random_queries(seed + 100)
        np.testing.assert_allclose(
            est.selectivities(a, b), PerBinHybrid(est).selectivities(a, b), atol=ATOL
        )

    def test_zero_width_queries(self):
        est = HybridEstimator(_random_sample(7), DOMAIN)
        points = np.concatenate(
            [
                np.linspace(DOMAIN.low, DOMAIN.high, 64),
                est.change_points,
                [DOMAIN.low, DOMAIN.high],
            ]
        )
        fast = est.selectivities(points, points)
        ref = PerBinHybrid(est).selectivities(points, points)
        np.testing.assert_allclose(fast, ref, atol=ATOL)
        np.testing.assert_allclose(fast, 0.0, atol=ATOL)

    def test_bin_edge_queries(self):
        est = HybridEstimator(_random_sample(11), DOMAIN)
        edges = np.concatenate([[DOMAIN.low], est.change_points, [DOMAIN.high]])
        # Every pair of edges, both orders of closeness to the edge.
        a = np.repeat(edges, edges.size)
        b = np.tile(edges, edges.size)
        keep = b >= a
        np.testing.assert_allclose(
            est.selectivities(a[keep], b[keep]),
            PerBinHybrid(est).selectivities(a[keep], b[keep]),
            atol=ATOL,
        )

    def test_single_bin(self):
        rng = np.random.default_rng(3)
        smooth = np.clip(
            rng.normal(0.5 * DOMAIN.width, 0.15 * DOMAIN.width, 2_000),
            DOMAIN.low,
            DOMAIN.high,
        )
        est = HybridEstimator(smooth, DOMAIN, max_changepoints=0)
        assert len(est.bins) == 1
        a, b = _random_queries(13)
        np.testing.assert_allclose(
            est.selectivities(a, b), PerBinHybrid(est).selectivities(a, b), atol=ATOL
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_density_matches(self, seed):
        est = HybridEstimator(_random_sample(seed), DOMAIN)
        rng = np.random.default_rng(seed + 50)
        x = np.concatenate(
            [
                rng.uniform(DOMAIN.low, DOMAIN.high, 500),
                est.change_points,  # both adjacent bins contribute
                [DOMAIN.low, DOMAIN.high],
            ]
        )
        fast = est.density(x)
        ref = PerBinHybrid(est).density(x)
        # Densities scale as 1/width (~1e-6 here); compare relative to
        # the peak so the tolerance is meaningful.
        scale = max(float(np.max(np.abs(ref))), 1.0 / DOMAIN.width)
        np.testing.assert_allclose(fast / scale, ref / scale, atol=ATOL)


class TestBinMasses:
    @staticmethod
    def _sparse_or_narrow(values: np.ndarray) -> float:
        """Uniform fallback for sparse bins, narrow kernels elsewhere."""
        if values.size < 300:
            raise EstimatorError("too few samples for a kernel bin")
        return float(np.ptp(values)) / 40.0

    def test_flat_masses_match_oracle(self):
        picky = HybridEstimator(
            _random_sample(0), DOMAIN, bandwidth_rule=self._sparse_or_narrow
        )
        flat = picky._flat
        # A uniform-fallback bin (mass exactly 1) and kernel bins too
        # wide for the prefix-moment path; the default rule's bins all
        # take that path.
        assert not flat.is_kernel.all()
        assert (flat.is_kernel & ~flat.use_moments).any()
        default = HybridEstimator(_random_sample(0), DOMAIN)
        assert default._flat.use_moments.all()
        for est in (picky, default):
            np.testing.assert_allclose(
                bin_masses(est._flat), PerBinHybrid(est).masses, rtol=0, atol=ATOL
            )
        assert np.all(bin_masses(flat)[~flat.is_kernel] == 1.0)
        a, b = _random_queries(19)
        np.testing.assert_allclose(
            picky.selectivities(a, b),
            PerBinHybrid(picky).selectivities(a, b),
            atol=ATOL,
        )


class TestBinOffsets:
    def test_edge_coincident_samples(self):
        edges = np.array([0.0, 10.0, 20.0])
        values = np.sort(np.array([0.0, 5.0, 10.0, 10.0, 15.0, 20.0]))
        offsets = bin_offsets(values, edges)
        # Interior edge 10.0 belongs to the right bin; domain max stays
        # in the last bin.
        assert offsets.tolist() == [0, 2, 6]

    def test_concatenation_is_global_sort(self):
        rng = np.random.default_rng(0)
        values = np.sort(rng.uniform(0.0, 30.0, 200))
        edges = np.array([0.0, 7.5, 12.0, 30.0])
        offsets = bin_offsets(values, edges)
        parts = [values[offsets[k] : offsets[k + 1]] for k in range(3)]
        np.testing.assert_array_equal(np.concatenate(parts), values)
        for k, part in enumerate(parts):
            assert np.all(part >= edges[k])
            if k < 2:
                assert np.all(part < edges[k + 1])


class TestMoments:
    def test_compensated_cumsum_beats_plain(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-1.0, 1.0, 100_000)
        exact = np.cumsum(values.astype(np.longdouble))
        compensated = compensated_cumsum(values)
        plain = np.cumsum(values)
        err_comp = np.max(np.abs(compensated - exact))
        err_plain = np.max(np.abs(plain - exact))
        assert err_comp <= err_plain
        assert err_comp < 1e-11

    def test_cdf_sums_match_direct(self):
        rng = np.random.default_rng(1)
        values = np.sort(rng.uniform(-4.0, 4.0, 512))
        h = 1.0 / MOMENT_MAX_RATIO * half_spread(values) * 2.0  # well in range
        moments = build_moments(values)
        x = rng.uniform(-4.0, 4.0, 64)
        lo = np.searchsorted(values, x - h, side="left")
        hi = np.searchsorted(values, x + h, side="right")
        got = epan_cdf_sums(moments, x, 1.0 / h, lo, hi)
        t = (x[:, None] - values[None, :]) / h
        inside = np.abs(t) <= 1.0
        direct = np.where(inside, 0.5 + 0.75 * t - 0.25 * t**3, 0.0)
        # Only windowed samples count: mask to [lo, hi).
        idx = np.arange(values.size)
        windowed = (idx[None, :] >= lo[:, None]) & (idx[None, :] < hi[:, None])
        np.testing.assert_allclose(got, (direct * windowed).sum(axis=1), atol=1e-12)

    def test_pdf_sums_match_direct(self):
        rng = np.random.default_rng(2)
        values = np.sort(rng.uniform(0.0, 10.0, 256))
        h = 3.0
        moments = build_moments(values)
        x = rng.uniform(0.0, 10.0, 32)
        lo = np.searchsorted(values, x - h, side="left")
        hi = np.searchsorted(values, x + h, side="right")
        got = epan_pdf_sums(moments, x, 1.0 / h, lo, hi)
        t = (x[:, None] - values[None, :]) / h
        direct = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t**2), 0.0)
        np.testing.assert_allclose(got, direct.sum(axis=1), atol=1e-12)

    def test_segments_do_not_leak(self):
        values = np.sort(np.random.default_rng(3).uniform(0.0, 10.0, 100))
        offsets = np.array([0, 40, 40, 100])  # middle segment empty
        moments = build_moments(values, offsets)
        # Full-window sum over segment 2 only counts its own samples.
        x = np.array([5.0])
        got = epan_cdf_sums(
            moments,
            x,
            1e-12,  # inv_h ~ 0: every CDF term is ~0.5
            np.array([40]),
            np.array([100]),
            segment=np.array([2]),
        )
        np.testing.assert_allclose(got, 0.5 * 60, atol=1e-9)

    def test_empty_sample(self):
        moments = build_moments(np.array([]))
        out = epan_cdf_sums(
            moments, np.array([0.0]), 1.0, np.array([0]), np.array([0])
        )
        np.testing.assert_array_equal(out, [0.0])
