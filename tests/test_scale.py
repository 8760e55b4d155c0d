"""Tests for robust scale estimation (repro.bandwidth.scale)."""

import numpy as np
import pytest

from repro.bandwidth.scale import (
    GAUSS_TO_EPANECHNIKOV,
    QUARTILES,
    iqr,
    robust_scale,
    sorted_quantiles,
    to_gaussian_bandwidth,
)
from repro.core.base import InvalidSampleError


class TestIqr:
    def test_uniform_grid(self):
        assert iqr(np.arange(101, dtype=float)) == pytest.approx(50.0)

    def test_normal_sample_near_1348_sigma(self):
        sample = np.random.default_rng(0).normal(0, 1, 50_000)
        assert iqr(sample) == pytest.approx(1.348, abs=0.03)


class TestSortedQuantiles:
    """The sorted-array read equals ``np.quantile`` (linear method)."""

    def test_matches_numpy_quantile(self):
        rng = np.random.default_rng(4)
        for _ in range(400):
            n = int(rng.integers(1, 3_000))
            values = rng.normal(0.0, rng.uniform(0.1, 100.0), n)
            # Rounding leaves runs of duplicates of varying length.
            values = np.sort(np.round(values, int(rng.integers(0, 4))))
            bins = int(rng.integers(1, 80))
            for q in (np.linspace(0.0, 1.0, bins + 1), QUARTILES, rng.random(5)):
                np.testing.assert_array_equal(
                    sorted_quantiles(values, q), np.quantile(values, q)
                )

    def test_endpoints_are_extremes(self):
        values = np.array([-3.0, 1.0, 1.0, 7.5])
        assert sorted_quantiles(values, np.array([0.0, 1.0])).tolist() == [-3.0, 7.5]

    def test_iqr_matches_numpy_on_unsorted_input(self):
        sample = np.random.default_rng(5).exponential(3.0, 1_001)
        q1, q3 = np.quantile(sample, [0.25, 0.75])
        assert iqr(sample) == float(q3 - q1)


class TestRobustScale:
    def test_takes_the_minimum(self):
        """Outliers inflate the sd but not the IQR: robust scale must
        follow the IQR."""
        rng = np.random.default_rng(1)
        sample = np.concatenate([rng.normal(0, 1, 1_000), [1e5, -1e5]])
        s = robust_scale(sample)
        assert s < 2.0  # plain sd would be ~3000

    def test_normal_sample_near_sigma(self):
        sample = np.random.default_rng(2).normal(0, 2.5, 20_000)
        assert robust_scale(sample) == pytest.approx(2.5, rel=0.05)

    def test_zero_iqr_falls_back_to_sd(self):
        """More than half the mass on one value zeroes the IQR; the
        standard deviation must take over (duplicate-heavy data)."""
        sample = np.concatenate([np.full(80, 5.0), np.linspace(0, 10, 20)])
        assert robust_scale(sample) > 0

    def test_all_identical_raises(self):
        with pytest.raises(InvalidSampleError):
            robust_scale(np.full(50, 3.0))

    def test_single_value_raises(self):
        with pytest.raises(InvalidSampleError):
            robust_scale(np.array([1.0]))


class TestCanonicalConversion:
    def test_ratio_value(self):
        """delta_gauss / delta_epan = (R_g / k2_g^2 / 15)^(1/5) ~ 0.4517."""
        assert GAUSS_TO_EPANECHNIKOV == pytest.approx(0.4517, abs=0.001)

    def test_conversion(self):
        assert to_gaussian_bandwidth(1.0) == pytest.approx(GAUSS_TO_EPANECHNIKOV)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSampleError):
            to_gaussian_bandwidth(0.0)
