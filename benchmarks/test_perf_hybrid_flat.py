"""Perf: the flat hybrid hot paths vs the per-bin oracle.

Evaluated as one estimator object per bin, the hybrid's serving cost
scales with the number of bins times the per-bin Python dispatch; the
flat layout (one concatenated sorted sample plus per-bin coefficient
arrays, see ``repro.core.hybrid_flat``) answers a whole batch with two
``searchsorted`` calls and segmented reductions.  This module records
the flat path and the per-bin oracle (``tests/hybrid_oracle.py``) over
the same built statistic so the perf gate can fail CI whenever the
flat path stops beating the per-bin loop
(``--overhead perf_query_batch.hybrid_legacy:perf_query_batch.hybrid_flat``
with a cap of 1.0), and times the direct plug-in bandwidth whose
roughness functionals now run on the linear-binned convolution path.
The hybrid's build is timed per data shape in
``test_perf_estimator_build.py``.
"""

import numpy as np
import pytest

from repro.bandwidth.plugin import plugin_bandwidth
from repro.core.hybrid import HybridEstimator
from repro.data.domain import Interval
from tests.hybrid_oracle import PerBinHybrid

DOMAIN = Interval(0.0, 1_000_000.0)
N_SAMPLES = 2_000
N_QUERIES = 300


@pytest.fixture(scope="module")
def sample():
    # Bimodal with a sharp edge: exercises change-point detection and
    # yields a multi-bin partition (the regime the flat layout targets).
    rng = np.random.default_rng(0)
    values = np.concatenate(
        [
            rng.normal(250_000.0, 40_000.0, N_SAMPLES // 2),
            rng.uniform(600_000.0, 900_000.0, N_SAMPLES - N_SAMPLES // 2),
        ]
    )
    return np.clip(values, DOMAIN.low, DOMAIN.high)


@pytest.fixture(scope="module")
def estimator(sample):
    return HybridEstimator(sample, DOMAIN)


@pytest.fixture(scope="module")
def oracle(estimator):
    return PerBinHybrid(estimator)


@pytest.fixture(scope="module")
def query_batch():
    rng = np.random.default_rng(1)
    a = rng.uniform(DOMAIN.low, DOMAIN.high * 0.99, N_QUERIES)
    return a, np.minimum(a + rng.uniform(0.0, 0.2, N_QUERIES) * DOMAIN.width, DOMAIN.high)


def test_perf_query_hybrid_flat(benchmark, estimator, query_batch, perf_export):
    a, b = query_batch
    out = benchmark(estimator.selectivities, a, b)
    assert out.shape == a.shape
    perf_export.record("perf_query_batch", "hybrid_flat", benchmark.stats.stats)


def test_perf_query_hybrid_legacy(benchmark, oracle, query_batch, perf_export):
    a, b = query_batch
    out = benchmark(oracle.selectivities, a, b)
    assert out.shape == a.shape
    perf_export.record("perf_query_batch", "hybrid_legacy", benchmark.stats.stats)


def test_perf_build_plugin_dpi(benchmark, sample, perf_export):
    bandwidth = benchmark(plugin_bandwidth, sample, domain=DOMAIN)
    assert np.isfinite(bandwidth) and bandwidth > 0
    perf_export.record("perf_build", "plugin_dpi", benchmark.stats.stats)


def test_flat_matches_legacy(estimator, oracle, query_batch):
    """The timed paths must agree — speed without drift."""
    a, b = query_batch
    np.testing.assert_allclose(
        estimator.selectivities(a, b), oracle.selectivities(a, b), atol=1e-12
    )
