"""Perf: build and query cost of every estimator family.

Micro-benchmarks of what a database system would pay: building the
statistic from a 2,000-record sample (ANALYZE time) and answering a
300-query batch (optimization time).  Timings are exported through the
telemetry benchmark exporter into ``BENCH_perf.json`` at the repo root
(the machine-readable perf trajectory).

The hybrid's build cost depends on the data far more than any other
family's: its change-point search visits every significant curvature
peak, and the data shape decides how many there are.  So its build is
timed per shape, on 2,000-record samples of the paper's files
(``perf_build.hybrid_<shape>``): uniform ``u(20)``, normal ``n(20)``,
the TIGER-like ``rr1(22)``, and ``e(20)`` with half its records
mirrored within the domain, like the serving benchmark's drifted
appends (the shape where the old argmax-per-iteration search ran
200+ iterations).
"""

import numpy as np
import pytest

from repro import estimators
from repro.data import registry
from repro.data.domain import Interval

DOMAIN = Interval(0.0, 1_000_000.0)


@pytest.fixture(scope="module")
def sample():
    return np.random.default_rng(0).uniform(DOMAIN.low, DOMAIN.high, 2_000)


@pytest.fixture(scope="module")
def query_batch():
    rng = np.random.default_rng(1)
    a = rng.uniform(DOMAIN.low, DOMAIN.high * 0.99, 300)
    return a, a + 0.01 * DOMAIN.width


BUILDERS = {
    "sampling": lambda s: estimators.sampling(s, DOMAIN),
    "equi_width": lambda s: estimators.equi_width(s, DOMAIN),
    "equi_depth": lambda s: estimators.equi_depth(s, DOMAIN),
    "max_diff": lambda s: estimators.max_diff(s, DOMAIN),
    "ash": lambda s: estimators.ash(s, DOMAIN),
    "kernel_ns": lambda s: estimators.kernel(s, DOMAIN),
    "kernel_dpi": lambda s: estimators.kernel(s, DOMAIN, bandwidth="plug-in"),
    "hybrid": lambda s: estimators.hybrid(s, DOMAIN),
}


#: Hybrid build shapes: label -> paper file the sample is drawn from.
HYBRID_SHAPES = {"uniform": "u(20)", "normal": "n(20)", "tiger": "rr1(22)", "drift": "e(20)"}


def _hybrid_sample(shape):
    relation = registry.load(HYBRID_SHAPES[shape])
    domain = relation.domain
    rng = np.random.default_rng(0)
    values = np.asarray(relation.values, dtype=np.float64)
    sample = values[rng.choice(values.size, 2_000, replace=False)]
    if shape == "drift":
        mirror = rng.random(sample.size) < 0.5
        sample = np.where(mirror, domain.low + domain.high - sample, sample)
    return sample, domain


# The hybrid's build is timed per data shape by test_perf_build_hybrid.
@pytest.mark.parametrize("name", sorted(set(BUILDERS) - {"hybrid"}))
def test_perf_build(benchmark, sample, name, perf_export):
    estimator = benchmark(BUILDERS[name], sample)
    assert estimator.selectivity(DOMAIN.low, DOMAIN.high) >= 0.0
    perf_export.record("perf_build", name, benchmark.stats.stats)


@pytest.mark.parametrize("shape", sorted(HYBRID_SHAPES))
def test_perf_build_hybrid(benchmark, shape, perf_export):
    sample, domain = _hybrid_sample(shape)
    estimator = benchmark(estimators.hybrid, sample, domain)
    assert estimator.selectivity(domain.low, domain.high) > 0.99
    perf_export.record("perf_build", f"hybrid_{shape}", benchmark.stats.stats)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_perf_query_batch(benchmark, sample, query_batch, name, perf_export):
    estimator = BUILDERS[name](sample)
    a, b = query_batch
    out = benchmark(estimator.selectivities, a, b)
    assert out.shape == a.shape
    perf_export.record("perf_query_batch", name, benchmark.stats.stats)
