"""Tests for change-point detection (repro.core.changepoints)."""

import numpy as np
import pytest

from repro.core.base import InvalidSampleError
from repro.core.changepoints import detect_change_points, pilot_bandwidth
from repro.core.summary import ColumnSummary
from repro.data import registry
from repro.data.domain import Interval
from tests.changepoint_oracle import greedy_change_points


@pytest.fixture()
def step_sample():
    """Density with one sharp step at x = 5: dense left, sparse right."""
    rng = np.random.default_rng(7)
    return np.concatenate([rng.uniform(0, 5, 8_000), rng.uniform(5, 10, 800)])


class TestDetection:
    def test_finds_the_step(self, step_sample):
        points = detect_change_points(step_sample, Interval(0, 10), max_points=2)
        assert points.size >= 1
        assert np.min(np.abs(points - 5.0)) < 0.6

    def test_respects_max_points(self, step_sample):
        points = detect_change_points(step_sample, Interval(0, 10), max_points=1)
        assert points.size <= 1

    def test_zero_max_points(self, step_sample):
        points = detect_change_points(step_sample, Interval(0, 10), max_points=0)
        assert points.size == 0

    def test_min_separation_enforced(self, step_sample):
        points = detect_change_points(
            step_sample, Interval(0, 10), max_points=8, min_separation=0.1
        )
        if points.size > 1:
            assert np.diff(points).min() >= 0.1 * 10 - 1e-9
        assert (points >= 1.0 - 1e-9).all() and (points <= 9.0 + 1e-9).all()

    def test_smooth_density_yields_few_points(self):
        """A flat uniform density has no significant curvature in the
        interior — the detector should not splinter it."""
        rng = np.random.default_rng(1)
        sample = rng.uniform(0, 10, 5_000)
        points = detect_change_points(
            sample, Interval(0, 10), max_points=8, relative_threshold=0.3
        )
        assert points.size <= 3

    def test_two_steps_found(self):
        rng = np.random.default_rng(3)
        sample = np.concatenate(
            [
                rng.uniform(0, 3, 6_000),
                rng.uniform(3, 7, 600),
                rng.uniform(7, 10, 6_000),
            ]
        )
        points = detect_change_points(sample, Interval(0, 10), max_points=4)
        assert np.min(np.abs(points - 3.0)) < 0.6
        assert np.min(np.abs(points - 7.0)) < 0.6

    def test_sorted_output(self, step_sample):
        points = detect_change_points(step_sample, Interval(0, 10), max_points=5)
        assert (np.diff(points) > 0).all()

    def test_tiny_sample_returns_empty(self):
        points = detect_change_points(np.array([1.0, 2.0]), Interval(0, 10))
        assert points.size == 0

    def test_rejects_bad_separation(self, step_sample):
        with pytest.raises(InvalidSampleError):
            detect_change_points(step_sample, Interval(0, 10), min_separation=0.7)

    def test_rejects_negative_max_points(self, step_sample):
        with pytest.raises(InvalidSampleError):
            detect_change_points(step_sample, Interval(0, 10), max_points=-1)


class TestPilotBandwidth:
    def test_positive_and_shrinks_with_n(self):
        rng = np.random.default_rng(2)
        small = pilot_bandwidth(rng.normal(0, 1, 100))
        large = pilot_bandwidth(rng.normal(0, 1, 10_000))
        assert small > large > 0


@pytest.fixture(scope="module")
def oracle_corpus():
    """Seeded samples on which the search must match the greedy loop.

    2,000-row draws of the registry shapes the serving benchmark uses,
    mirrored-drift mixtures built like its appends, frozen reservoirs
    of those (the refresh-time input, where the greedy loop ran 100+
    iterations), random normal mixtures (a third rounded to
    duplicates) and near-constant samples.
    """
    rng = np.random.default_rng(2024)
    corpus = []
    for name in ("n(20)", "e(20)", "rr1(22)", "iw"):
        relation = registry.load(name)
        values = np.asarray(relation.values, dtype=np.float64)
        domain = relation.domain
        for _ in range(6):
            corpus.append((values[rng.choice(values.size, 2_000, replace=False)], domain))
        summary = ColumnSummary(domain, seed=11, capacity=2_000)
        summary.update(values[rng.choice(values.size, 20_000, replace=False)])
        for drift in np.linspace(0.0, 1.0, 6):
            picked = values[rng.integers(0, values.size, 2_000)]
            mirror = rng.random(2_000) < drift
            batch = np.where(mirror, domain.low + domain.high - picked, picked)
            corpus.append((batch, domain))
            summary.update(batch)
            corpus.append((summary.freeze(), domain))
    domain = Interval(0.0, 1_000.0)
    for index in range(36):
        parts = [
            rng.normal(rng.uniform(0.0, 1_000.0), rng.uniform(1.0, 200.0), int(rng.integers(5, 800)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        sample = np.clip(np.concatenate(parts), 0.0, 1_000.0)
        if index % 3 == 0:
            step = rng.uniform(1.0, 50.0)
            sample = np.clip(np.round(sample / step) * step, 0.0, 1_000.0)
        corpus.append((sample, domain))
    for outliers in range(0, 12, 3):
        sample = np.full(500, 500.0)
        sample[:outliers] = rng.uniform(0.0, 1_000.0, outliers)
        corpus.append((sample, domain))
    return corpus


class TestGreedyOracle:
    """The one-pass search returns the greedy loop's points, bit for bit."""

    @pytest.mark.parametrize("min_separation", [0.04, 0.012])
    @pytest.mark.parametrize("max_points", [8, 20])
    def test_matches_greedy_loop(self, oracle_corpus, max_points, min_separation):
        for sample, domain in oracle_corpus:
            kwargs = dict(max_points=max_points, min_separation=min_separation)
            got = detect_change_points(sample, domain, **kwargs)
            want = greedy_change_points(sample, domain, **kwargs)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_corpus_exercises_long_searches(self, oracle_corpus):
        # The drifted and frozen samples are the ones where the greedy
        # loop ran many iterations; the corpus must keep at least some
        # multi-point results so the comparison is not vacuous.
        counts = [detect_change_points(s, d, max_points=20).size for s, d in oracle_corpus]
        assert max(counts) >= 5
        assert min(counts) == 0
