"""Summary statistics of the serving benchmark."""

from __future__ import annotations

import numpy as np


def percentile(values: "np.ndarray | list[float]", q: float) -> float:
    """The ``q``-th percentile, linearly interpolated between order statistics."""
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(data, q))


def mean(values: "np.ndarray | list[float]") -> float:
    """Arithmetic mean; an empty sample is an error, not NaN."""
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        raise ValueError("mean of an empty sample")
    return float(data.mean())


def mre(estimates: np.ndarray, truths: np.ndarray) -> float:
    """The paper's mean relative error, ``mean(|est - true| / true)``.

    Requests whose true result is empty are left out, as the relative
    error is undefined for them.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    keep = truths > 0
    if not keep.any():
        raise ValueError("no request with a non-empty true result")
    return float(np.mean(np.abs(estimates[keep] - truths[keep]) / truths[keep]))


def qerrors(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Per-request q-error ``max(e/t, t/e)``, both sides floored at one row."""
    e = np.maximum(np.asarray(estimates, dtype=np.float64), 1.0)
    t = np.maximum(np.asarray(truths, dtype=np.float64), 1.0)
    return np.maximum(e / t, t / e)
