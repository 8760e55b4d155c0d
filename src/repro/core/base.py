"""Abstract interfaces for selectivity and density estimators.

The paper (§2) frames every method the same way: given a set of ``n``
samples drawn from a relation's attribute, build an estimator once and
answer many range queries ``Q(a, b)`` with an approximation of the
*distribution selectivity* ``sigma(a, b) = F(b) - F(a)``.

Two abstractions capture that contract:

:class:`SelectivityEstimator`
    Anything that can map a query range to an estimated selectivity in
    ``[0, 1]``.  This is the interface the experiment harness and a
    query optimizer consume.

:class:`DensityEstimator`
    Anything that can additionally evaluate an estimated probability
    density function pointwise.  Histograms and kernel estimators are
    density estimators; pure sampling is only a selectivity estimator.
"""

from __future__ import annotations

import abc
import functools
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.telemetry import get_telemetry

if TYPE_CHECKING:
    from repro.data.domain import Interval
    from repro.telemetry.runtime import Telemetry


class EstimatorError(Exception):
    """Base class for all errors raised by ``repro`` estimators."""


class InvalidSampleError(EstimatorError):
    """The sample set handed to an estimator is unusable.

    Raised for empty samples, samples containing NaN/inf, or samples
    that fall outside the declared attribute domain.
    """


class InvalidQueryError(EstimatorError):
    """A query range is malformed (``a > b``, NaN endpoints, ...)."""


class MissingSeedError(EstimatorError):
    """A random draw was requested without an explicit seed.

    Every random draw in this codebase must be reproducibly seeded —
    the paper's estimator comparisons are only meaningful when every
    estimator sees the same data, and an unseeded draw makes a figure
    unreproducible.  Pass an integer seed or a ready
    ``np.random.Generator`` (derive composite seeds with
    ``np.random.SeedSequence``).
    """


def validate_sample(sample: np.ndarray, domain: "Interval | None" = None) -> np.ndarray:
    """Validate and canonicalize a sample set.

    Parameters
    ----------
    sample:
        One-dimensional array-like of attribute values.
    domain:
        Optional attribute domain; when given, every sample value must
        lie inside it.

    Returns
    -------
    numpy.ndarray
        A one-dimensional, C-contiguous ``float64`` copy of the sample.

    Raises
    ------
    InvalidSampleError
        If the sample is empty, not one-dimensional, contains
        non-finite values, or violates the domain bounds.
    """
    values = np.asarray(sample, dtype=np.float64)
    if values.ndim != 1:
        raise InvalidSampleError(f"sample must be one-dimensional, got shape {values.shape}")
    if values.size == 0:
        raise InvalidSampleError("sample must contain at least one value")
    if not np.all(np.isfinite(values)):
        raise InvalidSampleError("sample contains NaN or infinite values")
    if domain is not None:
        low, high = domain.low, domain.high
        if values.min() < low or values.max() > high:
            raise InvalidSampleError(
                f"sample values fall outside the domain [{low}, {high}]: "
                f"observed range [{values.min()}, {values.max()}]"
            )
    return np.ascontiguousarray(values)


def validate_query(a: float, b: float) -> tuple[float, float]:
    """Validate a query range and return it as a ``(a, b)`` float pair.

    Raises
    ------
    InvalidQueryError
        If either endpoint is non-finite or ``a > b``.
    """
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InvalidQueryError(f"query endpoints must be finite, got [{a}, {b}]")
    if a > b:
        raise InvalidQueryError(f"query range is empty: a={a} > b={b}")
    return a, b


def validate_query_batch(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a whole batch of query ranges up front.

    The batch analogue of :func:`validate_query`: endpoint arrays must
    have matching shapes, finite values, and ``a <= b`` elementwise.
    Validation happens *before* any evaluation work so a malformed
    batch cannot fail halfway through with a misleading error type.

    Returns
    -------
    tuple[numpy.ndarray, numpy.ndarray]
        The endpoints as ``float64`` arrays.

    Raises
    ------
    InvalidQueryError
        If shapes differ, any endpoint is non-finite, or any range is
        empty (``a > b``).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidQueryError(f"endpoint arrays differ in shape: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidQueryError("query endpoints must be finite")
    bad = np.ravel(a > b)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        qa, qb = np.ravel(a)[j], np.ravel(b)[j]
        raise InvalidQueryError(f"query range is empty: a={qa} > b={qb} (batch index {j})")
    return a, b


# --------------------------------------------------------------------
# Telemetry instrumentation (see docs/OBSERVABILITY.md).
#
# Every concrete estimator subclass is wrapped automatically via
# ``__init_subclass__``: construction is traced as an
# ``estimator.build`` span and queries are recorded as
# ``estimator.query`` metrics.  The wrappers short-circuit to the
# original method when the process-global telemetry is disabled (the
# default), so the steady-state cost is one attribute check.

#: Re-entrancy depth of query instrumentation.  A batch call that
#: falls back to the scalar loop (or an estimator delegating to inner
#: estimators) must be recorded once, at the outermost level.
#: Thread-local so concurrent harness workers track their own depth.
_query_state = threading.local()


def _depth() -> int:
    return getattr(_query_state, "depth", 0)


def _set_depth(value: int) -> None:
    _query_state.depth = value


def _observe_smoothing(telemetry: "Telemetry", estimator: object) -> None:
    """Record the smoothing parameter the finished build chose."""
    cls_name = type(estimator).__name__
    for attribute, metric in (("bandwidth", "estimator.bandwidth"), ("bin_count", "estimator.bins")):
        try:
            value = getattr(estimator, attribute, None)
        except Exception:  # a property that itself fails must not break builds
            continue
        if isinstance(value, (int, float)) and np.isfinite(value):
            telemetry.metrics.observe(f"{metric}.{cls_name}", float(value))


def _wrap_build(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def build(self: Any, *args: Any, **kwargs: Any) -> Any:
        telemetry = get_telemetry()
        if not telemetry.enabled or telemetry.in_span("estimator.build"):
            return fn(self, *args, **kwargs)
        cls_name = type(self).__name__
        with telemetry.span("estimator.build", **{"class": cls_name}) as record:
            result = fn(self, *args, **kwargs)
        telemetry.metrics.inc("estimator.build")
        telemetry.metrics.observe(f"estimator.build.seconds.{cls_name}", record.duration)
        _observe_smoothing(telemetry, self)
        return result

    build.__telemetry_wrapped__ = True  # type: ignore[attr-defined]
    return build


def _wrap_selectivity(fn: Callable[..., float]) -> Callable[..., float]:
    @functools.wraps(fn)
    def selectivity(self: Any, a: float, b: float) -> float:
        telemetry = get_telemetry()
        if not telemetry.enabled or _depth():
            return fn(self, a, b)
        cls_name = type(self).__name__
        _set_depth(_depth() + 1)
        start = time.perf_counter()
        try:
            result = fn(self, a, b)
        finally:
            _set_depth(_depth() - 1)
        elapsed = time.perf_counter() - start
        telemetry.metrics.inc("estimator.query")
        telemetry.metrics.observe(f"estimator.query.seconds.{cls_name}", elapsed)
        telemetry.metrics.observe(f"estimator.query.latency.{cls_name}", elapsed)
        return result

    selectivity.__telemetry_wrapped__ = True  # type: ignore[attr-defined]
    return selectivity


def _wrap_selectivities(fn: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    @functools.wraps(fn)
    def selectivities(self: Any, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        telemetry = get_telemetry()
        if not telemetry.enabled or _depth():
            return fn(self, a, b)
        cls_name = type(self).__name__
        _set_depth(_depth() + 1)
        try:
            with telemetry.span("estimator.query_batch", **{"class": cls_name}) as record:
                result = fn(self, a, b)
        finally:
            _set_depth(_depth() - 1)
        size = int(np.asarray(a).size)
        telemetry.metrics.inc("estimator.query", size)
        telemetry.metrics.inc("estimator.query_batch")
        telemetry.metrics.observe("estimator.query_batch.size", size)
        telemetry.metrics.observe(f"estimator.query.seconds.{cls_name}", record.duration)
        if size:
            telemetry.metrics.observe(
                f"estimator.query.latency.{cls_name}", record.duration / size
            )
        return result

    selectivities.__telemetry_wrapped__ = True  # type: ignore[attr-defined]
    return selectivities


_INSTRUMENTED = {
    "__init__": _wrap_build,
    "selectivity": _wrap_selectivity,
    "selectivities": _wrap_selectivities,
}


def _instrument_estimator_class(cls: type) -> None:
    """Wrap the methods ``cls`` itself defines (inherited ones are
    already wrapped in the class that defined them)."""
    for name, wrapper in _INSTRUMENTED.items():
        fn = cls.__dict__.get(name)
        if fn is None or not callable(fn):
            continue
        if getattr(fn, "__telemetry_wrapped__", False):
            continue
        if getattr(fn, "__isabstractmethod__", False):
            continue
        setattr(cls, name, wrapper(fn))


class SelectivityEstimator(abc.ABC):
    """A built statistic that estimates range-query selectivities.

    Implementations are immutable after construction: they are built
    once from a sample (the cheap statistics-collection step a database
    system runs at ANALYZE time) and then answer arbitrarily many
    queries.

    Subclasses are automatically instrumented for telemetry: builds
    emit ``estimator.build`` spans, queries emit ``estimator.query``
    metrics (no-ops while telemetry is disabled, the default).
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        _instrument_estimator_class(cls)

    @property
    @abc.abstractmethod
    def sample_size(self) -> int:
        """Number of samples the estimator was built from."""

    @abc.abstractmethod
    def selectivity(self, a: float, b: float) -> float:
        """Estimate the distribution selectivity of ``Q(a, b)``.

        Parameters
        ----------
        a, b:
            Query range endpoints with ``a <= b``.  The query retrieves
            records ``r`` with ``a <= r.A <= b`` (paper §2).

        Returns
        -------
        float
            Estimated selectivity, clipped to ``[0, 1]``.
        """

    def selectivities(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`selectivity` over parallel endpoint arrays.

        The default implementation loops; estimators override it when a
        faster vectorized path exists.  The whole batch is validated up
        front (:func:`validate_query_batch`) so malformed queries fail
        before any evaluation work.
        """
        a, b = validate_query_batch(a, b)
        out = np.empty(a.shape, dtype=np.float64)
        flat_a, flat_b, flat_out = a.ravel(), b.ravel(), out.ravel()
        for i in range(flat_a.size):
            flat_out[i] = self.selectivity(flat_a[i], flat_b[i])
        return out

    def estimate_result_size(self, a: float, b: float, relation_size: int) -> float:
        """Estimate the *instance* result size ``N * sigma(a, b)`` (paper §2)."""
        if relation_size < 0:
            raise InvalidQueryError(f"relation size must be non-negative, got {relation_size}")
        return self.selectivity(a, b) * relation_size


class DensityEstimator(SelectivityEstimator):
    """A selectivity estimator backed by an explicit density estimate."""

    @abc.abstractmethod
    def density(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the estimated PDF at each point of ``x``.

        Parameters
        ----------
        x:
            Array of evaluation points.

        Returns
        -------
        numpy.ndarray
            Estimated density values, same shape as ``x``.  Values may
            be negative for estimators that are consistent but not
            proper densities (boundary-kernel methods, paper §3.2.1).
        """

    def cdf(self, x: np.ndarray, *, origin: float | None = None) -> np.ndarray:
        """Evaluate the estimated CDF ``F(x) = integral of density``.

        The default implementation integrates via :meth:`selectivity`
        from ``origin`` (the estimator's domain low end when ``None``).
        """
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if origin is None:
            origin = getattr(self, "domain", None)
            if origin is None:
                raise InvalidQueryError("cdf() needs an origin for estimators without a domain")
            origin = origin.low
        lo = np.full(x.shape, float(origin))
        return self.selectivities(lo, np.maximum(x, origin))
