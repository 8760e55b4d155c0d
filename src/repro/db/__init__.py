"""A miniature optimizer substrate around the estimators.

The paper's opening motivation is System R's cost-based optimizer:
intermediate-result sizes are estimated from per-attribute statistics
to rank execution plans.  This package is that consumer, built small
but real:

* :mod:`repro.db.table` — multi-column tables with exact predicate
  evaluation and sampling.
* :mod:`repro.db.catalog` — ``ANALYZE``: one family-independent
  table record (row sample, mergeable reservoirs, row counts) and the
  per-column statistics a pluggable estimator family builds from it.
* :mod:`repro.db.planner` — cardinality estimation for conjunctions
  of range predicates (independence or joint 2-D statistics) and a
  two-access-path cost model with ``EXPLAIN`` output.
"""

from repro.db.catalog import Catalog
from repro.db.planner import Plan, Planner, RangePredicate
from repro.db.table import Table

__all__ = ["Catalog", "Plan", "Planner", "RangePredicate", "Table"]
