"""Deployment of a compacted test set on the production tester.

Paper Section 3.3: after compaction the acceptability ranges of the
kept tests are no longer sufficient -- the acceptance region is
reshaped by the statistical model (Fig. 3).  Shipping the raw SVM to
the tester "may require a significant amount of additional tester
resources", so the paper proposes dividing the compacted-specification
space into a grid and storing a good/bad attribute per cell: a lookup
table the tester program consults at negligible cost.

* :mod:`repro.tester.lookup` -- the grid lookup table;
* :mod:`repro.tester.program` -- a production test-program simulation
  including the guard-band retest flow and cost accounting.

:class:`~repro.core.metrics.ClassificationReport` is re-exported here
because every :class:`TestOutcome` carries one.
"""

from repro.core.metrics import ClassificationReport
from repro.tester.lookup import LookupTable
from repro.tester.program import (
    RETEST_ACCEPT,
    RETEST_FULL,
    RETEST_REJECT,
    TestOutcome,
    TestProgram,
    apply_retest_policy,
    check_retest_policy,
    policy_cost,
    unit_costs,
)

__all__ = [
    "ClassificationReport",
    "LookupTable",
    "RETEST_ACCEPT",
    "RETEST_FULL",
    "RETEST_REJECT",
    "TestOutcome",
    "TestProgram",
    "apply_retest_policy",
    "check_retest_policy",
    "policy_cost",
    "unit_costs",
]
