"""Deployment of a compacted test set on the production tester.

Paper Section 3.3: after compaction the acceptability ranges of the
kept tests are no longer sufficient -- the acceptance region is
reshaped by the statistical model (Fig. 3).  Shipping the raw SVM to
the tester "may require a significant amount of additional tester
resources", so the paper proposes dividing the compacted-specification
space into a grid and storing a good/bad attribute per cell: a lookup
table the tester program consults at negligible cost.

* :mod:`repro.tester.lookup` -- the grid lookup table.

The guard-band retest flow and cost accounting that run a program
over a population live in :class:`repro.floor.engine.TestFloor`.
"""

from repro.tester.lookup import LookupTable

__all__ = ["LookupTable"]
