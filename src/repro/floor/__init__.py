"""repro.floor -- the deployable production test floor.

The paper's end product is not a trained model but a *deployed test
program*: a compacted specification test set that dispositions every
manufactured device on the tester, with guard-band retest (Section
4.2) and insertion-aware cost accounting (Section 6).  This package is
the layer between training and production:

``repro.floor.artifact``
    :class:`TestProgramArtifact` -- one versioned file holding the
    kept test set, the trained guard-banded model (plus optional
    lookup table), guard-band and cost parameters, drift baseline and
    a provenance header; save at train time, load on any floor.
``repro.floor.engine``
    :class:`TestFloor` -- the one disposition kernel (first pass,
    retest policy, cost, bins): streams devices through the program in
    vectorized batches with pluggable retest policies (``RETEST_*``),
    and evaluates offline populations through the same path; simulated
    traffic rides the deterministic seed tree of
    :mod:`repro.runtime.simulation`, so results are identical at any
    batch size and worker count.
``repro.floor.monitor``
    :class:`DriftMonitor` -- rolling per-spec mean and
    guard-band-rate control charts that flag when the incoming
    population departs from the training distribution and recommend
    recalibration.
``repro.floor.report``
    :class:`LotReport` / :class:`FloorReport` -- per-lot yield,
    escape, cost and throughput accounting.

CLI surface: ``repro deploy`` (train + save artifact) and ``repro
floor`` (load artifact, stream devices, report lots).
"""

from repro.floor.artifact import SCHEMA_VERSION, TestProgramArtifact
from repro.floor.engine import (
    DEFAULT_BATCH_SIZE,
    RETEST_ACCEPT,
    RETEST_FULL,
    RETEST_REJECT,
    BatchDisposition,
    TestFloor,
    check_retest_policy,
)
from repro.floor.monitor import DriftAlarm, DriftBaseline, DriftMonitor
from repro.floor.report import FloorReport, LotReport

__all__ = [
    "BatchDisposition",
    "DEFAULT_BATCH_SIZE",
    "DriftAlarm",
    "DriftBaseline",
    "DriftMonitor",
    "FloorReport",
    "LotReport",
    "RETEST_ACCEPT",
    "RETEST_FULL",
    "RETEST_REJECT",
    "SCHEMA_VERSION",
    "TestFloor",
    "TestProgramArtifact",
    "check_retest_policy",
]
