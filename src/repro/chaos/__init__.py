"""repro.chaos -- deterministic, seed-tree-driven fault injection.

The durability and degradation guarantees of the serving stack (WAL
journal replay, 503 respawn windows, rollback fan-out, deadline 504s)
are only as real as the faults they were tested against.  This package
turns fault injection into the same kind of object the rest of the
repo is built on: a *pure function of a seed*.

:class:`~repro.chaos.inject.FaultPlan`
    One integer seed -> per-site fault schedules via
    ``numpy.random.SeedSequence`` spawning, exactly like the data
    plane's per-instance seed tree.  Every chaos run -- which request
    gets a delayed/dropped/reset response, which journal append hits
    a full disk, which shard write tears, when each worker is
    SIGKILLed -- is replayable from that one integer.
:class:`~repro.chaos.inject.FaultInjector`
    Context manager that installs the plan into the test-only hooks
    exported by the production modules
    (``server.RESPONSE_FAULT_HOOK``, which both serving tiers consult,
    ``durability.JOURNAL_FAULT_HOOK``, ``shard.SHARD_FAULT_HOOK``)
    and restores them on exit, recording every fired fault.

The hooks are inert ``None`` module globals in production; nothing in
this package is imported by the serving stack.  The chaos suite
(``tests/chaos/``) drives the load generator against clusters under
these plans and asserts the repo's one non-negotiable: every injected
fault ends in a typed error or a retried bit-identical success --
never a silently wrong disposition.
"""

from repro.chaos.inject import (
    FaultInjector,
    FaultPlan,
    SiteSchedule,
    corrupt_file,
    worker_startup_fault,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "SiteSchedule",
    "corrupt_file",
    "worker_startup_fault",
]
