"""repro.runtime -- the Monte-Carlo engine and process pools.

The paper's greedy pruning loop
(:class:`~repro.core.compaction.TestCompactor`) retrains a
guard-banded SVM pair for every candidate test elimination, and its
training data comes from Monte-Carlo simulation; this package holds
the runtime pieces both lean on:

``repro.runtime.simulation``
    The deterministic parallel Monte-Carlo generation engine:
    per-instance ``SeedSequence`` streams fan device simulation out
    across processes with bit-identical datasets at any worker count.
    One scheduler, :func:`~repro.runtime.simulation.
    generate_instance_batches`, streams every population, and one
    slot loop, :func:`~repro.runtime.simulation.
    simulate_slots_batched`, simulates every slot: through a DUT's
    ``measure_batch`` when present (the stacked MNA kernel of
    :mod:`repro.circuit.batch`), else through ``measure``.
``repro.runtime.parallel``
    The process-pool plumbing (worker-count resolution, pool
    construction) the compactor and the scheduler share.
"""

from repro.runtime.parallel import cpu_count, resolve_n_jobs
from repro.runtime.simulation import (
    generate_instance_batches,
    generate_instances,
    instance_streams,
    simulate_slots_batched,
)

__all__ = [
    "cpu_count",
    "generate_instance_batches",
    "generate_instances",
    "instance_streams",
    "resolve_n_jobs",
    "simulate_slots_batched",
]
