"""repro.runtime -- the Monte-Carlo engine and process pools.

The paper's greedy pruning loop
(:class:`~repro.core.compaction.TestCompactor`) retrains a
guard-banded SVM pair for every candidate test elimination, and its
training data comes from Monte-Carlo simulation; this package holds
the runtime pieces both lean on:

``repro.runtime.simulation``
    The deterministic parallel Monte-Carlo generation engine:
    per-instance ``SeedSequence`` streams fan device simulation out
    across processes with bit-identical datasets at any worker count,
    including the :func:`~repro.runtime.simulation.
    generate_lot_instances` scheduler for whole lot batches.  A DUT's
    ``measure_batch`` is used when present, routing slot chunks
    through the stacked MNA kernel (:mod:`repro.circuit.batch`).
``repro.runtime.parallel``
    The process-pool plumbing (worker resolution, ordered maps,
    serial fallbacks) everything above shares.
"""

from repro.runtime.parallel import cpu_count, parallel_map, resolve_n_jobs
from repro.runtime.simulation import (
    generate_instance_batches,
    generate_instances,
    generate_lot_instances,
    instance_streams,
    simulate_slots_batched,
)

__all__ = [
    "cpu_count",
    "generate_instance_batches",
    "generate_instances",
    "generate_lot_instances",
    "instance_streams",
    "parallel_map",
    "resolve_n_jobs",
    "simulate_slots_batched",
]
