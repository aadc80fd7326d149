"""Deterministic parallel Monte-Carlo simulation engine.

Monte-Carlo data generation (paper Fig. 1) is the dominant wall-clock
cost of the whole flow: every op-amp instance is five real circuit
analyses.  This module fans the per-instance simulations out across
worker processes while guaranteeing **bit-identical datasets to a
serial run** at any worker count.

The seed tree
-------------

The guarantee rests on per-instance seeding.  A run's master seed
builds one :class:`numpy.random.SeedSequence`, and instance slot ``i``
draws from the ``i``-th spawned child stream::

    SeedSequence(seed) --spawn--> child 0 -> rng for slot 0
                                  child 1 -> rng for slot 1
                                  ...

Each slot's parameter draws -- including any resamples after a failed
simulation -- stay inside the slot's own stream, so a slot's result is
a pure function of ``(dut, seed, slot index)``:

* execution order and worker count cannot change any value;
* a failure in slot ``i`` never shifts the draws of slot ``i + 1``
  (unlike a single shared stream, where every resample displaces all
  later instances);
* spawned children are keyed by index, so the first ``k`` slots of an
  ``n``-instance run equal a ``k``-instance run outright (populations
  can be grown or subsampled without resimulating).

DUT purity
----------

Parallel generation ships a pickled copy of the DUT to every worker,
so ``sample_parameters``/``measure`` must be pure functions of their
inputs.  Stateful wrappers (e.g. a :class:`~repro.process.defects.
DefectInjector` counting ``n_injected``) still produce correct data,
but their in-process counters only reflect the instances their own
copy simulated -- run them serially when the side state matters.

Slot loop
---------

One loop simulates every slot, :func:`simulate_slots_batched`: a wave
of slots is measured in one call, and the slots that failed are
resampled (from their own streams) into the next wave.  A DUT with
``measure_batch`` is measured through it -- for the real benches, the
batched MNA kernel of :mod:`repro.circuit.batch`, which stacks every
instance's circuit systems into single LAPACK calls.  A DUT without
it gets ``measure`` mapped over the wave, one slot per task, so a
serial abort still stops after exactly ``max_failures`` calls.  The
seed tree is untouched either way: parameters are drawn per slot from
per-slot streams (resamples included), so the dataset, the failure
accounting and the abort decision are identical on both kinds of DUT,
at any worker count.

Entry points
------------

:func:`generate_instance_batches` is the one scheduler: it streams a
population as value batches and owns validation, the worker pool, the
run-level failure budget and the telemetry.
:func:`generate_instances` is its single-batch form, returning the
raw value matrix plus a :class:`~repro.process.montecarlo.
GenerationReport`; :func:`repro.process.montecarlo.generate_dataset`
wraps it in a :class:`~repro.process.dataset.SpecDataset`.
"""

import numbers
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError, ReproError
from repro.process.montecarlo import GenerationReport, default_max_failures
from repro.runtime.parallel import make_pool, resolve_n_jobs
from repro.telemetry import get_telemetry

#: Per-process worker state (set by :func:`_init_simulation_worker`).
_WORKER = {}

#: Slots per ``measure_batch`` call of a batch-capable DUT: large
#: enough to amortize the stamp-plan compilation and stacked-solve
#: overhead, small enough to bound the stacked-array working set (a
#: transient waveform stack is ``slots x steps x unknowns`` floats).
BATCH_SLOTS = 128


def _uses_batch(dut):
    """True when ``dut`` implements the optional ``measure_batch``."""
    return getattr(dut, "measure_batch", None) is not None


def _chunk_size(dut, n_instances, n_jobs):
    """Slots per task: one for a ``measure``-only DUT, else a chunk."""
    if not _uses_batch(dut):
        return 1
    return _batched_chunk_size(n_instances, n_jobs)


def _chunks(streams, size):
    """``streams`` cut into consecutive tuples of at most ``size``."""
    return [tuple(streams[start:start + size])
            for start in range(0, len(streams), size)]


def _batched_chunk_size(n_instances, n_jobs):
    """Slots per batched task: cap chunks so every worker gets work.

    With one worker the full :data:`BATCH_SLOTS` amortization wins;
    with several, chunks shrink toward ``n_instances / n_jobs`` so the
    batched kernel still composes with process fan-out on small
    populations (chunk boundaries never change any value).
    """
    if n_jobs <= 1:
        return BATCH_SLOTS
    per_worker = -(-n_instances // n_jobs)  # ceil division
    return max(1, min(BATCH_SLOTS, per_worker))


def instance_streams(seed, n_instances):
    """Per-slot child :class:`~numpy.random.SeedSequence` streams.

    Children are keyed by spawn index, so ``instance_streams(seed, k)``
    is always a prefix of ``instance_streams(seed, n)`` for ``k <= n``.
    """
    return np.random.SeedSequence(seed).spawn(n_instances)


def instance_streams_range(seed, start, stop):
    """Child streams for slots ``[start, stop)`` of a run's seed tree.

    ``SeedSequence.spawn`` keys child ``i`` as ``SeedSequence(entropy,
    spawn_key=(i,))``, so the children of any slot range can be built
    directly without materializing (or re-spawning) the prefix --
    bit-identical to ``instance_streams(seed, n)[start:stop]`` for any
    ``n >= stop``.  This is what lets the sharded dataset layer
    (:mod:`repro.data`) simulate any shard, or resume generation at an
    arbitrary slot, in isolation.
    """
    entropy = np.random.SeedSequence(seed).entropy
    return [np.random.SeedSequence(entropy, spawn_key=(i,))
            for i in range(start, stop)]


@dataclass
class SlotResult:
    """Outcome of simulating one instance slot.

    ``row`` is the measured specification vector, or ``None`` when the
    slot gave up (first error in ``"raise"`` mode, or the slot alone
    exhausted the run's failure budget).  ``n_attempts`` counts every
    simulation tried; ``failures`` their error messages in order;
    ``error`` the first exception, kept so ``"raise"`` mode can
    propagate the original error from the lowest failing slot.
    """

    row: object
    n_attempts: int
    failures: list
    error: object = None


def _batch_measure(dut):
    """``(measure_batch, method name)`` for any DUT.

    A DUT without ``measure_batch`` gets ``dut.measure`` mapped over
    the parameter sets, each :class:`~repro.errors.ReproError` returned
    in place of that instance's row -- the ``measure_batch`` contract.
    The name is the method the DUT implements, for error messages.
    """
    if _uses_batch(dut):
        return dut.measure_batch, "measure_batch"

    def measure_each(params_list):
        rows = []
        for params in params_list:
            try:
                rows.append(dut.measure(params))
            except ReproError as exc:
                rows.append(exc)
        return rows

    return measure_each, "measure"


def simulate_slots_batched(dut, entropies, n_specs, on_error,
                           failure_budget):
    """Simulate instance slots in waves, each slot to success or give-up.

    One batch measurement simulates a whole wave of slots; slots whose
    measurement failed are resampled from their own streams and retried
    together in follow-up waves until every slot succeeds or gives up.
    A slot gives up at its first error in ``"raise"`` mode, or once it
    alone has failed ``failure_budget`` times -- the *run-wide* cap,
    so the run is doomed regardless of the other slots.  Each slot's
    draws, failures and attempts depend on its entropy alone, never on
    the wave it ran in.

    The waves go through ``dut.measure_batch`` when the DUT has it,
    else through ``dut.measure`` per parameter set.  Returns one
    :class:`SlotResult` per entropy, in order.
    """
    measure, method = _batch_measure(dut)
    n = len(entropies)
    rngs = [np.random.default_rng(entropy) for entropy in entropies]
    attempts = [0] * n
    failures = [[] for _ in range(n)]
    first_error = [None] * n
    rows = [None] * n
    active = list(range(n))
    while active:
        params = [dut.sample_parameters(rngs[slot]) for slot in active]
        results = measure(params)
        if len(results) != len(active):
            raise DatasetError(
                "DUT {}() returned {} results for {} parameter "
                "sets".format(method, len(results), len(active)))
        retry = []
        for slot, result in zip(active, results):
            attempts[slot] += 1
            if isinstance(result, ReproError):
                message, error = str(result), result
            else:
                row = np.asarray(result, dtype=float)
                if row.shape != (n_specs,):
                    raise DatasetError(
                        "DUT {}() returned shape {}, expected "
                        "({},)".format(method, row.shape, n_specs))
                if np.all(np.isfinite(row)):
                    rows[slot] = row
                    continue
                message = "non-finite measurement"
                error = DatasetError("non-finite measurement from DUT")
            failures[slot].append(message)
            if first_error[slot] is None:
                first_error[slot] = error
            if (on_error != "raise"
                    and len(failures[slot]) < failure_budget):
                retry.append(slot)
        active = retry
    return [SlotResult(rows[slot], attempts[slot], failures[slot],
                       None if rows[slot] is not None
                       else first_error[slot])
            for slot in range(n)]


def _init_simulation_worker(dut, n_specs, on_error, budget):
    """Pool initializer: park the run's configuration per process."""
    _WORKER["run"] = (dut, n_specs, on_error, budget)


def _simulate_chunk_task(entropies):
    """Simulate one chunk of consecutive slots in a worker."""
    dut, n_specs, on_error, budget = _WORKER["run"]
    return simulate_slots_batched(dut, entropies, n_specs, on_error,
                                  budget)


def _record_sim_progress(tel, n_slots, seconds, d_attempts, d_failures,
                         n_failed, budget):
    """Fold one simulated batch into the telemetry registry.

    Called parent-side only (worker processes carry no telemetry):
    attempt/failure deltas come from the run's
    :class:`~repro.process.montecarlo.GenerationReport`, so the
    counters are identical at any worker count and for any DUT.
    """
    tel.counter("repro_sim_slots_total", n_slots)
    tel.counter("repro_sim_attempts_total", d_attempts)
    resamples = d_attempts - n_slots
    if resamples > 0:
        tel.counter("repro_sim_resamples_total", resamples)
    if d_failures:
        tel.counter("repro_sim_failures_total", d_failures)
    tel.counter("repro_sim_seconds_total", seconds)
    tel.observe("repro_sim_batch_seconds", seconds)
    if budget:
        tel.gauge("repro_sim_failure_budget_used", n_failed / budget)


class _BatchCollector:
    """Accumulates one batch's slot results, strictly in slot order.

    The collector is where the run-level failure semantics live:
    failures replay in slot order into the run's shared ``report``
    and the run aborts the moment the budget is met, so the abort
    decision (and its message) is identical at any worker count.
    """

    def __init__(self, n_instances, n_specs, on_error, max_failures,
                 report):
        self.values = np.empty((n_instances, n_specs))
        self.n_slots = 0
        self._on_error = on_error
        self._max_failures = max_failures
        self.report = report

    def add(self, result):
        """Merge the next slot's result; raises on abort conditions."""
        self.report.n_simulated += result.n_attempts
        if result.error is not None and self._on_error == "raise":
            raise result.error
        for message in result.failures:
            self.report.record_failure(message)
            if self.report.n_failed >= self._max_failures:
                raise DatasetError(
                    "Monte-Carlo generation aborted: {} simulation "
                    "failures (last: {})".format(self.report.n_failed,
                                                 message))
        self.values[self.n_slots] = result.row
        self.n_slots += 1


def generate_instances(dut, n_instances, seed, n_jobs=None,
                       on_error="resample", max_failures=None):
    """Simulate one Monte-Carlo population with per-instance seeding.

    Returns ``(values, report)``: the one batch of
    :func:`generate_instance_batches` at ``batch_size == n_instances``
    and the :class:`~repro.process.montecarlo.GenerationReport` it
    filled.  See there for the parameters and the determinism contract.
    """
    report = GenerationReport(n_requested=n_instances)
    [values] = generate_instance_batches(
        dut, n_instances, seed, n_instances, n_jobs=n_jobs,
        on_error=on_error, max_failures=max_failures, report=report)
    return values, report


def generate_instance_batches(dut, n_instances, seed, batch_size,
                              n_jobs=None, on_error="resample",
                              max_failures=None, first_slot=0,
                              report=None):
    """Stream one Monte-Carlo population as consecutive value batches.

    Returns an iterator yielding ``(batch, n_specs)`` value arrays of
    at most ``batch_size`` rows.  Slot ``i`` always draws from the
    ``i``-th child of the run's seed tree, so the concatenation is
    **bit-identical** at any ``batch_size`` and any ``n_jobs`` (``None``
    / ``1`` serial, ``-1`` one per CPU): batch boundaries only decide
    *when* a row is handed out, never what it contains.  The full
    population is never materialized, which is what lets
    :class:`repro.floor.engine.TestFloor` push simulated traffic of
    arbitrary length through a fixed memory footprint.

    Failure accounting is run-level: a shared budget of
    ``max_failures`` (default :func:`~repro.process.montecarlo.
    default_max_failures`) spans all batches, failures replay in slot
    order, and the run aborts at exactly that many failures with
    ``on_error="resample"`` (``"raise"`` propagates the first error
    instead), identically at any worker count.  Slot results are
    consumed in slot order as they arrive, so an abort stops the run
    without simulating the remaining slots: serially nothing past the
    abort point runs (a batch-capable DUT stops at chunk granularity);
    in parallel the queued tasks are cancelled and only in-flight
    slots complete.  One worker pool is reused across all batches, and
    seed-tree children are built one batch at a time from their spawn
    keys (:func:`instance_streams_range`), keeping memory proportional
    to ``batch_size`` rather than ``n_instances``.

    ``first_slot`` starts the stream at that slot of the seed tree
    instead of slot 0: the yielded rows equal rows ``[first_slot,
    first_slot + n_instances)`` of a cold run with the same seed.
    Together with a caller-provided ``report`` (which carries the
    failure accounting of the already-generated prefix), this is the
    *resume* primitive of :mod:`repro.data`: extending a dataset never
    re-simulates the rows it already holds.  ``report.elapsed_s``
    accumulates the wall-clock spent simulating (consumer time between
    batches is excluded).

    The arguments are checked when this is called, before any batch
    is drawn: a bad seed, size or budget raises
    :class:`~repro.errors.DatasetError` here.
    """
    if n_instances <= 0:
        raise DatasetError("n_instances must be positive")
    batch_size = int(batch_size)
    if batch_size < 1:
        raise DatasetError("batch_size must be positive")
    first_slot = int(first_slot)
    if first_slot < 0:
        raise DatasetError("first_slot must be non-negative")
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or seed < 0):
        raise DatasetError(
            "seed must be a non-negative integer, not {!r}".format(seed))
    if on_error not in ("resample", "raise"):
        raise DatasetError("on_error must be 'resample' or 'raise'")
    budget = (default_max_failures(n_instances)
              if max_failures is None else int(max_failures))
    if budget < 1:
        raise DatasetError("max_failures must be at least 1")
    if report is None:
        report = GenerationReport(n_requested=n_instances)
    return _stream_batches(dut, n_instances, int(seed), batch_size,
                           resolve_n_jobs(n_jobs), on_error, budget,
                           first_slot, report)


def _stream_batches(dut, n_instances, seed, batch_size, n_jobs,
                    on_error, budget, first_slot, report):
    """The generator behind :func:`generate_instance_batches`."""
    n_specs = len(dut.specifications)
    tel = get_telemetry()
    span_attrs = {"engine": "batched" if _uses_batch(dut) else "scalar"}
    pool = None
    if n_jobs > 1 and n_instances > 1:
        span_attrs["n_jobs"] = n_jobs
        pool = make_pool(min(n_jobs, n_instances),
                         initializer=_init_simulation_worker,
                         initargs=(dut, n_specs, on_error, budget))

        def run_chunks(chunks):
            return pool.map(_simulate_chunk_task, chunks)
    else:
        # Plain local calls: generators interleave (a consumer may
        # alternate several streams), so the serial path must not
        # touch the process-global _WORKER configuration.  Lazy, so
        # an abort stops further simulation.
        def run_chunks(chunks):
            return (simulate_slots_batched(dut, streams, n_specs,
                                           on_error, budget)
                    for streams in chunks)
    try:
        produced = 0
        while produced < n_instances:
            take = min(batch_size, n_instances - produced)
            start = first_slot + produced
            streams = instance_streams_range(seed, start, start + take)
            produced += take
            collector = _BatchCollector(take, n_specs, on_error, budget,
                                        report)
            prev = (report.n_simulated, report.n_failed)
            with tel.span("sim.batch", **span_attrs) as span:
                t0 = time.perf_counter()
                size = _chunk_size(dut, take, n_jobs)
                for results in run_chunks(_chunks(streams, size)):
                    for result in results:
                        collector.add(result)
                elapsed = time.perf_counter() - t0
                span.set(slots=collector.n_slots)
            report.elapsed_s += elapsed
            if tel.enabled:
                _record_sim_progress(
                    tel, collector.n_slots, elapsed,
                    report.n_simulated - prev[0],
                    report.n_failed - prev[1], report.n_failed, budget)
            yield collector.values
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
