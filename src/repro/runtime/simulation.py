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

Slot paths
----------

The path is picked by what the DUT can do.  A DUT with
``measure_batch`` gets whole slot waves routed through it -- for the
real benches, the batched MNA kernel of :mod:`repro.circuit.batch`,
which stacks every instance's circuit systems into single LAPACK
calls.  Slots that fail simulation are resampled in follow-up waves
containing only the retrying slots.  A DUT without it is simulated one
slot at a time through ``dut.measure``.  The seed tree is untouched
either way: parameters are still drawn per slot from per-slot streams
(resamples included), so the dataset, the failure accounting and the
abort decision are identical on both paths, at any worker count, and
the batched path composes with process fan-out (each worker runs the
kernel on its own slot chunks).

Entry points
------------

:func:`generate_instances` simulates one population and returns the
raw value matrix plus a :class:`~repro.process.montecarlo.
GenerationReport`; :func:`generate_lot_instances` flattens many
independent lots (device x temperature x lot batches) into one slot
pool so small lots cannot leave workers idle.  Both are wrapped by
:func:`repro.process.montecarlo.generate_dataset` /
:func:`~repro.process.montecarlo.generate_many`, which add the
:class:`~repro.process.dataset.SpecDataset` packaging.
"""

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError, ReproError
from repro.process.montecarlo import GenerationReport, default_max_failures
from repro.runtime.parallel import make_pool, resolve_n_jobs
from repro.telemetry import get_telemetry

#: Per-process worker state (set by :func:`_init_simulation_worker`).
_WORKER = {}

#: Slots per ``measure_batch`` call of the batched path: large enough
#: to amortize the stamp-plan compilation and stacked-solve overhead,
#: small enough to bound the stacked-array working set (a transient
#: waveform stack is ``slots x steps x unknowns`` floats).
BATCH_SLOTS = 128


def _uses_batch(dut):
    """True when ``dut`` implements the optional ``measure_batch``."""
    return getattr(dut, "measure_batch", None) is not None


def _path_name(duts):
    """The slot path(s) a run takes, as reported on its spans."""
    return "+".join(sorted({"batched" if _uses_batch(dut) else "scalar"
                            for dut in duts}))


def _chunk_size(dut, n_instances, n_jobs):
    """Slots per task: one on the per-slot path, else a batched chunk."""
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


def simulate_slot(dut, entropy, n_specs, on_error, failure_budget):
    """Simulate one instance slot to success or until it gives up.

    Resamples after failures draw from the same slot stream
    (``entropy``), keeping the slot a pure function of its inputs.
    ``failure_budget`` is the *run-wide* failure cap: once this slot
    alone has failed that many times the run is doomed regardless of
    the other slots, so it stops retrying.
    """
    rng = np.random.default_rng(entropy)
    failures = []
    attempts = 0
    first_error = None
    while True:
        params = dut.sample_parameters(rng)
        attempts += 1
        try:
            row = np.asarray(dut.measure(params), dtype=float)
        except ReproError as exc:
            failures.append(str(exc))
            first_error = first_error or exc
            if on_error == "raise" or len(failures) >= failure_budget:
                return SlotResult(None, attempts, failures, first_error)
            continue
        if row.shape != (n_specs,):
            raise DatasetError(
                "DUT measure() returned shape {}, expected ({},)".format(
                    row.shape, n_specs))
        if not np.all(np.isfinite(row)):
            failures.append("non-finite measurement")
            first_error = first_error or DatasetError(
                "non-finite measurement from DUT")
            if on_error == "raise" or len(failures) >= failure_budget:
                return SlotResult(None, attempts, failures, first_error)
            continue
        return SlotResult(row, attempts, failures, None)


def simulate_slots_batched(dut, entropies, n_specs, on_error,
                           failure_budget):
    """Simulate many instance slots through ``dut.measure_batch``.

    The batched counterpart of :func:`simulate_slot`: one
    ``measure_batch`` call simulates a whole wave of slots; slots whose
    measurement failed are resampled (from their own streams, exactly
    as the scalar loop would) and retried together in follow-up waves
    until every slot succeeds or gives up.  Per-slot draw sequences,
    failure lists, attempt counts and give-up decisions are identical
    to running :func:`simulate_slot` on each entropy -- the wave
    structure only changes *when* work happens, never what it computes.

    ``dut.measure_batch(params_list)`` must return one entry per
    parameter set, each either a 1-D value array or the
    :class:`~repro.errors.ReproError` that instance's scalar
    measurement would have raised.
    """
    n = len(entropies)
    rngs = [np.random.default_rng(entropy) for entropy in entropies]
    attempts = [0] * n
    failures = [[] for _ in range(n)]
    first_error = [None] * n
    rows = [None] * n
    active = list(range(n))
    while active:
        params = [dut.sample_parameters(rngs[slot]) for slot in active]
        results = dut.measure_batch(params)
        if len(results) != len(active):
            raise DatasetError(
                "DUT measure_batch() returned {} results for {} "
                "parameter sets".format(len(results), len(active)))
        retry = []
        for slot, result in zip(active, results):
            attempts[slot] += 1
            if isinstance(result, ReproError):
                message, error = str(result), result
            else:
                row = np.asarray(result, dtype=float)
                if row.shape != (n_specs,):
                    raise DatasetError(
                        "DUT measure_batch() returned shape {}, "
                        "expected ({},)".format(row.shape, n_specs))
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


def simulate_chunk(dut, entropies, n_specs, on_error, failure_budget):
    """Simulate consecutive slots on the path ``dut`` supports.

    Returns one :class:`SlotResult` per entropy, in order: through
    :func:`simulate_slots_batched` when ``dut`` has ``measure_batch``,
    otherwise :func:`simulate_slot` per entropy.
    """
    if _uses_batch(dut):
        return simulate_slots_batched(dut, entropies, n_specs, on_error,
                                      failure_budget)
    return [simulate_slot(dut, entropy, n_specs, on_error,
                          failure_budget) for entropy in entropies]


def _init_simulation_worker(duts, n_specs, on_error, budgets):
    """Pool initializer: park the shared lot configuration per process."""
    _WORKER["duts"] = duts
    _WORKER["n_specs"] = n_specs
    _WORKER["on_error"] = on_error
    _WORKER["budgets"] = budgets


def _simulate_chunk_task(task):
    """Simulate one ``(lot index, entropy chunk)`` task in a worker."""
    lot, entropies = task
    return simulate_chunk(_WORKER["duts"][lot], entropies,
                          _WORKER["n_specs"][lot], _WORKER["on_error"],
                          _WORKER["budgets"][lot])


def _record_sim_progress(tel, n_slots, seconds, d_attempts, d_failures,
                         n_failed, budget):
    """Fold one simulated slot wave into the telemetry registry.

    Called parent-side only (worker processes carry no telemetry):
    attempt/failure deltas come from the run's
    :class:`~repro.process.montecarlo.GenerationReport`, so the
    counters are identical at any worker count and on either path.
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


class _LotCollector:
    """Accumulates one lot's slot results, strictly in slot order.

    The collector is where the run-level failure semantics live:
    failures replay in slot order and the run aborts the moment the
    budget is met, so the abort decision (and its message) is
    identical at any worker count.
    """

    def __init__(self, n_instances, n_specs, on_error, max_failures,
                 report=None):
        self._values = np.empty((n_instances, n_specs))
        self._slot = 0
        self._on_error = on_error
        self._max_failures = max_failures
        # A caller-provided report carries failure accounting across
        # collectors (the batch streaming path shares one run-level
        # budget over many per-batch collectors).
        self.report = (GenerationReport(n_requested=n_instances)
                       if report is None else report)

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
        self._values[self._slot] = result.row
        self._slot += 1

    def finish(self):
        return self._values, self.report


def generate_lot_instances(lots, n_jobs=None, on_error="resample"):
    """Simulate many independent Monte-Carlo lots through one slot pool.

    Slot results are consumed incrementally in slot order, so an abort
    (failure budget met, or first error in ``"raise"`` mode) stops the
    run without simulating the remaining slots: serially nothing past
    the abort point runs at all (the batched path stops at chunk
    granularity); in parallel the queued tasks are cancelled and only
    in-flight slots complete.

    Parameters
    ----------
    lots:
        Sequence of ``(dut, n_instances, seed, max_failures)`` tuples;
        ``max_failures=None`` selects :func:`~repro.process.montecarlo.
        default_max_failures`.
    n_jobs:
        Worker processes shared by *all* lots' instance slots (``None``
        / ``1`` serial, ``-1`` one per CPU).  Results are independent
        of the worker count.
    on_error:
        ``"resample"`` or ``"raise"``, applied to every lot.  Each
        lot takes the slot path its DUT supports (see the module
        docstring); results are identical on either path.

    Returns
    -------
    list of (values, GenerationReport)
        One entry per lot, in input order.
    """
    lots = list(lots)
    if on_error not in ("resample", "raise"):
        raise DatasetError("on_error must be 'resample' or 'raise'")
    n_jobs = resolve_n_jobs(n_jobs)
    duts, n_specs, budgets, tasks, collectors = [], [], [], [], []
    for lot_index, (dut, n_instances, seed, max_failures) in enumerate(lots):
        if n_instances <= 0:
            raise DatasetError("n_instances must be positive")
        budget = (default_max_failures(n_instances)
                  if max_failures is None else int(max_failures))
        duts.append(dut)
        n_specs.append(len(dut.specifications))
        budgets.append(budget)
        streams = instance_streams(seed, n_instances)
        tasks.extend((lot_index, chunk) for chunk in _chunks(
            streams, _chunk_size(dut, n_instances, n_jobs)))
        collectors.append(_LotCollector(n_instances, n_specs[lot_index],
                                        on_error, budget))

    tel = get_telemetry()

    def feed(lot_index, results):
        for result in results:
            collectors[lot_index].add(result)

    initargs = (tuple(duts), tuple(n_specs), on_error, tuple(budgets))
    with tel.span("sim.lots", lots=len(lots), engine=_path_name(duts),
                  n_jobs=n_jobs,
                  slots=sum(int(lot[1]) for lot in lots)):
        t_start = time.perf_counter()
        if n_jobs <= 1 or len(tasks) <= 1:
            # Lazy in-process map: an abort stops further simulation.
            _init_simulation_worker(*initargs)
            for task in tasks:
                feed(task[0], _simulate_chunk_task(task))
        else:
            pool = make_pool(min(n_jobs, len(tasks)),
                             initializer=_init_simulation_worker,
                             initargs=initargs)
            try:
                for task, results in zip(
                        tasks, pool.map(_simulate_chunk_task, tasks)):
                    feed(task[0], results)
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
        # One shared scheduler simulated every lot; the whole run's
        # wall clock is the honest per-report figure (lots overlap in
        # time).
        elapsed = time.perf_counter() - t_start
    if tel.enabled:
        for collector, budget in zip(collectors, budgets):
            report = collector.report
            _record_sim_progress(
                tel, collector._slot, elapsed / len(collectors),
                report.n_simulated, report.n_failed, report.n_failed,
                budget)
    for collector in collectors:
        collector.report.elapsed_s = elapsed
    return [collector.finish() for collector in collectors]


def generate_instances(dut, n_instances, seed, n_jobs=None,
                       on_error="resample", max_failures=None):
    """Simulate one Monte-Carlo population with per-instance seeding.

    Returns ``(values, report)``; see :func:`generate_lot_instances`
    for the parameters and the determinism contract.
    """
    [(values, report)] = generate_lot_instances(
        [(dut, n_instances, seed, max_failures)],
        n_jobs=n_jobs, on_error=on_error)
    return values, report


def generate_instance_batches(dut, n_instances, seed, batch_size,
                              n_jobs=None, on_error="resample",
                              max_failures=None, first_slot=0,
                              report=None):
    """Stream one Monte-Carlo population as consecutive value batches.

    A generator yielding ``(batch, n_specs)`` value arrays of at most
    ``batch_size`` rows whose concatenation is **bit-identical** to
    :func:`generate_instances` with the same ``(dut, n_instances,
    seed)`` -- at any ``batch_size`` and any ``n_jobs``.  Slot ``i``
    always draws from the ``i``-th child of the run's seed tree, so
    batch boundaries only decide *when* a row is handed out, never what
    it contains.  The full population is never materialized, which is
    what lets :class:`repro.floor.engine.TestFloor` push simulated
    traffic of arbitrary length through a fixed memory footprint.

    Failure accounting is run-level, exactly as in
    :func:`generate_instances`: a shared budget of ``max_failures``
    (default :func:`~repro.process.montecarlo.default_max_failures`)
    spans all batches, failures replay in slot order, and the abort
    decision is identical at any worker count.  One worker pool is
    reused across all batches, and seed-tree children are built one
    batch at a time from their spawn keys
    (:func:`instance_streams_range`), keeping memory proportional to
    ``batch_size`` rather than ``n_instances``.

    A DUT with ``measure_batch`` has each batch's slots simulated
    through it (in sub-chunks of :data:`BATCH_SLOTS`) instead of one
    ``dut.measure`` per slot -- same rows, same failure accounting, at
    any ``batch_size``.

    ``first_slot`` starts the stream at that slot of the seed tree
    instead of slot 0: the yielded rows equal rows ``[first_slot,
    first_slot + n_instances)`` of a cold run with the same seed.
    Together with a caller-provided ``report`` (which carries the
    failure accounting of the already-generated prefix), this is the
    *resume* primitive of :mod:`repro.data`: extending a dataset never
    re-simulates the rows it already holds.  ``report.elapsed_s``
    accumulates the wall-clock spent simulating (consumer time between
    batches is excluded).
    """
    if n_instances <= 0:
        raise DatasetError("n_instances must be positive")
    batch_size = int(batch_size)
    if batch_size < 1:
        raise DatasetError("batch_size must be positive")
    first_slot = int(first_slot)
    if first_slot < 0:
        raise DatasetError("first_slot must be non-negative")
    if on_error not in ("resample", "raise"):
        raise DatasetError("on_error must be 'resample' or 'raise'")
    n_specs = len(dut.specifications)
    budget = (default_max_failures(n_instances)
              if max_failures is None else int(max_failures))
    if report is None:
        report = GenerationReport(n_requested=n_instances)

    def batches():
        produced = 0
        while produced < n_instances:
            take = min(batch_size, n_instances - produced)
            start = first_slot + produced
            chunk = instance_streams_range(seed, start, start + take)
            produced += take
            yield chunk, _LotCollector(len(chunk), n_specs, on_error,
                                       budget, report=report)

    def record_batch(tel, collector, seconds, prev):
        if tel.enabled:
            _record_sim_progress(
                tel, collector._slot, seconds,
                report.n_simulated - prev[0],
                report.n_failed - prev[1], report.n_failed, budget)

    tel = get_telemetry()
    n_jobs = resolve_n_jobs(n_jobs)
    span_attrs = {"engine": _path_name([dut])}
    pool = None
    if n_jobs > 1 and n_instances > 1:
        span_attrs["n_jobs"] = n_jobs
        pool = make_pool(min(n_jobs, n_instances),
                         initializer=_init_simulation_worker,
                         initargs=((dut,), (n_specs,), on_error, (budget,)))

        def run_chunks(chunks):
            return pool.map(_simulate_chunk_task,
                            [(0, streams) for streams in chunks])
    else:
        # Plain local calls: generators interleave (a consumer may
        # alternate several streams), so the serial path must not
        # touch the process-global _WORKER configuration.  Lazy, so
        # an abort stops further simulation.
        def run_chunks(chunks):
            return (simulate_chunk(dut, streams, n_specs, on_error, budget)
                    for streams in chunks)
    try:
        for chunk, collector in batches():
            prev = (report.n_simulated, report.n_failed)
            with tel.span("sim.batch", **span_attrs) as span:
                t0 = time.perf_counter()
                size = _chunk_size(dut, len(chunk), n_jobs)
                for results in run_chunks(_chunks(chunk, size)):
                    for result in results:
                        collector.add(result)
                elapsed = time.perf_counter() - t0
                span.set(slots=collector._slot)
            report.elapsed_s += elapsed
            record_batch(tel, collector, elapsed, prev)
            yield collector.finish()[0]
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
