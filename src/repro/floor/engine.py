"""The streaming production test-floor engine.

:class:`TestFloor` is the serving layer of the reproduction: it loads
a deployed :class:`~repro.floor.artifact.TestProgramArtifact` and
dispositions an unbounded device stream through the compacted program
in vectorized batches -- first-pass classification (grid lookup table
or live guard-banded SVM pair), the paper's Section 4.2 retest
policies, Section 6 cost accounting, and online drift monitoring --
at a fixed memory footprint.

Determinism contract
--------------------

Every disposition is a pure per-device function of the artifact and
the device's measurements: batches only choose *how many* devices go
through each vectorized step.  Streaming the same devices therefore
produces identical decisions at any ``batch_size``, and simulated
traffic (:meth:`TestFloor.run_simulated`) rides the per-instance seed
tree of :mod:`repro.runtime.simulation`, so the streamed population --
and hence every decision, count and cost -- is identical at any
worker count as well.  One fine print: in lookup-table mode the
batch-size invariance is exact by construction (integer cell
indexing); in live-model mode the SVM *scores* can differ in the last
ulp across batch shapes (BLAS accumulation order), so a device lying
exactly on a decision surface could in principle flip -- the
batch-size equivalence test (``tests/floor/test_engine.py``) asserts
decision equality empirically in both modes.

Throughput
----------

The hot path is one batched
:meth:`~repro.learn.svm.SVC.decision_function` (or one vectorized
table lookup) per batch.  perfbench's ``lot-mems`` workload times
the floor end to end (``devices_per_s``), and its ``floor.dispose_us``
layer times one batch's disposition.
"""

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.core.metrics import GUARD
from repro.core.specs import BAD, GOOD
from repro.errors import ArtifactError, CompactionError
from repro.floor.artifact import TestProgramArtifact
from repro.floor.monitor import DriftMonitor
from repro.floor.report import FloorReport, LotReport
from repro.rules.binning import assign_bins, bin_histogram
from repro.rules.engine import ToleranceProfile
from repro.telemetry import get_telemetry

#: Default devices per vectorized disposition batch.
DEFAULT_BATCH_SIZE = 8192

#: Guard-band devices get the complete specification test set applied.
RETEST_FULL = "full_retest"
#: Guard-band devices are shipped without retest (cheapest, most escapes).
RETEST_ACCEPT = "accept"
#: Guard-band devices are scrapped without retest (no escapes from guard).
RETEST_REJECT = "reject"

_POLICIES = (RETEST_FULL, RETEST_ACCEPT, RETEST_REJECT)


def check_retest_policy(policy):
    """Validate a retest-policy name; returns it unchanged."""
    if policy not in _POLICIES:
        raise CompactionError(
            "retest policy must be one of {}".format(_POLICIES))
    return policy


def disposition_counts(decisions, first_pass, truth):
    """The quality count fields for a set of dispositioned devices.

    The single source of the ship/scrap/guard/yield-loss/escape
    arithmetic: :meth:`BatchDisposition.counts` uses it for whole
    batches and the service micro-batcher for per-request slices, so
    lot reports and HTTP replies can never disagree on a definition.
    (``n_retested`` is policy-flow state, not derivable from the
    per-device arrays -- callers account for it separately.)
    """
    good = truth == GOOD
    shipped = decisions == GOOD
    scrapped = decisions == BAD
    return dict(
        n_devices=int(decisions.shape[0]),
        n_shipped=int(np.count_nonzero(shipped)),
        n_scrapped=int(np.count_nonzero(scrapped)),
        n_guard=int(np.count_nonzero(first_pass == GUARD)),
        n_yield_loss=int(np.count_nonzero(good & scrapped)),
        n_defect_escape=int(np.count_nonzero(shipped & ~good)),
    )


@dataclass(frozen=True)
class BatchDisposition:
    """Outcome of dispositioning one in-memory batch.

    The per-device arrays are kept (they are computed anyway), so a
    caller coalescing several client requests into one batch -- the
    service micro-batcher -- can slice per-request decisions and counts
    back out without re-running anything.
    """

    #: Final per-device dispositions (+1 ship / -1 scrap).
    decisions: np.ndarray
    #: First-pass classifications (+1/-1/0) before the retest policy.
    first_pass: np.ndarray
    #: Ground-truth labels derived from the full measurements.
    truth: np.ndarray
    #: Devices sent through the retest flow.
    n_retested: int
    #: Population cost under the compacted program + retest policy.
    cost: float
    #: Cost of full-specification testing of the same batch.
    full_cost: float
    #: Per-device bin indices into ``bin_names`` (always populated by
    #: :meth:`TestFloor.dispose`; binary programs get the degenerate
    #: PASS/FAIL pair).
    bins: object = None
    #: Profile truth-bin assignment of the full measurements.
    truth_bins: object = None
    #: Bin names, in profile order.
    bin_names: tuple = ()
    #: Shipped devices routed through the grade (bin) retest flow.
    n_bin_retested: int = 0

    @property
    def n_devices(self):
        return int(self.decisions.shape[0])

    def counts(self):
        """The legacy :class:`LotReport` count fields for this batch.

        Deliberately excludes the bin fields: these exact keys are the
        binary-parity surface (service replies, lot reports) that must
        stay bit-identical to pre-binning builds.  Bin histograms come
        from :meth:`bin_counts`.
        """
        out = disposition_counts(self.decisions, self.first_pass,
                                 self.truth)
        out["n_retested"] = int(self.n_retested)
        return out

    def bin_counts(self):
        """``{bin_name: count}`` histogram (``None`` without bins)."""
        if self.bins is None:
            return None
        return bin_histogram(self.bins, self.bin_names)


class TestFloor:
    """Disposition device streams through a deployed test program.

    Parameters
    ----------
    artifact:
        A :class:`~repro.floor.artifact.TestProgramArtifact`, or a
        path to one saved with
        :meth:`~repro.floor.artifact.TestProgramArtifact.save`.
    retest_policy:
        ``"full_retest"`` (default), ``"accept"`` or ``"reject"`` --
        the paper Section 4.2 guard-band handling.  ``full_retest``
        applies the complete test set to guard-band devices, so their
        disposition is the ground truth and each pays the full cost on
        top of the compacted pass; ``accept``/``reject`` ship/scrap
        them outright.
    batch_size:
        Devices per vectorized disposition batch (memory/throughput
        knob; never affects any decision).
    use_lookup:
        ``None`` (default) uses the artifact's lookup table when one
        is attached; ``True`` requires it; ``False`` forces the live
        guard-banded model.
    monitor:
        ``None`` (default) builds a
        :class:`~repro.floor.monitor.DriftMonitor` from the artifact's
        baseline when present; ``False`` disables monitoring; or pass
        a pre-configured monitor.
    bin_boundary_margin:
        Grade-bank top-2 margin below which a shipped device's bin is
        taken from the full measurements (the grade-retest flow); only
        meaningful on artifacts carrying a bank.  Never affects the
        binary ship/scrap decision.
    """

    def __init__(self, artifact, retest_policy=RETEST_FULL,
                 batch_size=DEFAULT_BATCH_SIZE, use_lookup=None,
                 monitor=None, bin_boundary_margin=0.0):
        if isinstance(artifact, (str, os.PathLike)):
            artifact = TestProgramArtifact.load(artifact)
        check_retest_policy(retest_policy)
        batch_size = int(batch_size)
        if batch_size < 1:
            raise CompactionError("batch_size must be positive")
        if use_lookup is None:
            use_lookup = artifact.lookup is not None
        if use_lookup and artifact.lookup is None:
            raise ArtifactError(
                "artifact has no lookup table; build one with "
                "with_lookup() or pass use_lookup=False")
        if monitor is None:
            monitor = (DriftMonitor(artifact.baseline)
                       if artifact.baseline is not None else None)
        elif monitor is False:
            monitor = None
        self.artifact = artifact
        self.retest_policy = retest_policy
        self.batch_size = batch_size
        self.monitor = monitor
        self._use_lookup = bool(use_lookup)
        self._specs = artifact.specifications
        self._kept = artifact.kept
        self._kept_idx = np.array(
            [self._specs.index(name) for name in self._kept])
        # Binning layer: every disposition also carries a bin.  Binary
        # artifacts (no profile) get the degenerate PASS/FAIL profile,
        # which relabels the decisions exactly -- the parity guarantee.
        profile = getattr(artifact, "profile", None)
        if profile is None:
            profile = ToleranceProfile.binary_default(self._specs)
        self._bound = profile.bind(self._specs)
        self._bank = getattr(artifact, "bank", None)
        self.bin_boundary_margin = float(bin_boundary_margin)
        #: Bin names, in profile order (default bin last).
        self.bin_names = self._bound.bins
        self._kept_specs = self._specs.subset(self._kept)
        # Per-device (compacted, full) costs are constants of the
        # program; ``None`` without a cost model.
        cost_model = artifact.cost_model
        self._unit_costs = (
            None if cost_model is None
            else (cost_model.cost(self._kept), cost_model.full_cost()))

    @classmethod
    def from_file(cls, path, **kwargs):
        """Load an artifact file and build a floor over it."""
        return cls(TestProgramArtifact.load(path), **kwargs)

    # -- the batched hot path ---------------------------------------------
    def _first_pass(self, kept_values):
        """Vectorized +1/-1/0 classification of one batch."""
        if self._use_lookup:
            return np.asarray(self.artifact.lookup.classify(kept_values))
        return self.artifact.model.predict_measurements(kept_values)

    def dispose(self, batch):
        """Disposition one in-memory batch of full-specification rows.

        This is the one disposition kernel everything else rides --
        :meth:`run_stream` loops it over rebatched traffic, the
        service micro-batcher (:mod:`repro.service.batcher`) feeds it
        coalesced client requests, and offline evaluation passes it a
        whole population for per-device arrays.  A disposition is a pure per-device
        function of the artifact and the device's measurements, so
        coalescing or splitting batches never changes a decision.

        Unlike :meth:`run_stream` this does **not** reset the drift
        monitor: the monitor window keeps rolling across calls, which
        is exactly what a long-lived service wants.

        Returns a :class:`BatchDisposition`.
        """
        # Telemetry observes the batch but never steers it: timings
        # and counts only, taken outside the decision arithmetic.
        tel = get_telemetry()
        t0 = time.perf_counter() if tel.enabled else 0.0
        batch = np.asarray(batch, dtype=float)
        if batch.ndim == 1:
            batch = batch[None, :]
        if batch.ndim != 2:
            raise CompactionError(
                "batch must be a 1-D device row or a 2-D chunk; got "
                "ndim={}".format(batch.ndim))
        if batch.shape[1] != len(self._specs):
            raise CompactionError(
                "stream rows have {} measurements; the program "
                "was trained on {} specifications".format(
                    batch.shape[1], len(self._specs)))
        # A NaN/inf row would poison the drift monitor's window sums
        # (and blind its charts until the row rolls out), so it is
        # refused before anything is recorded.
        if not np.isfinite(batch).all():
            raise CompactionError(
                "stream rows must hold finite measurements")
        kept_values = batch[:, self._kept_idx]
        first = self._first_pass(kept_values)
        truth = self._specs.labels(batch)
        # The retest policy resolves the guard-band devices: the full
        # test set (ground truth) or an outright ship/scrap.
        guard = first == GUARD
        decisions = first.copy()
        n_retested = 0
        if self.retest_policy == RETEST_FULL:
            decisions[guard] = truth[guard]
            n_retested = int(np.count_nonzero(guard))
        else:
            decisions[guard] = (GOOD if self.retest_policy == RETEST_ACCEPT
                                else BAD)
        # Every device pays the compacted set; each retested one also
        # pays the complete set.  ``full_cost`` is the paper's
        # full-specification baseline for the same batch.
        cost = full_cost = 0.0
        if self._unit_costs is not None:
            per_device, full_per_device = self._unit_costs
            cost = (per_device * batch.shape[0]
                    + full_per_device * n_retested)
            full_cost = full_per_device * batch.shape[0]
        truth_bins = self._bound.assign(batch)
        kept_norm = (self._kept_specs.normalize(kept_values)
                     if self._bank is not None else None)
        bins, n_bin_retested = assign_bins(
            self._bound, decisions, truth_bins, kept_norm=kept_norm,
            bank=self._bank,
            boundary_margin=self.bin_boundary_margin)
        # Record only: the charts are evaluated when something asks
        # (a /metrics scrape, the end-of-lot report), not per batch.
        if self.monitor is not None:
            self.monitor.observe(kept_values, first, bins=bins,
                                 bin_names=self.bin_names)
        outcome = BatchDisposition(
            decisions=decisions, first_pass=first, truth=truth,
            n_retested=n_retested, cost=cost, full_cost=full_cost,
            bins=bins, truth_bins=truth_bins,
            bin_names=self.bin_names,
            n_bin_retested=n_bin_retested)
        if tel.enabled:
            self._record_disposition(tel, outcome,
                                     time.perf_counter() - t0)
        return outcome

    def _record_disposition(self, tel, outcome, seconds):
        """Fold one batch's outcome into the telemetry registry."""
        tel.observe("repro_floor_batch_seconds", seconds)
        counts = outcome.counts()
        tel.counter("repro_floor_batches_total", 1)
        tel.counter("repro_floor_devices_total", counts["n_devices"])
        tel.counter("repro_floor_shipped_total", counts["n_shipped"])
        tel.counter("repro_floor_scrapped_total", counts["n_scrapped"])
        tel.counter("repro_floor_guard_total", counts["n_guard"])
        tel.counter("repro_floor_retests_total", counts["n_retested"])
        tel.counter("repro_floor_bin_retests_total",
                    outcome.n_bin_retested)
        bin_counts = outcome.bin_counts()
        if bin_counts:
            for name, count in bin_counts.items():
                if count:
                    tel.counter("repro_floor_bin_total", count,
                                bin=name)

    @staticmethod
    def _rebatch(stream, batch_size):
        """Regroup incoming rows/chunks into exact-size batches.

        The floor controls its own batch geometry, so callers may feed
        single devices, arbitrary chunks or whole arrays -- vectorized
        throughput (and the drift monitor's window geometry) stays
        independent of how the transport happened to frame the stream.
        """
        pending = []
        n_pending = 0
        for item in stream:
            rows = np.asarray(item, dtype=float)
            if rows.ndim == 1:
                rows = rows[None, :]
            if rows.ndim != 2:
                raise CompactionError(
                    "stream items must be 1-D device rows or 2-D "
                    "chunks; got ndim={}".format(rows.ndim))
            start = 0
            while rows.shape[0] - start >= batch_size - n_pending:
                take = batch_size - n_pending
                pending.append(rows[start:start + take])
                start += take
                yield (pending[0] if len(pending) == 1
                       else np.vstack(pending))
                pending, n_pending = [], 0
            if start < rows.shape[0]:
                pending.append(rows[start:])
                n_pending += rows.shape[0] - start
        if pending:
            yield pending[0] if len(pending) == 1 else np.vstack(pending)

    def run_stream(self, stream, batch_size=None, lot="stream",
                   keep_decisions=False):
        """Disposition a stream of full-specification measurement rows.

        Parameters
        ----------
        stream:
            Iterable of 1-D device rows or 2-D row chunks, in
            specification order (the simulated-traffic view: ground
            truth derives from the full measurements, so yield loss
            and escape in the report are exact).
        batch_size:
            Override the floor's configured batch size for this run.
        lot:
            Label for the returned :class:`LotReport`.
        keep_decisions:
            When True the report carries the concatenated final
            dispositions (used by equivalence tests; costs memory on
            very long streams).

        Returns
        -------
        LotReport
        """
        tel = get_telemetry()
        with tel.span("floor.lot", lot=str(lot)) as span:
            report = self._run_stream(stream, batch_size, lot,
                                      keep_decisions)
            span.set(devices=report.n_devices,
                     alarms=len(report.alarms))
            if tel.enabled:
                if report.alarms:
                    tel.counter("repro_floor_alarms_total",
                                len(report.alarms))
                if self.monitor is not None:
                    self.monitor.export_gauges(tel)
        return report

    def _run_stream(self, stream, batch_size, lot, keep_decisions):
        batch_size = (self.batch_size if batch_size is None
                      else int(batch_size))
        if batch_size < 1:
            raise CompactionError("batch_size must be positive")
        if self.monitor is not None:
            self.monitor.reset()
        counts = dict(n_devices=0, n_shipped=0, n_scrapped=0,
                      n_retested=0, n_guard=0, n_yield_loss=0,
                      n_defect_escape=0)
        total_cost = 0.0
        full_cost = 0.0
        n_bin_retested = 0
        bin_totals = {name: 0 for name in self.bin_names}
        decision_parts = [] if keep_decisions else None
        bin_parts = [] if keep_decisions else None

        # Wall time covers only disposition work: the stream iterator
        # (traffic generation, simulation, transport) runs outside the
        # timed region, so throughput figures measure the floor, not
        # the test harness feeding it.
        wall = 0.0
        for batch in self._rebatch(stream, batch_size):
            t0 = time.perf_counter()
            outcome = self.dispose(batch)
            wall += time.perf_counter() - t0
            for key, value in outcome.counts().items():
                counts[key] += value
            total_cost += outcome.cost
            full_cost += outcome.full_cost
            n_bin_retested += outcome.n_bin_retested
            for name, value in outcome.bin_counts().items():
                bin_totals[name] += value
            if keep_decisions:
                decision_parts.append(outcome.decisions)
                bin_parts.append(outcome.bins)

        # The report carries the charts' *lot-end* state: the rolling
        # window is exactly the most recent traffic, so a transient
        # excursion that has since rolled out is not re-reported as an
        # active alarm.
        alarms = (self.monitor.alarms()
                  if self.monitor is not None else ())
        decisions_out = None
        bins_out = None
        if keep_decisions:
            decisions_out = (np.concatenate(decision_parts)
                             if decision_parts
                             else np.empty(0, dtype=int))
            bins_out = (np.concatenate(bin_parts) if bin_parts
                        else np.empty(0, dtype=int))
        return LotReport(
            lot=lot,
            total_cost=total_cost,
            full_cost=full_cost,
            wall_seconds=wall,
            alarms=alarms,
            decisions=decisions_out,
            n_bin_retested=n_bin_retested,
            bin_counts=dict(bin_totals),
            bin_names=self.bin_names,
            bins=bins_out,
            **counts)

    def run_dataset(self, dataset, lot="dataset", batch_size=None,
                    keep_decisions=False):
        """Disposition an in-memory :class:`SpecDataset` population."""
        self.artifact.validate_specifications(dataset.specifications)
        return self.run_stream([dataset.values], batch_size=batch_size,
                               lot=lot, keep_decisions=keep_decisions)

    def run_sharded(self, dataset, n_devices=None, lot=None,
                    batch_size=None, keep_decisions=False):
        """Disposition a shard-store population, streaming shard by shard.

        ``dataset`` is a :class:`~repro.data.store.ShardedSpecDataset`;
        its memory-mapped shards are fed straight into
        :meth:`run_stream` (the rebatcher regroups them to the floor's
        batch geometry), so the population is never materialized.
        ``n_devices`` takes only the first rows of the store (it must
        hold at least that many).  Decisions are identical to
        :meth:`run_simulated` with the store's ``(dut, seed)`` -- the
        shards *are* that simulation, row for row.
        """
        self.artifact.validate_specifications(dataset.specifications)
        n_devices = (dataset.n_rows if n_devices is None
                     else int(n_devices))
        if not 0 < n_devices <= dataset.n_rows:
            raise CompactionError(
                "store {!r} holds {} rows; cannot stream {}".format(
                    dataset.root, dataset.n_rows, n_devices))

        def stream():
            remaining = n_devices
            for batch in dataset.iter_batches():
                if remaining <= 0:
                    return
                yield batch[:remaining] if remaining < len(batch) else batch
                remaining -= min(remaining, len(batch))

        return self.run_stream(
            stream(), batch_size=batch_size,
            lot=("dataset(seed={})".format(dataset.seed)
                 if lot is None else lot),
            keep_decisions=keep_decisions)

    # -- simulated traffic -------------------------------------------------
    def run_simulated(self, dut, n_devices, seed, n_jobs=None,
                      batch_size=None, lot=None, max_failures=None,
                      keep_decisions=False, dataset=None):
        """Stream a simulated Monte-Carlo population through the floor.

        Devices come from the deterministic per-instance seed tree
        (:func:`repro.runtime.simulation.generate_instance_batches`):
        the population -- and therefore every decision and count in
        the report -- is identical at any ``n_jobs`` and any
        ``batch_size``, and is never materialized in full.  A DUT with
        ``measure_batch`` is simulated through it (the stacked MNA
        kernel for the real benches).

        ``dataset`` optionally replays the population from a
        pre-generated :class:`~repro.data.store.ShardedSpecDataset`
        instead of simulating: the store must match the requested
        ``seed`` and hold at least ``n_devices`` rows (a prefix of a
        larger store is the smaller run, by the seed-tree construction,
        so the decisions are identical either way).
        """
        from repro.runtime.simulation import generate_instance_batches

        self.artifact.validate_specifications(dut.specifications)
        if dataset is not None:
            if dataset.seed != int(seed):
                raise CompactionError(
                    "store {!r} was generated with seed {}, not {}; "
                    "replaying it would stream a different "
                    "population".format(dataset.root, dataset.seed,
                                        seed))
            return self.run_sharded(
                dataset, n_devices=n_devices, batch_size=batch_size,
                lot=("seed={}".format(seed) if lot is None else lot),
                keep_decisions=keep_decisions)
        batch_size = (self.batch_size if batch_size is None
                      else int(batch_size))
        stream = generate_instance_batches(
            dut, n_devices, seed, batch_size=batch_size,
            n_jobs=n_jobs, max_failures=max_failures)
        return self.run_stream(
            stream, batch_size=batch_size,
            lot=("seed={}".format(seed) if lot is None else lot),
            keep_decisions=keep_decisions)

    def run_lots(self, dut, lots, n_jobs=None, batch_size=None,
                 keep_decisions=False, dataset_root=None):
        """Run a lot schedule; returns a :class:`FloorReport`.

        ``lots`` is a sequence of ``(n_devices, seed)`` pairs, one per
        production lot.  Lots stream in order; within a lot the
        simulation fans out across ``n_jobs`` workers.

        ``dataset_root`` sources every lot from a manifested shard
        store under that directory (:func:`repro.data.ensure_dataset`
        keyed by ``(device, seed)``): already-generated rows are
        memory-mapped and replayed, missing rows are generated once and
        persisted -- repeated schedules never re-simulate, and the
        reports are identical to direct simulation.
        """
        if dataset_root is not None:
            from repro.data import ensure_dataset
        reports = []
        for index, (n_devices, seed) in enumerate(lots):
            dataset = None
            if dataset_root is not None:
                dataset = ensure_dataset(dataset_root, dut, n_devices,
                                         seed, n_jobs=n_jobs)
            reports.append(self.run_simulated(
                dut, n_devices, seed, n_jobs=n_jobs,
                batch_size=batch_size,
                lot="lot{}(seed={})".format(index, seed),
                keep_decisions=keep_decisions, dataset=dataset))
        return FloorReport(tuple(reports))

    def __repr__(self):
        return ("TestFloor({} kept, policy={!r}, batch_size={}, "
                "{}, monitor={})".format(
                    len(self._kept), self.retest_policy,
                    self.batch_size,
                    "lookup" if self._use_lookup else "live model",
                    "on" if self.monitor is not None else "off"))
