"""Determinism contract of the parallel Monte-Carlo generation engine.

The engine's promise: the generated dataset is a pure function of
``(dut, seed, n_instances)`` -- independent of worker count, execution
order and slot path, with failures and resamples confined to their own
instance slot.  A DUT with ``measure_batch`` takes the batched path;
:class:`tests.synthetic.ScalarOnly` hides it so the same slot loop
maps the scalar ``measure`` instead, the oracle every parity test
compares against.
"""

import numpy as np
import pytest

from repro.errors import ConvergenceError, DatasetError
from repro.mems import AccelerometerBench
from repro.opamp import OpAmpBench
from repro.process.montecarlo import generate_dataset
from repro.runtime.simulation import BATCH_SLOTS, instance_streams

from tests.synthetic import SLOT_PATHS, ScalarOnly, SyntheticDut


class PureFlakyDut(SyntheticDut):
    """Fails deterministically as a pure function of the sampled params.

    Unlike a call-counting flaky DUT, the failure decision depends only
    on the instance's own draws, so it is compatible with parallel
    generation (workers hold pickled DUT copies).
    """

    FAIL_BAND = (0.0, 0.45)

    def fails_on(self, params):
        low, high = self.FAIL_BAND
        return low < float(params[0]) < high

    def measure(self, params):
        if self.fails_on(params):
            raise ConvergenceError("unstable bias point")
        return super().measure(params)


class AlwaysFailDut(SyntheticDut):
    def measure(self, params):
        raise ConvergenceError("dead device")


class CountingAlwaysFailDut(SyntheticDut):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.calls = 0

    def measure(self, params):
        self.calls += 1
        raise ConvergenceError("dead device")


class _InjectedFailures:
    """Pure, param-dependent failure injection for a real bench.

    Module-level (not test-local) so worker processes can unpickle the
    benches under any multiprocessing start method.  ``measure_batch``
    injects the same failures as ``measure``, so both slot paths
    resample identically.
    """

    def measure(self, params):
        if self._fails_on(params):
            raise ConvergenceError("injected failure")
        return super().measure(params)

    def measure_batch(self, params_list):
        rows = super().measure_batch(params_list)
        return [ConvergenceError("injected failure")
                if self._fails_on(params) else row
                for params, row in zip(params_list, rows)]


class FlakyOpAmpBench(_InjectedFailures, OpAmpBench):
    def _fails_on(self, params):
        return params.w1 > self.nominal.w1


class FlakyAccelerometerBench(_InjectedFailures, AccelerometerBench):
    def _fails_on(self, geometry):
        return geometry.beam_width > self.nominal.beam_width


class TestPerInstanceDeterminism:
    def test_serial_equals_parallel(self):
        dut = SyntheticDut()
        serial = generate_dataset(dut, 40, seed=42)
        for n_jobs in (2, 3):
            par = generate_dataset(dut, 40, seed=42, n_jobs=n_jobs)
            assert np.array_equal(serial.values, par.values)
            assert np.array_equal(serial.labels, par.labels)

    def test_serial_equals_parallel_with_failures(self):
        dut = PureFlakyDut()
        serial, rs = generate_dataset(dut, 60, seed=5, max_failures=100,
                                      return_report=True)
        par, rp = generate_dataset(dut, 60, seed=5, max_failures=100,
                                   n_jobs=2, return_report=True)
        assert rs.n_failed > 0  # the injection actually fired
        assert np.array_equal(serial.values, par.values)
        assert (rs.n_failed, rs.n_simulated) == (rp.n_failed, rp.n_simulated)
        assert rs.failures == rp.failures

    def test_failures_stay_inside_their_slot(self):
        """A failing slot resamples itself; neighbors are untouched."""
        flaky = PureFlakyDut()
        clean = SyntheticDut()
        with_failures = generate_dataset(flaky, 60, seed=5,
                                         max_failures=100)
        without = generate_dataset(clean, 60, seed=5)
        # A slot's first draw decides whether it ever failed; recompute
        # it per slot from the seed tree.
        failed_first = []
        for stream in instance_streams(5, 60):
            rng = np.random.default_rng(stream)
            failed_first.append(flaky.fails_on(flaky.sample_parameters(rng)))
        assert any(failed_first)
        for slot, failed in enumerate(failed_first):
            same = np.array_equal(with_failures.values[slot],
                                  without.values[slot])
            assert same != failed  # resampled iff the first draw failed

    def test_prefix_property(self):
        """The first k slots of an n-instance run equal a k-instance run."""
        dut = SyntheticDut()
        big = generate_dataset(dut, 32, seed=9)
        small = generate_dataset(dut, 8, seed=9)
        assert np.array_equal(small.values, big.values[:8])

    def test_max_failures_aborts_at_exactly_k(self):
        for n_jobs in (None, 2):
            with pytest.raises(DatasetError,
                               match="3 simulation failures"):
                generate_dataset(ScalarOnly(AlwaysFailDut()), 10, seed=0,
                                 max_failures=3, n_jobs=n_jobs)

    def test_abort_stops_simulating(self):
        """The failure budget bounds *work*, not just the outcome: a
        serial run of a dead measure-only DUT (one slot per task)
        simulates exactly max_failures times however many instances
        were requested."""
        dut = CountingAlwaysFailDut()
        with pytest.raises(DatasetError, match="aborted"):
            generate_dataset(ScalarOnly(dut), 1000, seed=0,
                             max_failures=5)
        assert dut.calls == 5

    def test_batched_abort_stops_within_one_chunk(self):
        """A DUT with measure_batch takes the batched path, where the
        abort lands at chunk granularity: each slot of the first chunk
        retries up to the budget, so a dead DUT costs more than one
        slot per task but at most BATCH_SLOTS x max_failures calls."""
        dut = CountingAlwaysFailDut()
        with pytest.raises(DatasetError, match="aborted"):
            generate_dataset(dut, 1000, seed=0, max_failures=5)
        assert 5 < dut.calls <= BATCH_SLOTS * 5

    def test_raise_mode_propagates_from_workers(self):
        with pytest.raises(ConvergenceError, match="dead device"):
            generate_dataset(AlwaysFailDut(), 10, seed=0,
                             on_error="raise", n_jobs=2)


class MiscountingBatchDut(SyntheticDut):
    """Returns one result too few from measure_batch (a contract bug)."""

    def measure_batch(self, params_list):
        return super().measure_batch(params_list)[:-1]


class NonFiniteDut(SyntheticDut):
    """Returns an inf row as a pure function of the sampled params."""

    def measure(self, params):
        values = super().measure(params)
        if 0.0 < float(params[0]) < 0.45:
            values = values.copy()
            values[0] = np.inf
        return values


class TestBatchedEngine:
    """The batched path: same dataset, reports and aborts as scalar."""

    def test_batched_equals_scalar(self):
        dut = SyntheticDut()
        scalar = generate_dataset(ScalarOnly(dut), 40, seed=42)
        batched = generate_dataset(dut, 40, seed=42)
        assert np.array_equal(scalar.values, batched.values)
        assert np.array_equal(scalar.labels, batched.labels)

    def test_batched_parallel_equals_scalar_serial(self):
        dut = SyntheticDut()
        scalar = generate_dataset(ScalarOnly(dut), 30, seed=8)
        batched = generate_dataset(dut, 30, seed=8, n_jobs=2)
        assert np.array_equal(scalar.values, batched.values)

    def test_resampled_slots_identical_with_failures(self):
        """Failing slots redraw from their own streams in retry waves;
        dataset and report match the scalar path exactly."""
        dut = PureFlakyDut()
        scalar, rs = generate_dataset(ScalarOnly(dut), 60, seed=5,
                                      max_failures=100,
                                      return_report=True)
        batched, rb = generate_dataset(dut, 60, seed=5,
                                       max_failures=100,
                                       return_report=True)
        assert rs.n_failed > 0  # the injection actually fired
        assert np.array_equal(scalar.values, batched.values)
        assert (rs.n_failed, rs.n_simulated) == (rb.n_failed,
                                                 rb.n_simulated)
        assert rs.failures == rb.failures

    def test_nonfinite_rows_counted_identically(self):
        dut = NonFiniteDut()
        scalar, rs = generate_dataset(ScalarOnly(dut), 50, seed=3,
                                      max_failures=100,
                                      return_report=True)
        batched, rb = generate_dataset(dut, 50, seed=3,
                                       max_failures=100,
                                       return_report=True)
        assert rs.n_failed > 0
        assert "non-finite measurement" in rs.failures
        assert np.array_equal(scalar.values, batched.values)
        assert rs.failures == rb.failures

    def test_max_failures_aborts_at_exactly_k(self):
        """The regression pin for the batched path: abort fires at
        exactly k failures with the same message as the scalar path."""
        for n_jobs in (None, 2):
            with pytest.raises(DatasetError,
                               match="3 simulation failures"):
                generate_dataset(AlwaysFailDut(), 10, seed=0,
                                 max_failures=3, n_jobs=n_jobs)

    def test_abort_report_matches_scalar(self):
        scalar_dut = ScalarOnly(CountingAlwaysFailDut())
        batched_dut = CountingAlwaysFailDut()
        with pytest.raises(DatasetError) as scalar_exc:
            generate_dataset(scalar_dut, 20, seed=0, max_failures=5)
        with pytest.raises(DatasetError) as batched_exc:
            generate_dataset(batched_dut, 20, seed=0, max_failures=5)
        assert str(scalar_exc.value) == str(batched_exc.value)

    def test_raise_mode_propagates_first_error(self):
        with pytest.raises(ConvergenceError, match="dead device"):
            generate_dataset(AlwaysFailDut(), 10, seed=0,
                             on_error="raise")

    def test_prefix_property_holds(self):
        dut = SyntheticDut()
        big = generate_dataset(dut, 32, seed=9)
        small = generate_dataset(dut, 8, seed=9)
        assert np.array_equal(small.values, big.values[:8])

    def test_streaming_batches_batched_equals_scalar(self):
        from repro.runtime.simulation import generate_instance_batches

        dut = PureFlakyDut()
        scalar = np.vstack(list(generate_instance_batches(
            ScalarOnly(dut), 40, seed=13, batch_size=9, max_failures=200)))
        batched = np.vstack(list(generate_instance_batches(
            dut, 40, seed=13, batch_size=9, max_failures=200)))
        assert np.array_equal(scalar, batched)

    def test_chunk_size_composes_with_workers(self):
        """Small populations still split across workers: the chunk
        size shrinks toward n/n_jobs so the batched path composes
        with process fan-out instead of serializing."""
        from repro.runtime.simulation import _batched_chunk_size

        assert _batched_chunk_size(1000, 1) == BATCH_SLOTS
        assert _batched_chunk_size(100, 2) == 50
        assert _batched_chunk_size(100, 8) == 13
        assert _batched_chunk_size(3, 8) == 1
        assert _batched_chunk_size(10000, 2) == BATCH_SLOTS

    def test_wave_chunking_never_changes_values(self, monkeypatch):
        """Tiny BATCH_SLOTS (many waves per lot) == one big wave."""
        import repro.runtime.simulation as sim

        dut = PureFlakyDut()
        reference = generate_dataset(dut, 30, seed=5, max_failures=100)
        monkeypatch.setattr(sim, "BATCH_SLOTS", 4)
        chunked = generate_dataset(dut, 30, seed=5, max_failures=100)
        assert np.array_equal(reference.values, chunked.values)

    def test_wrapped_dut_without_measure_batch_takes_scalar_path(self):
        """A DefectInjector advertises measure_batch exactly when its
        wrapped DUT can batch; otherwise generation runs per slot and
        yields the same population as the batch-capable wrapper."""
        from repro.process.defects import DefectInjector

        scalar = DefectInjector(ScalarOnly(SyntheticDut()),
                                defect_rate=0.1)
        batched = DefectInjector(SyntheticDut(), defect_rate=0.1)
        assert getattr(scalar, "measure_batch", None) is None
        assert batched.measure_batch is not None
        assert np.array_equal(
            generate_dataset(scalar, 10, seed=0).values,
            generate_dataset(batched, 10, seed=0).values)

    def test_miscounting_measure_batch_rejected(self):
        with pytest.raises(DatasetError, match="results for"):
            generate_dataset(MiscountingBatchDut(), 10, seed=0)


class TestBatchedEngineMems:
    """Circuit-level batched parity on the (fast) real MEMS bench."""

    def test_mems_batched_equals_scalar(self):
        bench = AccelerometerBench()
        scalar = generate_dataset(ScalarOnly(bench), 12, seed=23)
        batched = bench.generate_dataset(12, seed=23)
        assert np.array_equal(scalar.values, batched.values)
        assert np.array_equal(scalar.labels, batched.labels)

    def test_defect_injected_population_identical(self):
        """DefectInjector wraps the bench: defects are drawn at
        sampling time, so both paths measure identical defective
        populations -- and produce identical pass/fail labels."""
        from repro.process.defects import DefectInjector

        scalar_dut = DefectInjector(ScalarOnly(AccelerometerBench()),
                                    defect_rate=0.3)
        batched_dut = DefectInjector(AccelerometerBench(),
                                     defect_rate=0.3)
        scalar = generate_dataset(scalar_dut, 15, seed=41,
                                  max_failures=100)
        batched = generate_dataset(batched_dut, 15, seed=41,
                                   max_failures=100)
        assert scalar_dut.n_injected > 0
        assert np.array_equal(scalar.values, batched.values)
        assert np.array_equal(scalar.labels, batched.labels)

    def test_mems_batched_with_forced_resamples(self):
        scalar, rs = generate_dataset(
            ScalarOnly(FlakyAccelerometerBench()), 10, seed=29,
            max_failures=100, return_report=True)
        batched, rb = FlakyAccelerometerBench().generate_dataset(
            10, seed=29, max_failures=100, return_report=True)
        assert rs.n_failed > 0
        assert np.array_equal(scalar.values, batched.values)
        assert rs.failures == rb.failures


@pytest.mark.slow
class TestRealBenches:
    """Serial/parallel byte-equality on the real circuit-level DUTs."""

    def test_opamp_serial_equals_parallel(self):
        from repro.opamp import OpAmpBench

        bench = OpAmpBench()
        serial = bench.generate_dataset(4, seed=17)
        parallel = bench.generate_dataset(4, seed=17, n_jobs=2)
        assert np.array_equal(serial.values, parallel.values)

    def test_mems_serial_equals_parallel(self):
        bench = AccelerometerBench()
        serial = bench.generate_dataset(8, seed=23)
        parallel = bench.generate_dataset(8, seed=23, n_jobs=2)
        assert np.array_equal(serial.values, parallel.values)

    def test_mems_parallel_with_failures(self):
        bench = FlakyAccelerometerBench()
        serial, rs = bench.generate_dataset(8, seed=29, max_failures=100,
                                            return_report=True)
        parallel, rp = bench.generate_dataset(8, seed=29,
                                              max_failures=100,
                                              n_jobs=2,
                                              return_report=True)
        assert rs.n_failed > 0
        assert np.array_equal(serial.values, parallel.values)
        assert rs.n_failed == rp.n_failed

    def test_opamp_parallel_with_failures(self):
        """Real simulations through a pure failure-injecting wrapper."""
        bench = FlakyOpAmpBench()
        serial, rs = bench.generate_dataset(3, seed=31, max_failures=50,
                                            return_report=True)
        parallel, rp = bench.generate_dataset(3, seed=31, max_failures=50,
                                              n_jobs=2, return_report=True)
        assert rs.n_failed > 0
        assert np.array_equal(serial.values, parallel.values)
        assert rs.n_failed == rp.n_failed

    def test_opamp_batched_equals_scalar(self):
        """The acceptance-gate contract at the dataset level: the
        batched MNA kernel reproduces the scalar op-amp population
        bit for bit."""
        bench = OpAmpBench()
        scalar = generate_dataset(ScalarOnly(bench), 4, seed=17)
        batched = bench.generate_dataset(4, seed=17)
        assert np.array_equal(scalar.values, batched.values)
        assert np.array_equal(scalar.labels, batched.labels)

    def test_opamp_batched_with_forced_resamples(self):
        """Injected failures force slot resamples; the batched path
        replays them from the same per-slot streams."""
        scalar, rs = generate_dataset(
            ScalarOnly(FlakyOpAmpBench()), 3, seed=31, max_failures=50,
            return_report=True)
        batched, rb = FlakyOpAmpBench().generate_dataset(
            3, seed=31, max_failures=50, return_report=True)
        assert rs.n_failed > 0
        assert np.array_equal(scalar.values, batched.values)
        assert (rs.n_failed, rs.n_simulated) == (rb.n_failed,
                                                 rb.n_simulated)
        assert rs.failures == rb.failures


class TestInstanceBatchStreaming:
    """generate_instance_batches: the floor's simulated-traffic feed."""

    def test_concatenation_equals_one_shot(self):
        from repro.runtime.simulation import (
            generate_instance_batches, generate_instances,
        )

        dut = SyntheticDut()
        reference, _ = generate_instances(dut, 50, seed=31)
        for batch_size in (1, 7, 50, 64):
            batches = list(generate_instance_batches(
                dut, 50, seed=31, batch_size=batch_size))
            assert np.array_equal(np.vstack(batches), reference)
            assert all(len(b) <= batch_size for b in batches)

    def test_parallel_equals_serial(self):
        from repro.runtime.simulation import generate_instance_batches

        dut = PureFlakyDut()
        serial = np.vstack(list(generate_instance_batches(
            dut, 40, seed=13, batch_size=9, max_failures=200)))
        parallel = np.vstack(list(generate_instance_batches(
            dut, 40, seed=13, batch_size=9, max_failures=200,
            n_jobs=2)))
        assert np.array_equal(serial, parallel)

    def test_failure_budget_spans_batches(self):
        """The budget is run-level: failures in early batches count
        against later ones, exactly as in the one-shot path."""
        from repro.runtime.simulation import generate_instance_batches

        dut = CountingAlwaysFailDut()
        stream = generate_instance_batches(ScalarOnly(dut), 100, seed=0,
                                           batch_size=10,
                                           max_failures=5)
        with pytest.raises(DatasetError, match="5 simulation failures"):
            list(stream)
        assert dut.calls == 5

    def test_raise_mode(self):
        from repro.runtime.simulation import generate_instance_batches

        stream = generate_instance_batches(AlwaysFailDut(), 10, seed=0,
                                           batch_size=4,
                                           on_error="raise")
        with pytest.raises(ConvergenceError, match="dead device"):
            list(stream)

    def test_invalid_arguments_rejected(self):
        from repro.runtime.simulation import generate_instance_batches

        with pytest.raises(DatasetError, match="batch_size"):
            list(generate_instance_batches(SyntheticDut(), 10, seed=0,
                                           batch_size=0))
        with pytest.raises(DatasetError, match="positive"):
            list(generate_instance_batches(SyntheticDut(), 0, seed=0,
                                           batch_size=4))

    def test_interleaved_serial_streams_stay_independent(self):
        """Two lazily-consumed serial streams must not clobber each
        other's configuration between batches."""
        from repro.runtime.simulation import (
            generate_instance_batches, generate_instances,
        )

        dut_a = SyntheticDut(n_specs=6)
        dut_b = SyntheticDut(n_specs=4, n_latent=2, seed=7)
        stream_a = generate_instance_batches(dut_a, 24, seed=1,
                                             batch_size=8)
        stream_b = generate_instance_batches(dut_b, 24, seed=2,
                                             batch_size=8)
        got_a, got_b = [], []
        for batch_a, batch_b in zip(stream_a, stream_b):
            got_a.append(batch_a)
            got_b.append(batch_b)
        ref_a, _ = generate_instances(dut_a, 24, seed=1)
        ref_b, _ = generate_instances(dut_b, 24, seed=2)
        assert np.array_equal(np.vstack(got_a), ref_a)
        assert np.array_equal(np.vstack(got_b), ref_b)


class WrongShapeDut(SyntheticDut):
    """Measures one value too few (a contract bug)."""

    def measure(self, params):
        return super().measure(params)[:-1]


def _streamed(dut, n, seed, **kw):
    from repro.runtime.simulation import generate_instance_batches

    return list(generate_instance_batches(dut, n, seed, batch_size=3,
                                          **kw))


#: The two ways into the scheduler, by name.
ENTRY_POINTS = {"generate_dataset": generate_dataset,
                "generate_instance_batches": _streamed}


class TestArgumentChecks:
    """The scheduler checks seeds and budgets once, with typed errors."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("seed", [None, -1, 1.5, True, "3"], ids=repr)
    def test_bad_seed_rejected(self, entry, seed):
        with pytest.raises(DatasetError,
                           match="seed must be a non-negative integer"):
            ENTRY_POINTS[entry](SyntheticDut(), 6, seed)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("max_failures", [0, -2])
    def test_budget_below_one_rejected(self, entry, max_failures):
        dut = CountingAlwaysFailDut()
        with pytest.raises(DatasetError,
                           match="max_failures must be at least 1"):
            ENTRY_POINTS[entry](ScalarOnly(dut), 6, 0,
                                max_failures=max_failures)
        assert dut.calls == 0

    def test_checked_at_the_call_not_the_first_batch(self):
        from repro.runtime.simulation import generate_instance_batches

        with pytest.raises(DatasetError, match="seed"):
            generate_instance_batches(SyntheticDut(), 6, None,
                                      batch_size=3)

    def test_numpy_integer_seed_is_the_int_seed(self):
        dut = SyntheticDut()
        assert np.array_equal(generate_dataset(dut, 6, 4).values,
                              generate_dataset(dut, 6, np.int64(4)).values)

    @pytest.mark.parametrize("path, method", [("batched", "measure_batch"),
                                              ("scalar", "measure")])
    def test_shape_error_names_the_dut_method(self, path, method):
        dut = SLOT_PATHS[path](WrongShapeDut())
        with pytest.raises(DatasetError,
                           match=r"DUT {}\(\) returned shape".format(method)):
            generate_dataset(dut, 4, seed=0)


class TestSeedTreeRanges:
    """instance_streams_range / first_slot: the resume primitives."""

    def test_range_equals_slice_of_full_spawn(self):
        from repro.runtime.simulation import instance_streams_range

        full = instance_streams(7, 40)
        ranged = instance_streams_range(7, 12, 25)
        for got, want in zip(ranged, full[12:25]):
            assert got.spawn_key == want.spawn_key
            assert got.entropy == want.entropy
            assert np.array_equal(got.generate_state(4),
                                  want.generate_state(4))

    def test_range_is_independent_of_total_size(self):
        from repro.runtime.simulation import instance_streams_range

        a = instance_streams_range(3, 5, 9)
        b = instance_streams(3, 1000)[5:9]
        assert [s.generate_state(2).tolist() for s in a] == \
            [s.generate_state(2).tolist() for s in b]

    def test_first_slot_yields_suffix_rows(self):
        from repro.runtime.simulation import (
            generate_instance_batches, generate_instances,
        )

        dut = SyntheticDut()
        reference, _ = generate_instances(dut, 50, seed=17)
        for first in (1, 20, 49):
            suffix = np.vstack(list(generate_instance_batches(
                dut, 50 - first, seed=17, batch_size=8,
                first_slot=first)))
            assert np.array_equal(suffix, reference[first:])

    def test_first_slot_with_failures_matches_cold_suffix(self):
        from repro.runtime.simulation import (
            generate_instance_batches, generate_instances,
        )

        dut = PureFlakyDut()
        reference, _ = generate_instances(dut, 40, seed=5,
                                          max_failures=500)
        suffix = np.vstack(list(generate_instance_batches(
            dut, 25, seed=5, batch_size=6, first_slot=15,
            max_failures=500)))
        assert np.array_equal(suffix, reference[15:])

    def test_negative_first_slot_rejected(self):
        from repro.runtime.simulation import generate_instance_batches

        with pytest.raises(DatasetError, match="first_slot"):
            list(generate_instance_batches(SyntheticDut(), 10, seed=0,
                                           batch_size=4, first_slot=-1))

    def test_caller_report_accumulates_across_batches(self):
        from repro.process.montecarlo import GenerationReport
        from repro.runtime.simulation import generate_instance_batches

        dut = PureFlakyDut()
        report = GenerationReport(n_requested=30)
        rows = np.vstack(list(generate_instance_batches(
            dut, 30, seed=5, batch_size=7, max_failures=500,
            report=report)))
        assert len(rows) == 30
        assert report.n_simulated >= 30
        assert report.n_failed == report.n_simulated - 30
        assert report.elapsed_s > 0.0
        assert report.instances_per_minute > 0.0
