"""The wave slot loop against the plain per-slot loop it replaced.

:func:`simulate_slot` below is the reference: one slot, simulated
through ``dut.measure`` to success or give-up, resamples drawn from
the slot's own stream.  :func:`repro.runtime.simulation.
simulate_slots_batched` must give every slot the same row, attempt
count, failure list and first error, at any chunk size, whether the
DUT is measured through its own ``measure_batch`` or through the
adapter that maps ``measure`` for a DUT without one.
"""

import numpy as np
import pytest

from repro.errors import ConvergenceError, DatasetError, ReproError
from repro.runtime.simulation import (
    SlotResult,
    instance_streams,
    simulate_slots_batched,
)

from tests.runtime.test_simulation import (
    AlwaysFailDut,
    FlakyAccelerometerBench,
    NonFiniteDut,
    PureFlakyDut,
)
from tests.synthetic import SLOT_PATHS, SyntheticDut


def simulate_slot(dut, entropy, n_specs, on_error, failure_budget):
    """Simulate one instance slot to success or until it gives up."""
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


def _summary(result):
    row = None if result.row is None else result.row.tobytes()
    error = (None if result.error is None
             else (type(result.error), str(result.error)))
    return row, result.n_attempts, list(result.failures), error


class DrawNamingFailDut(SyntheticDut):
    """Always fails, naming the draw: every attempt's message differs."""

    def measure(self, params):
        raise ConvergenceError("dead at {!r}".format(float(params[0])))


DUTS = {
    "clean": SyntheticDut,
    "flaky": PureFlakyDut,
    "always-failing": AlwaysFailDut,
    "draw-naming": DrawNamingFailDut,
    "non-finite": NonFiniteDut,
}


@pytest.mark.parametrize("path", sorted(SLOT_PATHS))
@pytest.mark.parametrize("name", sorted(DUTS))
@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("on_error", ["resample", "raise"])
@pytest.mark.parametrize("budget", [1, 3, 100])
def test_waves_equal_the_per_slot_loop(path, name, chunk, on_error,
                                       budget):
    dut = DUTS[name]()
    n_specs = len(dut.specifications)
    streams = instance_streams(11, 21)
    want = [_summary(simulate_slot(dut, stream, n_specs, on_error,
                                   budget)) for stream in streams]
    wrapped = SLOT_PATHS[path](dut)
    got = []
    for start in range(0, len(streams), chunk):
        got.extend(_summary(result) for result in simulate_slots_batched(
            wrapped, streams[start:start + chunk], n_specs, on_error,
            budget))
    assert got == want
    if name != "clean":
        assert any(failures for _, _, failures, _ in want)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("on_error", ["resample", "raise"])
def test_circuit_measure_batch_equals_the_per_slot_loop(chunk, on_error):
    """The MEMS bench's stacked measure_batch, with injected failures."""
    bench = FlakyAccelerometerBench()
    n_specs = len(bench.specifications)
    streams = instance_streams(29, 7)
    want = [_summary(simulate_slot(bench, stream, n_specs, on_error, 50))
            for stream in streams]
    got = []
    for start in range(0, len(streams), chunk):
        got.extend(_summary(result) for result in simulate_slots_batched(
            bench, streams[start:start + chunk], n_specs, on_error, 50))
    assert got == want
    assert any(failures for _, _, failures, _ in want)
