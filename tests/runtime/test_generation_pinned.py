"""Pinned Monte-Carlo generation records.

A seeded flaky synthetic DUT fails by raising and by returning a NaN,
as pure functions of its draws.  Its population, failure report,
abort messages and simulation counters were recorded once and must
not move on either slot path (``measure_batch`` or the scalar
``measure`` behind :class:`tests.synthetic.ScalarOnly`), at one or two
workers, through :func:`generate_dataset` or the streamed
:func:`generate_instance_batches`.  The DUT does elementwise
arithmetic only (no BLAS), so the value hash holds on any platform.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import ConvergenceError, DatasetError
from repro.process.montecarlo import GenerationReport, generate_dataset
from repro.runtime.simulation import generate_instance_batches
from repro.telemetry import Telemetry, set_telemetry

from tests.synthetic import SLOT_PATHS, SyntheticDut

N, SEED, BATCH, BUDGET = 40, 5, 9, 100

U, NF = "unstable bias point", "non-finite measurement"

#: Population hash, report and the slots/attempts/resamples/failures
#: counters of the recorded run.
SHA256 = "5c504b0e4a0583bd8f015a7a9d9dc08967081a035755babc5aeac19e0d5c5d8c"
N_SIMULATED, N_FAILED = 49, 9
FAILURES = [U, U, U, U, NF, U, U, U, NF]
COUNTERS = (40, 49, 9, 9)

#: ``generate_dataset`` at a budget of 4: aborts before any counter.
ABORT = "Monte-Carlo generation aborted: 4 simulation failures (last: {})"
#: The stream at a budget of 9: three whole batches are counted.
STREAM_ABORT = ("Monte-Carlo generation aborted: 9 simulation failures "
                "(last: {})")
STREAM_ABORT_COUNTERS = (27, 32, 5, 5)


class FlakyDut(SyntheticDut):
    """Raises, returns a NaN or measures, by the first draw alone."""

    def measure(self, params):
        first = float(params[0])
        if 0.0 < first < 0.3:
            raise ConvergenceError(U)
        values = np.concatenate([params, params * params])
        if 0.3 < first < 0.45:
            values[1] = np.nan
        return values


def _counted(fn):
    """``(fn(), sim counters)`` under a fresh telemetry registry."""
    tel = Telemetry(run_id="pinned")
    previous = set_telemetry(tel)
    try:
        out = fn()
    finally:
        set_telemetry(previous)
    counters = {c["name"]: c["value"] for c in tel.snapshot()["counters"]}
    return out, tuple(int(counters.get("repro_sim_{}_total".format(name), 0))
                      for name in ("slots", "attempts", "resamples",
                                   "failures"))


def _sha(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


@pytest.fixture(params=["batched", "scalar"])
def dut(request):
    return SLOT_PATHS[request.param](FlakyDut(n_specs=6, n_latent=3))


@pytest.mark.parametrize("n_jobs", [1, 2])
class TestPinnedGeneration:
    def test_dataset(self, dut, n_jobs):
        (dataset, report), counters = _counted(lambda: generate_dataset(
            dut, N, SEED, max_failures=BUDGET, return_report=True,
            n_jobs=n_jobs))
        assert _sha(dataset.values) == SHA256
        assert (report.n_simulated, report.n_failed) == (N_SIMULATED,
                                                         N_FAILED)
        assert report.failures == FAILURES
        assert counters == COUNTERS

    def test_streamed_batches(self, dut, n_jobs):
        report = GenerationReport(n_requested=N)
        values, counters = _counted(lambda: np.vstack(list(
            generate_instance_batches(dut, N, SEED, batch_size=BATCH,
                                      n_jobs=n_jobs, max_failures=BUDGET,
                                      report=report))))
        assert _sha(values) == SHA256
        assert (report.n_simulated, report.n_failed) == (N_SIMULATED,
                                                         N_FAILED)
        assert report.failures == FAILURES
        assert counters == COUNTERS

    def test_dataset_abort(self, dut, n_jobs):
        def run():
            with pytest.raises(DatasetError) as exc:
                generate_dataset(dut, N, SEED, max_failures=4,
                                 n_jobs=n_jobs)
            return str(exc.value)

        message, counters = _counted(run)
        assert message == ABORT.format(U)
        assert counters == (0, 0, 0, 0)

    def test_streamed_abort(self, dut, n_jobs):
        def run():
            with pytest.raises(DatasetError) as exc:
                list(generate_instance_batches(
                    dut, N, SEED, batch_size=BATCH, max_failures=9,
                    n_jobs=n_jobs))
            return str(exc.value)

        message, counters = _counted(run)
        assert message == STREAM_ABORT.format(NF)
        assert counters == STREAM_ABORT_COUNTERS
