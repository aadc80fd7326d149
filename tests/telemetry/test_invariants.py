"""The determinism boundary: telemetry never changes a result.

Instrumented code reads clocks and bumps counters; these tests pin
down that no dataset row, compaction choice or floor decision depends
on whether a registry is active -- on both slot paths and at any
worker count, exactly as the package docstring promises.
"""

import numpy as np
import pytest

from repro.core.costmodel import TestCostModel as CostModel
from repro.core.pipeline import CompactionPipeline
from repro.floor import TestFloor as Floor
from repro.learn import SVC
from repro.mems import TEMPERATURES, AccelerometerBench
from repro.runtime.simulation import generate_instances
from repro.telemetry import Telemetry, disable, set_telemetry

from tests.synthetic import SLOT_PATHS, SyntheticDut, make_synthetic_dataset


class FixedSVCFactory:
    def __call__(self):
        return SVC(C=50.0, gamma="scale")


def _with_telemetry(fn):
    """Run ``fn`` with a fresh enabled registry active; restore after."""
    previous = set_telemetry(Telemetry(run_id="invariant"))
    try:
        return fn()
    finally:
        set_telemetry(previous)


@pytest.mark.parametrize("path", ["scalar", "batched"])
@pytest.mark.parametrize("n_jobs", [None, 2])
class TestGenerationBitIdentity:
    def test_population_identical_telemetry_on_and_off(self, path,
                                                       n_jobs):
        dut = SLOT_PATHS[path](SyntheticDut(n_specs=5, seed=11))
        disable()
        baseline, _ = generate_instances(dut, 96, seed=3, n_jobs=n_jobs)
        observed, _ = _with_telemetry(
            lambda: generate_instances(dut, 96, seed=3, n_jobs=n_jobs))
        assert baseline.tobytes() == observed.tobytes()


@pytest.mark.parametrize("path", ["scalar", "batched"])
def test_mems_population_identical_telemetry_on_and_off(path):
    bench = SLOT_PATHS[path](AccelerometerBench())
    disable()
    baseline, _ = generate_instances(bench, 6, seed=3)
    tel = Telemetry(run_id="invariant")
    previous = set_telemetry(tel)
    try:
        observed, _ = generate_instances(bench, 6, seed=3)
    finally:
        set_telemetry(previous)
    assert baseline.tobytes() == observed.tobytes()
    counters = {c["name"]: c["value"] for c in tel.snapshot()["counters"]}
    assert counters["repro_mems_fits_total"] == 6 * len(TEMPERATURES)
    assert (counters["repro_mems_fit_evals_total"]
            > counters["repro_mems_fits_total"])


@pytest.fixture(scope="module")
def floor_setup():
    """A compacted artifact plus production rows (built once)."""
    dut = SyntheticDut(n_specs=6, seed=99)
    train = make_synthetic_dataset(n=160, n_specs=6, seed=1, dut_seed=99)
    test = make_synthetic_dataset(n=120, n_specs=6, seed=2, dut_seed=99)
    pipeline = CompactionPipeline(tolerance=0.02, guard_band=0.06,
                                  model_factory=FixedSVCFactory())
    _, artifact = pipeline.deploy(
        train, test, cost_model=CostModel.uniform(train.names),
        device="synthetic", train_seed=1)
    rng = np.random.default_rng(17)
    rows = np.vstack([dut.measure(dut.sample_parameters(rng))
                      for _ in range(200)])
    return train, test, artifact, rows


class TestFloorBitIdentity:
    def test_decisions_identical_telemetry_on_and_off(self, floor_setup):
        _, _, artifact, rows = floor_setup
        disable()
        baseline = Floor(artifact).dispose(rows)

        def observed_run():
            return Floor(artifact).dispose(rows)

        observed = _with_telemetry(observed_run)
        assert np.array_equal(baseline.decisions, observed.decisions)
        assert np.array_equal(baseline.first_pass, observed.first_pass)
        assert baseline.cost == observed.cost

    def test_training_identical_telemetry_on_and_off(self, floor_setup):
        train, test, baseline_artifact, rows = floor_setup

        def observed_run():
            pipeline = CompactionPipeline(
                tolerance=0.02, guard_band=0.06,
                model_factory=FixedSVCFactory())
            _, artifact = pipeline.deploy(
                train, test,
                cost_model=CostModel.uniform(train.names),
                device="synthetic", train_seed=1)
            return artifact

        disable()
        observed_artifact = observed_run()
        telemetered_artifact = _with_telemetry(observed_run)
        for artifact in (observed_artifact, telemetered_artifact):
            assert artifact.kept == baseline_artifact.kept
            assert artifact.eliminated == baseline_artifact.eliminated
        base = Floor(baseline_artifact, monitor=False).dispose(rows)
        told = Floor(telemetered_artifact,
                     monitor=False).dispose(rows)
        assert np.array_equal(base.decisions, told.decisions)
