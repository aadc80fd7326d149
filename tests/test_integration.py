"""End-to-end integration tests across the whole stack.

These use small real circuit simulations (op-amp and MEMS), so they
are slower than the unit tests but verify the full pipeline:
Monte-Carlo generation -> labeling -> compaction -> guard banding ->
tester deployment.
"""

import numpy as np
import pytest

from repro import compact_specification_tests
from repro.core.compaction import TestCompactor as Compactor
from repro.core.costmodel import TestCostModel as CostModel
from repro.core.metrics import GUARD
from repro.floor import TestFloor as Floor
from repro.floor import TestProgramArtifact as Artifact
from repro.learn import SVC
# Aliased so pytest does not collect the imported helper (its name
# matches the default "test*" function pattern).
from repro.mems import AccelerometerBench, TEMPERATURES
from repro.mems import tests_at_temperature as _tests_at_temperature
from repro.opamp import OpAmpBench
from repro.tester import LookupTable

# The module simulates real Monte-Carlo populations end to end -- the
# slowest generation work in the suite.  `pytest -m "not slow"` skips
# it for a fast pre-commit loop; the tier-1 command runs unfiltered.
pytestmark = pytest.mark.slow


def _fixed_factory():
    return SVC(C=500.0, gamma=8.0)


@pytest.fixture(scope="module")
def mems_data():
    """Small real MEMS population shared by the module's tests."""
    bench = AccelerometerBench()
    train = bench.generate_dataset(300, seed=70)
    test = bench.generate_dataset(200, seed=71)
    return train, test


@pytest.fixture(scope="module")
def opamp_data():
    """Small real op-amp population.

    Generated on the batched MNA kernel, the path every bench takes:
    its datasets are bytewise the scalar ``measure``'s (same sha256
    of ``values`` and ``labels``) at about a sixth of the time.
    """
    bench = OpAmpBench()
    train = bench.generate_dataset(120, seed=80)
    test = bench.generate_dataset(80, seed=81)
    return train, test


class TestMemsEndToEnd:
    def test_temperature_block_elimination(self, mems_data):
        train, test = mems_data
        compactor = Compactor(guard_band=0.03,
                              model_factory=_fixed_factory)
        eliminated = _tests_at_temperature(-40) + _tests_at_temperature(80)
        model, report = compactor.evaluate_subset(train, test, eliminated)
        # The paper's core result at reduced scale: small errors.
        assert report.error_rate < 0.05
        assert set(model.feature_names) == set(_tests_at_temperature(27))

    def test_full_tester_flow(self, mems_data):
        train, test = mems_data
        compactor = Compactor(guard_band=0.03,
                              model_factory=_fixed_factory)
        eliminated = _tests_at_temperature(-40) + _tests_at_temperature(80)
        model, _ = compactor.evaluate_subset(train, test, eliminated)

        costs, groups = {}, {}
        for temp in TEMPERATURES:
            for name in _tests_at_temperature(temp):
                costs[name] = 1.0
                groups[name] = "{:g}C".format(temp)
        cost_model = CostModel(costs, groups,
                               {"-40C": 25.0, "27C": 2.0, "80C": 25.0})

        artifact = Artifact(model, test.specifications,
                            cost_model=cost_model,
                            lookup=LookupTable(model, resolution=17))
        outcome = Floor(artifact).run_dataset(test)
        assert outcome.cost_reduction > 0.5
        assert outcome.yield_loss_rate + outcome.defect_escape_rate < 0.1

    def test_greedy_loop_on_mems(self, mems_data):
        train, test = mems_data
        result = compact_specification_tests(
            train, test, tolerance=0.03, guard_band=0.03,
            model_factory=_fixed_factory)
        # Twelve highly redundant tests: several must fall.
        assert len(result.eliminated) >= 4
        assert result.final_report.error_rate <= 0.03 + 1e-9


class TestOpampEndToEnd:
    def test_compaction_finds_redundancy(self, opamp_data):
        train, test = opamp_data
        result = compact_specification_tests(
            train, test, tolerance=0.03, guard_band=0.05,
            model_factory=_fixed_factory)
        assert len(result.eliminated) >= 1
        assert result.final_report.error_rate <= 0.03 + 1e-9

    def test_no_elimination_zero_error(self, opamp_data):
        train, test = opamp_data
        compactor = Compactor(guard_band=0.05,
                              model_factory=_fixed_factory)
        _, report = compactor.evaluate_subset(train, test, [])
        assert report.error_rate == 0.0

    def test_guard_band_population_reasonable(self, opamp_data):
        train, test = opamp_data
        compactor = Compactor(guard_band=0.05,
                              model_factory=_fixed_factory)
        model, report = compactor.evaluate_subset(train, test, ["gain"])
        # Paper Fig. 5 shows a substantial but bounded guard population.
        assert 0.0 < report.guard_rate < 0.7


class TestDeterminism:
    def test_same_seed_same_compaction(self, mems_data):
        train, test = mems_data
        kwargs = dict(tolerance=0.03, guard_band=0.03,
                      model_factory=_fixed_factory)
        a = compact_specification_tests(train, test, **kwargs)
        b = compact_specification_tests(train, test, **kwargs)
        assert a.eliminated == b.eliminated
        assert a.final_report == b.final_report
