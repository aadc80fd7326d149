"""Decision pin for the two canonical test programs.

The op-amp program is the greedy loop at ``e_T = 0.02`` on 100 + 150
devices (seeds 3/4), the flow the ``compact-opamp`` benchmark times.
The accelerometer program eliminates the hot and cold tests at a 0.03
guard band on 200 + 200 devices (seeds 7/8), the ``lot-mems`` program.
Both run with every default of the library: the auto-tuned SVC grid,
its fold count, seed and subsample cap, the strict-to-loose warm
start.  So the exact counts and the tuner's winning parameters below
change only if one of those constants drifts from the value every
caller has always used.
"""

import dataclasses

import pytest

from repro.core.pipeline import CompactionPipeline
from repro.mems import AccelerometerBench, tests_at_temperature
from repro.opamp import OpAmpBench
from repro.process import generate_dataset

#: ``(test, eliminated, yield loss, escape, guard)`` per greedy step.
OPAMP_STEPS = [
    ("gain", True, 0, 1, 63),
    ("bw_3db", True, 0, 2, 64),
    ("ugf", False, 0, 4, 68),
    ("slew_rate", False, 2, 2, 61),
    ("rise_time", True, 2, 1, 62),
    ("overshoot", False, 5, 1, 62),
    ("settling_time", True, 1, 2, 61),
    ("iq", False, 2, 2, 61),
    ("cm_gain", True, 0, 2, 58),
    ("psrr_gain", False, 1, 5, 58),
    ("isc", True, 1, 1, 61),
]
OPAMP_REPORT = dict(n_total=150, n_good=105, n_bad=45, n_yield_loss=1,
                    n_defect_escape=1, n_guard=61, n_guard_good=40,
                    n_guard_bad=21)
MEMS_REPORT = dict(n_total=200, n_good=152, n_bad=48, n_yield_loss=1,
                   n_defect_escape=3, n_guard=19, n_guard_good=8,
                   n_guard_bad=11)


@pytest.fixture(scope="module")
def opamp_result():
    bench = OpAmpBench()
    train = generate_dataset(bench, 100, 3)
    test = generate_dataset(bench, 150, 4)
    return CompactionPipeline(tolerance=0.02).run(train, test)


@pytest.fixture(scope="module")
def mems_program():
    bench = AccelerometerBench()
    train = generate_dataset(bench, 200, 7)
    test = generate_dataset(bench, 200, 8)
    eliminated = tuple(tests_at_temperature(-40)
                       + tests_at_temperature(80))
    return CompactionPipeline(guard_band=0.03).evaluate_elimination(
        train, test, eliminated)


def test_opamp_program_is_pinned(opamp_result):
    result = opamp_result
    assert result.eliminated == ("gain", "bw_3db", "rise_time",
                                 "settling_time", "cm_gain", "isc")
    assert dataclasses.asdict(result.final_report) == OPAMP_REPORT
    assert [(s.test_name, s.eliminated, s.report.n_yield_loss,
             s.report.n_defect_escape, s.report.n_guard)
            for s in result.steps] == OPAMP_STEPS
    assert result.model.model_factory.best_params_ == {
        "C": 50.0, "gamma": 2.0}


def test_mems_program_is_pinned(mems_program):
    model, report = mems_program
    assert dataclasses.asdict(report) == MEMS_REPORT
    assert model.model_factory.best_params_ == {"C": 50.0, "gamma": 8.0}
