"""Tune-cost pin: the fold solves the auto-tuner issues on the op-amp
program of ``tests/core/test_decision_pin.py`` (the ``compact-opamp``
benchmark's program).

Each of the 11 greedy candidates tunes once, over one ``C`` and four
gammas on 3 folds: one lockstep stack of 12 fold QPs.  A grid level
that comes back, or a search that splits its fits into more stacks,
moves these counts.

The same run pins the whole program's SMO work, counted by the
telemetry registry: 154 solves (the 132 fold QPs and 22 strict / loose
fits), their iterations, and the lockstep steps the stacks share.  A
change to the step bookkeeping that keeps every solution bitwise keeps
these counts; a step that takes another iterate path moves them.
"""

from repro.core.pipeline import CompactionPipeline
from repro.opamp import OpAmpBench
from repro.process import generate_dataset
from repro.telemetry import Telemetry, set_telemetry


class _Events(list):
    """A telemetry sink that keeps every event."""

    emit = list.append


def test_opamp_program_tunes_in_132_fold_solves_and_11_stacks():
    bench = OpAmpBench()
    train = generate_dataset(bench, 100, 3)
    test = generate_dataset(bench, 150, 4)
    events = _Events()
    tel = Telemetry(run_id="tune-cost", sink=events)
    previous = set_telemetry(tel)
    try:
        result = CompactionPipeline(tolerance=0.02).run(train, test)
    finally:
        set_telemetry(previous)
    stacks = [e["attrs"]["problems"] for e in events
              if e["event"] == "span" and e["name"] == "train.svc_stack"]
    assert len(result.steps) == 11
    assert stacks == [12] * 11
    assert sum(stacks) == 132
    counts = {}
    for c in tel.snapshot()["counters"]:
        if c["name"].startswith("repro_learn_smo_"):
            counts[c["name"]] = counts.get(c["name"], 0) + c["value"]
    # No solve stops unconverged (that counter would appear here too).
    assert counts == {
        "repro_learn_smo_solves_total": 154,
        "repro_learn_smo_iterations_total": 29529,
        "repro_learn_smo_lockstep_steps_total": 10149,
    }
