"""Experiment C1 -- headline claim: >50 % accelerometer test-cost cut.

"For the accelerometer, this level of compaction would reduce test
cost by more than half."  The cost model charges each specification
test one unit plus a per-temperature fixture cost dominated by the
thermal soak; eliminating the hot and cold insertions then removes
both soaks.

The benchmark also runs the program through the test floor (with
guard-band retest at the complete-test-set cost) so the saving
includes the retest overhead, not just the idealized per-device
figure.
"""

from benchmarks.harness import datasets, print_table, run_once
from repro.core.compaction import TestCompactor as Compactor
from repro.core.costmodel import TestCostModel as CostModel
from repro.floor import TestFloor as Floor
from repro.floor import TestProgramArtifact as Artifact
from repro.mems import TEMPERATURES, tests_at_temperature

#: Per-test application cost (units).
TEST_COST = 1.0
#: Thermal soak cost per temperature insertion; room needs no soak.
SOAK_COST = {"-40C": 25.0, "27C": 2.0, "80C": 25.0}


def build_cost_model():
    """Soak-aware cost model over the twelve accelerometer tests."""
    costs, groups = {}, {}
    for temp in TEMPERATURES:
        group = "{:g}C".format(temp)
        for name in tests_at_temperature(temp):
            costs[name] = TEST_COST
            groups[name] = group
    return CostModel(costs, groups, SOAK_COST)


def bench_cost_reduction(benchmark):
    """Quantify the cost saving of eliminating hot+cold tests."""
    train, test = datasets("mems")
    cost_model = build_cost_model()
    eliminated = tests_at_temperature(-40) + tests_at_temperature(80)

    def flow():
        compactor = Compactor(guard_band=0.03)
        model, _ = compactor.evaluate_subset(train, test, eliminated)
        artifact = Artifact(model, test.specifications,
                            cost_model=cost_model)
        return Floor(artifact, retest_policy="full_retest").run_dataset(test)

    outcome = run_once(benchmark, flow)
    kept = [n for n in train.names if n not in set(eliminated)]
    ideal = cost_model.reduction(kept)
    print_table(
        "Headline: accelerometer test-cost reduction",
        ["quantity", "value"],
        [("full test-set cost / device", cost_model.full_cost()),
         ("compacted cost / device (ideal)", cost_model.cost(kept)),
         ("ideal reduction %", 100 * ideal),
         ("with guard-band retest: cost / device",
          outcome.cost_per_device),
         ("with retest: reduction %", 100 * outcome.cost_reduction),
         ("devices retested", outcome.n_retested),
         ("final yield loss %", 100 * outcome.yield_loss_rate),
         ("final defect escape %", 100 * outcome.defect_escape_rate)])

    # The paper's claim, including the retest overhead.
    assert outcome.cost_reduction > 0.5
    assert ideal > 0.5
