"""Deploy a compacted test set on a (simulated) production tester.

Paper Section 3.3: the SVM-reshaped acceptance region is shipped to the
tester as a grid lookup table, and guard-band devices are retested with
the complete specification set (Section 4.2).  This script walks the
whole flow on the MEMS accelerometer:

1. Monte-Carlo-train a compaction model with the hot/cold tests
   eliminated;
2. build the grid lookup table and report its size and agreement with
   the live SVM pair;
3. package the program as a deployable artifact and run a production
   lot through the test floor under the three retest policies,
   comparing shipped quality and cost.

Run:
    python examples/tester_deployment.py
"""

from repro.core.compaction import TestCompactor
from repro.floor import TestFloor, TestProgramArtifact
from repro.mems import (
    AccelerometerBench, soak_cost_model, tests_at_temperature,
)
from repro.tester import LookupTable


def main():
    bench = AccelerometerBench()
    print("Simulating training population and production lot...")
    train = bench.generate_dataset(1000, seed=7)
    lot = bench.generate_dataset(1000, seed=21)

    eliminated = tests_at_temperature(-40) + tests_at_temperature(80)
    compactor = TestCompactor(guard_band=0.03)
    model, report = compactor.evaluate_subset(train, lot, eliminated)
    print("Compacted test set: {} of 12 tests kept".format(
        len(model.feature_names)))
    print("Live-model evaluation on the lot: {}".format(report.summary()))

    lut = LookupTable(model)
    print("\nLookup table: {} cells at resolution {} "
          "({} kB on the tester)".format(
              lut.n_cells, lut.resolution, lut.memory_bytes() // 1024))
    print("Agreement with the live SVM pair: {:.1%}".format(
        lut.agreement_with_model(lot)))

    artifact = TestProgramArtifact(model, lot.specifications,
                                   cost_model=soak_cost_model(),
                                   lookup=lut)
    print("\n{:<14} {:>8} {:>8} {:>10} {:>12} {:>12}".format(
        "policy", "YL %", "DE %", "retested", "cost/device",
        "saved %"))
    for policy in ("full_retest", "accept", "reject"):
        outcome = TestFloor(artifact,
                            retest_policy=policy).run_dataset(lot)
        print("{:<14} {:>8.2f} {:>8.2f} {:>10d} {:>12.2f} {:>12.1f}".format(
            policy,
            100 * outcome.yield_loss_rate,
            100 * outcome.defect_escape_rate,
            outcome.n_retested,
            outcome.cost_per_device,
            100 * outcome.cost_reduction))


if __name__ == "__main__":
    main()
