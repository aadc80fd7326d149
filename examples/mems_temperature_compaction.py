"""MEMS accelerometer: eliminate the hot and cold temperature tests.

Reproduces the scenario of paper Section 5.2 / Table 3: a MEMS
accelerometer is tested against four specifications at -40 C, 27 C and
80 C.  The temperature insertions are expensive (the die must soak to
a steady-state temperature), so the question is whether the hot and
cold outcomes can be predicted from the room-temperature measurements.

The script eliminates each temperature block and reports defect
escape, yield loss and guard-band population, then quantifies the test
cost saving with a soak-cost-aware cost model.

Run:
    python examples/mems_temperature_compaction.py [n_train] [n_test]
"""

import sys

from repro.core.compaction import TestCompactor
from repro.mems import (
    AccelerometerBench, soak_cost_model, tests_at_temperature,
)


def main():
    n_train = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    n_test = int(sys.argv[2]) if len(sys.argv) > 2 else 1000

    bench = AccelerometerBench()
    print("Simulating {} + {} accelerometer instances at three "
          "temperatures...".format(n_train, n_test))
    train = bench.generate_dataset(n_train, seed=7)
    test = bench.generate_dataset(n_test, seed=8)
    print("  training yield: {:.1%}   test yield: {:.1%}".format(
        train.yield_fraction, test.yield_fraction))

    compactor = TestCompactor(guard_band=0.03)
    cost_model = soak_cost_model()
    full_cost = cost_model.full_cost()

    cold = tests_at_temperature(-40)
    hot = tests_at_temperature(80)
    cases = [
        ("-40 (cold)", cold),
        ("80 (hot)", hot),
        ("both", cold + hot),
    ]

    print("\n{:<12} {:>10} {:>10} {:>12} {:>14}".format(
        "eliminated", "DE %", "YL %", "guard %", "cost saved %"))
    for label, eliminated in cases:
        _, report = compactor.evaluate_subset(train, test, eliminated)
        kept = [n for n in train.names if n not in set(eliminated)]
        saving = cost_model.reduction(kept)
        print("{:<12} {:>10.2f} {:>10.2f} {:>12.2f} {:>14.1f}".format(
            label,
            100 * report.defect_escape_rate,
            100 * report.yield_loss_rate,
            100 * report.guard_rate,
            100 * saving))

    print("\nFull test-set cost per device: {:.0f} units".format(full_cost))
    print("Paper headline: eliminating hot+cold cuts cost by more "
          "than half at ~0.2 % defect escape.")


if __name__ == "__main__":
    main()
