"""Experiment F6 -- paper Fig. 6: accuracy vs training-set size.

The paper eliminates the 3-dB bandwidth test and plots yield loss,
defect escape and guard-band population while growing the training set
from a few hundred to 5000 instances; both error components fall
(noisily) with more data.
"""

from benchmarks.harness import datasets, load_population, print_table, \
    run_once
from repro.core.compaction import TestCompactor as Compactor

#: The eliminated test of Fig. 6.
ELIMINATED = ("bw_3db",)
#: Training sizes swept (the paper sweeps on to 5000).
SIZES = (250, 500, 1000)


def bench_fig6_training_size_sweep(benchmark):
    """Sweep the training size for the bw_3db elimination."""
    _, test = datasets("opamp")
    compactor = Compactor(guard_band=0.05)

    def sweep():
        rows = []
        for n in SIZES:
            train = load_population("opamp", n, 1001)
            _, report = compactor.evaluate_subset(train, test, ELIMINATED)
            rows.append((n, 100 * report.yield_loss_rate,
                         100 * report.defect_escape_rate,
                         100 * report.guard_rate))
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "Fig. 6: accuracy vs number of training instances "
        "(bw_3db eliminated)",
        ["n_train", "yield loss %", "defect escape %", "guard band %"],
        rows)

    # Shape: the largest training set is at least as accurate as the
    # smallest (errors fall with data, allowing sampling noise).
    first_error = rows[0][1] + rows[0][2]
    last_error = rows[-1][1] + rows[-1][2]
    assert last_error <= first_error + 0.5
    # Error stays small in absolute terms for a single eliminated test.
    assert last_error < 2.0
