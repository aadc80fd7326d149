"""Compact many Monte-Carlo lots with parallel candidate evaluation.

Production test development rarely compacts a single dataset: lots
arrive continuously, and tolerance sweeps re-run the flow at many
``e_T`` settings.  This example drives both bulk patterns through
:class:`repro.core.compaction.TestCompactor`:

1. one compaction with speculative multi-process candidate evaluation
   (``n_jobs``), verified identical to the serial run;
2. a ``run_many`` batch over several independently simulated lots,
   reporting which tests are redundant in *every* lot -- the
   compaction a production program could actually commit to.

Run:
    python examples/parallel_batch_compaction.py [n_jobs]
"""

import sys
import time

from repro.core.compaction import TestCompactor
from repro.learn.svm import SVC
from repro.opamp import OpAmpBench
from repro.runtime import cpu_count


def model_factory():
    """Fixed hyperparameters keep the example fast and deterministic."""
    return SVC(C=500.0, gamma=8.0)


def main(n_jobs):
    bench = OpAmpBench()
    print("Simulating 4 op-amp lots (300 + 150 instances each)...")
    lots = []
    for lot in range(4):
        lots.append((bench.generate_dataset(300, seed=100 + 2 * lot),
                     bench.generate_dataset(150, seed=101 + 2 * lot)))

    compactor = TestCompactor(tolerance=0.02, guard_band=0.05,
                              model_factory=model_factory, n_jobs=n_jobs)
    serial = TestCompactor(tolerance=0.02, guard_band=0.05,
                           model_factory=model_factory, n_jobs=1)

    # -- one lot, speculative parallel loop ---------------------------
    train, test = lots[0]
    t0 = time.perf_counter()
    result = compactor.run(train, test)
    t_par = time.perf_counter() - t0
    t0 = time.perf_counter()
    reference = serial.run(train, test)
    t_ser = time.perf_counter() - t0
    assert result.eliminated == reference.eliminated
    assert result.final_report == reference.final_report
    print("\nlot 0: eliminated {} of {} tests "
          "(parallel {:.1f}s vs serial {:.1f}s, identical result)".format(
              len(result.eliminated), len(train.names), t_par, t_ser))
    print("  speculation: {}".format(result.stats.get("speculation")))

    # -- all lots through one scheduler -------------------------------
    t0 = time.perf_counter()
    results = compactor.run_many(lots)
    t_batch = time.perf_counter() - t0
    print("\nbatch of {} lots in {:.1f}s (n_jobs={}):".format(
        len(lots), t_batch, compactor.n_jobs))
    for lot, r in enumerate(results):
        print("  lot {}: kept {:2d}  eliminated {:2d}  {}".format(
            lot, len(r.kept), len(r.eliminated), r.final_report.summary()))
    always = set.intersection(*(set(r.eliminated) for r in results))
    print("\nredundant in every lot: {}".format(
        ", ".join(sorted(always)) or "(none)"))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else cpu_count())
