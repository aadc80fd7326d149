"""Experiment R1 -- parallel compaction speedup over the serial loop.

Runs the same greedy compaction (paper Fig. 2) three ways and compares
wall-clock time and results:

1. :class:`~repro.core.compaction.TestCompactor` serial (``n_jobs=1``)
   -- shared pair Grams + warm starts + final-refit reuse, the baseline
   everything must stay bitwise equal to;
2. the compactor with ``n_jobs`` workers -- speculative candidate
   fan-out;
3. :meth:`~repro.core.compaction.TestCompactor.run_many` over several
   Monte-Carlo lots, serial vs. parallel.

The parallel speedup needs real cores: the assertions demand >= 2x
over the serial run only when the machine has at least four CPUs.
Result equivalence is asserted unconditionally.

Runnable directly (``python benchmarks/bench_parallel_compaction.py``)
or through pytest-benchmark like every other experiment here.
"""

import os

if __name__ == "__main__":
    # Allow `python benchmarks/bench_parallel_compaction.py` without an
    # installed package or PYTHONPATH (pytest gets these from
    # pyproject.toml's pythonpath setting instead).
    import pathlib
    import sys

    _root = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_root), str(_root / "src")]

from benchmarks.harness import datasets, print_table, run_once, wall_time
from repro.core.compaction import TestCompactor
from repro.learn.svm import SVC
from repro.runtime import cpu_count

#: Compaction configuration under test.
TOLERANCE = 0.01
GUARD = 0.05
#: Worker count for the parallel modes.
N_JOBS = min(4, cpu_count())
#: Monte-Carlo lots for the run_many comparison.
N_LOTS = 4


def _model_factory():
    """Fixed SVC so every mode times the same model fits.

    (The auto-tuned factory re-runs a grid search per candidate; it
    parallelizes the same way but would push a single benchmark run
    into tens of minutes.)
    """
    return SVC(C=500.0, gamma=8.0)


def _make_compactor(n_jobs):
    return TestCompactor(tolerance=TOLERANCE, guard_band=GUARD,
                         model_factory=_model_factory, n_jobs=n_jobs)


def _same_outcome(a, b):
    return (a.kept == b.kept and a.eliminated == b.eliminated
            and a.final_report == b.final_report)


def run_experiment():
    """Execute all modes; returns the printed rows as structured data."""
    train, test = datasets("opamp")
    lots = [(train.subset(range(i, len(train), N_LOTS)),
             test.subset(range(i, len(test), N_LOTS)))
            for i in range(N_LOTS)]

    serial, t_serial = wall_time(_make_compactor(1).run, train, test)
    parallel, t_par = wall_time(_make_compactor(N_JOBS).run, train, test)
    lots_serial, t_lots_serial = wall_time(
        _make_compactor(1).run_many, lots)
    lots_par, t_lots_par = wall_time(
        _make_compactor(N_JOBS).run_many, lots)

    rows = [
        ("n_jobs=1", t_serial, 1.0),
        ("n_jobs={}".format(N_JOBS), t_par, t_serial / t_par),
        ("run_many {} lots serial".format(N_LOTS), t_lots_serial, 1.0),
        ("run_many {} lots n_jobs={}".format(N_LOTS, N_JOBS),
         t_lots_par, t_lots_serial / t_lots_par),
    ]
    print_table(
        "R1: parallel compaction speedup ({} CPUs available)".format(
            cpu_count()),
        ["mode", "seconds", "speedup"], rows)
    print("\nkept: {}  eliminated: {}".format(
        ", ".join(serial.kept), ", ".join(serial.eliminated)))
    print("speculation: {}".format(parallel.stats.get("speculation")))

    # Equivalence is non-negotiable in every environment.
    assert _same_outcome(serial, parallel)
    assert [r.eliminated for r in lots_serial] == \
        [r.eliminated for r in lots_par]
    for a, b in zip(serial.steps, parallel.steps):
        assert a.report == b.report and a.eliminated == b.eliminated

    # Speedup needs real cores; the bar is set for a 4-core machine.
    if cpu_count() >= 4 and not os.environ.get("REPRO_BENCH_NO_SPEEDUP"):
        assert t_serial / t_par >= 2.0 or \
            t_lots_serial / t_lots_par >= 2.0, (
                "expected >=2x from parallel execution; got "
                "single-run {:.2f}x, batch {:.2f}x".format(
                    t_serial / t_par, t_lots_serial / t_lots_par))
    return rows


def bench_parallel_compaction(benchmark):
    """pytest-benchmark entry point (records the whole comparison)."""
    run_once(benchmark, run_experiment)


if __name__ == "__main__":
    run_experiment()
