"""Experiment R2 -- deterministic parallel Monte-Carlo generation.

Runs the same Monte-Carlo population builds (paper Fig. 1) serially
and through the :mod:`repro.runtime.simulation` process fan-out, and
compares wall-clock time and results:

1. op-amp population, serial (``n_jobs=1``) -- the expensive case,
   ~5 circuit analyses per instance;
2. the same population with ``n_jobs`` workers -- **bit-identical by
   construction** (per-instance ``SeedSequence`` streams);
3. a device x lot batch through the :func:`repro.process.montecarlo.
   generate_many` scheduler, serial vs. parallel.

Result equivalence is asserted unconditionally in every environment;
the >= 2x speedup assertion needs real cores and fires only on
machines with at least four CPUs (mirroring
``bench_parallel_compaction.py``).

Runnable directly (``python benchmarks/bench_parallel_generation.py``)
or through pytest-benchmark like every other experiment here.
"""

if __name__ == "__main__":
    # Allow `python benchmarks/bench_parallel_generation.py` without an
    # installed package or PYTHONPATH (pytest gets these from
    # pyproject.toml's pythonpath setting instead).
    import pathlib
    import sys

    _root = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_root), str(_root / "src")]

import numpy as np

from benchmarks.harness import print_table, run_once, wall_time
from repro.mems import AccelerometerBench
from repro.opamp import OpAmpBench
from repro.process.montecarlo import generate_dataset, generate_many
from repro.runtime import cpu_count

#: Instances in the single-population comparison (op-amp: ~56 ms each).
N_OPAMP = 48
#: Per-lot sizes for the generate_many batch comparison.
LOT_SIZES = ((N_OPAMP, 1001), (N_OPAMP // 2, 2002))
#: Worker count for the parallel modes.
N_JOBS = min(4, cpu_count())


def run_experiment():
    """Execute all modes; returns the printed rows as structured data."""
    opamp = OpAmpBench()
    mems = AccelerometerBench()

    serial, t_serial = wall_time(
        generate_dataset, opamp, N_OPAMP, 42)
    parallel, t_par = wall_time(
        generate_dataset, opamp, N_OPAMP, 42, n_jobs=N_JOBS)

    requests = [(opamp, n, seed) for n, seed in LOT_SIZES] + \
        [(mems, 200, 7)]
    lots_serial, t_lots_serial = wall_time(generate_many, requests)
    lots_par, t_lots_par = wall_time(
        generate_many, requests, n_jobs=N_JOBS)

    rows = [
        ("opamp x{} serial".format(N_OPAMP), t_serial, 1.0),
        ("opamp x{} n_jobs={}".format(N_OPAMP, N_JOBS), t_par,
         t_serial / t_par),
        ("generate_many {} lots serial".format(len(requests)),
         t_lots_serial, 1.0),
        ("generate_many {} lots n_jobs={}".format(len(requests), N_JOBS),
         t_lots_par, t_lots_serial / t_lots_par),
    ]
    print_table(
        "R2: parallel Monte-Carlo generation ({} CPUs available)".format(
            cpu_count()),
        ["mode", "seconds", "speedup"], rows)

    # Serial/parallel equivalence is non-negotiable in every
    # environment: per-instance seeding makes the datasets
    # byte-identical at any worker count.
    assert np.array_equal(serial.values, parallel.values)
    assert np.array_equal(serial.labels, parallel.labels)
    for a, b in zip(lots_serial, lots_par):
        assert np.array_equal(a.values, b.values)

    # Speedup needs real cores; the acceptance bar is a 4-core run.
    if cpu_count() >= 4:
        assert t_serial / t_par >= 2.0 or \
            t_lots_serial / t_lots_par >= 2.0, (
                "expected >=2x from parallel generation; got "
                "single-population {:.2f}x, batch {:.2f}x".format(
                    t_serial / t_par, t_lots_serial / t_lots_par))
    return rows


def bench_parallel_generation(benchmark):
    """pytest-benchmark entry point (records the whole comparison)."""
    run_once(benchmark, run_experiment)


if __name__ == "__main__":
    run_experiment()
