"""Experiment R5 -- batched MNA simulation kernel throughput.

Generates the same Monte-Carlo populations (paper Fig. 1) through the
scalar per-instance simulator (the bench wrapped in
:class:`tests.synthetic.ScalarOnly`, which hides ``measure_batch``)
and through the batched MNA kernel the bench gets by default (every
Newton iteration, frequency point and time step of the whole
population is one stacked LAPACK call), and compares wall clock and
results:

1. op-amp population -- the expensive case, five full circuit analyses
   per instance, and the PR's acceptance gate: **>= 3x** on a single
   core at 200 instances;
2. accelerometer population -- three temperature insertions of stacked
   AC sweeps per instance.

Equivalence is asserted unconditionally in every environment: the
batched dataset must equal the scalar dataset **exactly** (the MOSFET/
R/L/C netlists of both benches meet the kernel's bit-parity contract;
per-slot seeding makes resamples line up too).  The speedup bar is
skipped only under ``REPRO_BENCH_NO_SPEEDUP=1`` (the CI equivalence
smoke, which also shrinks the populations) -- unlike the process-
fan-out benches it needs no extra cores, so it is *not* gated on CPU
count.

The measured instances/min are printed and, when ``REPRO_BENCH_JSON``
names a path (or when run as a script), written as a JSON record --
the seed of the repo's generation-perf trajectory (CI uploads it as
the ``BENCH_sim.json`` artifact).

Runnable directly (``python benchmarks/bench_batched_simulation.py``)
or through pytest-benchmark like every other experiment here.
"""

import json
import os
import time

if __name__ == "__main__":
    # Allow `python benchmarks/bench_batched_simulation.py` without an
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
from repro.process.montecarlo import generate_dataset
from repro.runtime import cpu_count
from tests.synthetic import ScalarOnly

#: Acceptance bar: batched op-amp generation on one core.
SPEEDUP_FLOOR = 3.0

#: Full-mode population sizes (the op-amp size is the acceptance gate).
N_OPAMP = 200
N_MEMS = 400

#: Equivalence-only (CI smoke) population sizes.
N_OPAMP_SMOKE = 6
N_MEMS_SMOKE = 40


def _compare(name, bench, n, seed):
    """Scalar vs batched generation of one population; returns a row."""
    scalar, t_scalar = wall_time(
        generate_dataset, ScalarOnly(bench), n, seed,
        max_failures=max(10, n))
    batched, t_batched = wall_time(
        generate_dataset, bench, n, seed, max_failures=max(10, n))
    # The contract, asserted in every environment: the batched kernel
    # reproduces the scalar dataset exactly -- values and labels.
    equivalent = (np.array_equal(scalar.values, batched.values)
                  and np.array_equal(scalar.labels, batched.labels))
    assert equivalent, (
        "batched {} generation diverged from the scalar path".format(
            name))
    return {
        "n_instances": n,
        "seed": seed,
        "scalar_seconds": t_scalar,
        "batched_seconds": t_batched,
        "scalar_instances_per_minute": 60.0 * n / t_scalar,
        "batched_instances_per_minute": 60.0 * n / t_batched,
        "speedup": t_scalar / t_batched,
        "equivalent": equivalent,
    }


def run_experiment():
    """Execute both device comparisons; returns the JSON record."""
    smoke = bool(os.environ.get("REPRO_BENCH_NO_SPEEDUP"))
    n_opamp = N_OPAMP_SMOKE if smoke else N_OPAMP
    n_mems = N_MEMS_SMOKE if smoke else N_MEMS

    record = {
        "experiment": "bench_batched_simulation",
        "unix_time": time.time(),
        "cpus": cpu_count(),
        "equivalence_only": smoke,
        "devices": {},
    }
    record["devices"]["opamp"] = _compare(
        "opamp", OpAmpBench(), n_opamp, seed=42)
    record["devices"]["mems"] = _compare(
        "mems", AccelerometerBench(), n_mems, seed=7)

    rows = [(name, stats["n_instances"], stats["scalar_seconds"],
             stats["batched_seconds"],
             stats["batched_instances_per_minute"], stats["speedup"])
            for name, stats in record["devices"].items()]
    print_table(
        "R5: batched MNA kernel vs scalar generation "
        "({} CPUs available)".format(cpu_count()),
        ["device", "instances", "scalar s", "batched s",
         "batched inst/min", "speedup"],
        rows)

    out = os.environ.get("REPRO_BENCH_JSON")
    if out:
        with open(out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
        print("wrote {}".format(out))

    # The acceptance bar: single-core batching, so no CPU-count gate --
    # only the CI equivalence smoke skips it.
    if not smoke:
        speedup = record["devices"]["opamp"]["speedup"]
        assert speedup >= SPEEDUP_FLOOR, (
            "expected >= {:g}x from the batched kernel on {} op-amp "
            "instances; got {:.2f}x".format(SPEEDUP_FLOOR, n_opamp,
                                            speedup))
    return record


def bench_batched_simulation(benchmark):
    """pytest-benchmark entry point (records the whole comparison)."""
    run_once(benchmark, run_experiment)


if __name__ == "__main__":
    os.environ.setdefault(
        "REPRO_BENCH_JSON",
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "BENCH_sim.json"))
    run_experiment()
