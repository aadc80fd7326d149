"""Experiment R7 -- the sharded data plane: generation and training.

Exercises the two promises of :mod:`repro.data` on the op-amp bench
(paper Fig. 1 populations) and records the evidence:

1. **Resumable shard-append generation.**  A population is generated
   cold into a shard store, then a *shorter* store is extended to the
   same size.  The extension must be file-for-file hash-identical to
   the cold store (asserted unconditionally) while simulating only the
   missing suffix -- its manifest event covers exactly the appended
   rows, and its instances/min come from the shared
   :class:`~repro.process.montecarlo.GenerationReport` accounting.
2. **Out-of-core training.**  The guard-banded strict/loose SVM pair
   is fitted twice: in RAM on the materialized
   :class:`~repro.process.dataset.SpecDataset`, and out-of-core on the
   memory-mapped :class:`~repro.data.ShardedSpecDataset` with a small
   kernel-column budget (the SMO precompute limit is lowered for the
   comparison so the bounded column cache actually serves the fit).
   Alphas, intercepts and per-device decisions must match **bitwise**
   -- asserted unconditionally in every environment.

The speed bar (extension beating cold regeneration wall-clock) is
measured only on hosts with >= 4 CPUs; the equivalence assertions
above run everywhere.

Runnable directly (``python benchmarks/bench_dataset.py``) or through
pytest-benchmark like every other experiment here.
"""

import os
import shutil
import tempfile

if __name__ == "__main__":
    # Allow `python benchmarks/bench_dataset.py` without an installed
    # package or PYTHONPATH (pytest gets these from pyproject.toml's
    # pythonpath setting instead).
    import pathlib
    import sys

    _root = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_root), str(_root / "src")]

import numpy as np

from benchmarks.harness import print_table, run_once, wall_time
from repro.data import ShardedSpecDataset, fit_guard_banded, generate_shards
from repro.data.generate import extend_shards
from repro.learn import smo
from repro.opamp import OpAmpBench
from repro.runtime import cpu_count

#: Acceptance bar: extending N -> M must beat cold-generating M by at
#: least the fraction of rows it never re-simulates (with slack).
EXTEND_SPEEDUP_FLOOR = 1.5

#: Sizes: cold store, prefix store, shard width.
N, N_PREFIX, SHARD_ROWS = 600, 300, 128

#: Kernel-column budget for the out-of-core fit: a few 64-column
#: blocks, far below the full Gram -- eviction pressure is the point.
COLUMN_BUDGET = 4 << 20


def _generation(root, n, n_prefix, shard_rows, seed):
    """Cold vs resumed generation; asserts hash identity, returns stats."""
    bench = OpAmpBench()
    cold_root = os.path.join(root, "cold")
    warm_root = os.path.join(root, "warm")
    cold, t_cold = wall_time(
        generate_shards, cold_root, bench, n, seed, shard_rows=shard_rows)
    generate_shards(warm_root, bench, n_prefix, seed,
                    shard_rows=shard_rows)
    warm, t_extend = wall_time(
        extend_shards, warm_root, bench, n)

    # The resumability contract, asserted in every environment: the
    # extended store is file-for-file hash-identical to the cold one.
    assert warm.shard_hashes() == cold.shard_hashes(), (
        "extending {} -> {} rows diverged from cold generation".format(
            n_prefix, n))
    event = warm.manifest.events[-1]
    assert event["op"] == "extend" and event["start"] == n_prefix, (
        "extension event should cover exactly the appended suffix")
    return {
        "n_rows": n,
        "n_prefix": n_prefix,
        "shard_rows": shard_rows,
        "n_shards": cold.n_shards,
        "cold_seconds": t_cold,
        "extend_seconds": t_extend,
        "cold_instances_per_minute":
            cold.manifest.events[-1]["instances_per_minute"],
        "extend_instances_per_minute": event["instances_per_minute"],
        "extend_speedup": t_cold / t_extend if t_extend > 0 else
            float("inf"),
        "hash_identical": True,
    }


def _training(store):
    """In-RAM vs out-of-core guard-banded fit; asserts bit identity."""
    dataset = store.to_dataset()
    features = list(store.names[:4])
    # Lower the precompute limit so the fit actually runs on streamed
    # kernel columns from the bounded cache (the whole point of the
    # out-of-core path); restored before returning.
    limit = smo.PRECOMPUTE_LIMIT
    smo.PRECOMPUTE_LIMIT = 16
    try:
        ram, t_ram = wall_time(
            fit_guard_banded, dataset, features, column_budget=None)
        ooc, t_ooc = wall_time(
            fit_guard_banded, store, features,
            column_budget=COLUMN_BUDGET)
    finally:
        smo.PRECOMPUTE_LIMIT = limit

    # The out-of-core contract, asserted in every environment: alphas,
    # intercepts and decisions are bitwise equal to the in-RAM fit.
    for attr in ("_strict", "_loose"):
        model_ram, model_ooc = getattr(ram, attr), getattr(ooc, attr)
        assert (model_ram.alpha_.tobytes()
                == model_ooc.alpha_.tobytes()), (
            "{} alphas diverged out-of-core".format(attr))
        assert model_ram.intercept_ == model_ooc.intercept_
    decisions_ram = ram.predict_dataset(dataset)
    decisions_ooc = ooc.predict_dataset(store.to_dataset())
    assert np.array_equal(decisions_ram, decisions_ooc)
    return {
        "n_rows": store.n_rows,
        "n_features": len(features),
        "column_budget_bytes": COLUMN_BUDGET,
        "in_ram_seconds": t_ram,
        "out_of_core_seconds": t_ooc,
        "alphas_bitwise_equal": True,
        "decisions_bitwise_equal": True,
    }


def run_experiment():
    """Execute both measurements; returns the structured results."""
    record = {"cpus": cpu_count()}
    root = tempfile.mkdtemp(prefix="repro-bench-dataset-")
    try:
        generation = _generation(root, N, N_PREFIX, SHARD_ROWS, seed=42)
        record["generation"] = generation
        record["training"] = _training(
            ShardedSpecDataset(os.path.join(root, "cold")))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    print_table(
        "R7: sharded data plane ({} CPUs available)".format(cpu_count()),
        ["stage", "rows", "seconds", "inst/min", "equivalent"],
        [("cold generate", N, generation["cold_seconds"],
          generation["cold_instances_per_minute"], "hash"),
         ("extend {}->{}".format(N_PREFIX, N), N - N_PREFIX,
          generation["extend_seconds"],
          generation["extend_instances_per_minute"], "hash"),
         ("fit in-RAM", N, record["training"]["in_ram_seconds"], "-",
          "bitwise"),
         ("fit out-of-core", N, record["training"]["out_of_core_seconds"],
          "-", "bitwise")])

    # Speed bar: resuming from the prefix must beat cold regeneration.
    # Timing-sensitive, so gated to real multi-core hosts.
    if cpu_count() >= 4:
        speedup = record["generation"]["extend_speedup"]
        assert speedup >= EXTEND_SPEEDUP_FLOOR, (
            "expected extending {} -> {} rows to run >= {:g}x faster "
            "than cold generation; got {:.2f}x".format(
                N_PREFIX, N, EXTEND_SPEEDUP_FLOOR, speedup))
    return record


def bench_dataset(benchmark):
    """pytest-benchmark entry point (records the whole comparison)."""
    run_once(benchmark, run_experiment)


if __name__ == "__main__":
    run_experiment()
