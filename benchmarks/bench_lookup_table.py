"""Experiment D1 -- tester deployment (Section 3.3).

The paper proposes shipping the compacted-test acceptance region to
the tester as a grid lookup table "with little additional cost".  This
benchmark quantifies that: table size in tester memory, agreement with
the live SVM pair, and classification throughput of the table against
the live model.
"""

import time

from benchmarks.harness import datasets, print_table, run_once
from repro.core.compaction import TestCompactor as Compactor
from repro.mems import tests_at_temperature
from repro.tester import LookupTable


def bench_lookup_table_deployment(benchmark):
    """Build and validate the tester lookup table for the MEMS flow."""
    train, test = datasets("mems")
    eliminated = tests_at_temperature(-40) + tests_at_temperature(80)
    compactor = Compactor(guard_band=0.03)
    model, _ = compactor.evaluate_subset(train, test, eliminated)

    lut = run_once(benchmark, lambda: LookupTable(model))

    values = test.project(lut.feature_names).values
    t0 = time.perf_counter()
    lut.classify(values)
    t_table = time.perf_counter() - t0
    t0 = time.perf_counter()
    model.predict_measurements(values)
    t_model = time.perf_counter() - t0

    print_table(
        "Tester lookup table (MEMS, hot+cold eliminated)",
        ["quantity", "value"],
        [("kept tests", len(lut.feature_names)),
         ("grid resolution", lut.resolution),
         ("cells", lut.n_cells),
         ("tester memory (kB)", lut.memory_bytes() / 1024.0),
         ("agreement with live model %",
          100 * lut.agreement_with_model(test)),
         ("table classify time (ms / 1000 devices)", 1e3 * t_table),
         ("live model time (ms / 1000 devices)", 1e3 * t_model),
         ("speedup", t_model / max(t_table, 1e-12))])

    assert lut.agreement_with_model(test) > 0.9
    assert lut.memory_bytes() < 1_000_000  # fits in tester memory
    assert t_table < t_model  # the point of the table
