"""Experiment R6 -- one-vs-rest grade bank vs K independent cold fits.

A K-bin disposition program needs K "grade g vs rest" SVCs over the
same training rows.  :class:`repro.learn.ovr.OneVsRestSVCBank` shares
the (n, n) RBF Gram matrix across the K fits and warm-starts each SMO
solve from the previous bin's dual vector; this experiment measures
the combined effect against the unoptimized construction (K separate
``SVC`` fits, each building its own Gram from a cold start).

Equivalence is asserted unconditionally in every environment: the
bank's argmax prediction must equal the cold construction's argmax on
a held-out query set, device for device -- the bank is an
*optimization*, never a model change.  The speedup bar is skipped
under ``REPRO_BENCH_NO_SPEEDUP=1`` (the CI equivalence smoke, which
also shrinks the training set); like the batched-kernel bench it runs
on a single core, so it is not gated on CPU count.

The grade geometry is corner-clustered: each grade's devices scatter
around a distinct process-corner centroid in measurement space (speed
grades track process corners, and corners cluster).  That puts the
fits in the regime the bank targets -- moderate SMO iteration counts,
so the K-fold repeated Gram build is a meaningful share of the cold
construction's cost.  Slab-shaped grade boundaries (pure single-spec
threshold cuts) are SMO-bound instead and gain little; the floor
never *needs* the bank there, since truth-bin assignment is exact and
free when grades are plain rule cuts over kept measurements.

Runnable directly (``python benchmarks/bench_multibin.py``) or
through pytest-benchmark like every other experiment here.
"""

import json
import os
import time

if __name__ == "__main__":
    import pathlib
    import sys

    _root = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_root), str(_root / "src")]

import numpy as np

from benchmarks.harness import print_table, run_once, wall_time
from repro.learn.ovr import OneVsRestSVCBank
from repro.learn.svm import SVC
from repro.runtime import cpu_count

#: Acceptance bar: bank fit vs K cold fits, single core.
SPEEDUP_FLOOR = 1.3

#: Full-mode geometry.
N_TRAIN = 800
N_QUERY = 300
N_FEATURES = 24
GRADES = ("FAST", "TYP", "SLOW", "REJECT")

#: Centroid scatter multiple: how far apart the grade corners sit.
CORNER_SEPARATION = 2.0

#: Equivalence-only (CI smoke) training size.
N_TRAIN_SMOKE = 160


def _factory():
    return SVC(C=10.0, gamma="scale")


def make_problem(n_train, n_query, seed=5):
    """Corner-clustered grade rows: (X, y, query).

    One centroid per grade, unit scatter around it -- each device's
    measurements reflect its process corner, queries drawn from the
    same mixture.
    """
    rng = np.random.default_rng(seed)
    per = n_train // len(GRADES)
    centers = rng.normal(0.0, 1.0,
                         (len(GRADES), N_FEATURES)) * CORNER_SEPARATION
    X = np.vstack([rng.normal(centers[k], 1.0, (per, N_FEATURES))
                   for k in range(len(GRADES))])
    y = np.asarray(GRADES, dtype=object).repeat(per)
    picks = rng.integers(0, len(GRADES), n_query)
    query = rng.normal(centers[picks], 1.0, (n_query, N_FEATURES))
    return X, y, query


def cold_fits(X, y, query):
    """The unoptimized construction: K cold SVCs, K Gram builds."""
    scores = np.empty((query.shape[0], len(GRADES)))
    for k, grade in enumerate(GRADES):
        model = _factory()
        model.fit(X, np.where(y == grade, 1.0, -1.0))
        scores[:, k] = model.decision_function(query)
    return scores.argmax(axis=1)


def bank_fit(X, y, query):
    """The bank: one shared Gram, warm-started SMO chain."""
    bank = OneVsRestSVCBank(GRADES, model_factory=_factory)
    bank.fit(X, y)
    return bank.predict_index(query)


def run_experiment():
    """Fit both constructions, compare; returns the JSON record."""
    smoke = bool(os.environ.get("REPRO_BENCH_NO_SPEEDUP"))
    n_train = N_TRAIN_SMOKE if smoke else N_TRAIN
    X, y, query = make_problem(n_train, N_QUERY)

    cold_idx, t_cold = wall_time(cold_fits, X, y, query)
    bank_idx, t_bank = wall_time(bank_fit, X, y, query)

    # The contract, asserted in every environment: identical grades.
    equivalent = bool(np.array_equal(cold_idx, bank_idx))
    assert equivalent, (
        "the shared-Gram/warm-start bank diverged from K cold "
        "one-vs-rest fits")

    record = {
        "experiment": "bench_multibin",
        "unix_time": time.time(),
        "cpus": cpu_count(),
        "equivalence_only": smoke,
        "n_train": n_train,
        "n_query": N_QUERY,
        "n_grades": len(GRADES),
        "cold_seconds": t_cold,
        "bank_seconds": t_bank,
        "speedup": t_cold / t_bank,
        "equivalent": equivalent,
    }

    print_table(
        "R6: OvR grade bank vs {} cold fits "
        "({} train rows, {} CPUs available)".format(
            len(GRADES), n_train, cpu_count()),
        ["construction", "seconds", "fits/min"],
        [("K cold SVCs", t_cold, 60.0 / t_cold),
         ("shared bank", t_bank, 60.0 / t_bank)])
    print("speedup: {:.2f}x".format(record["speedup"]))

    out = os.environ.get("REPRO_BENCH_JSON")
    if out:
        with open(out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
        print("wrote {}".format(out))

    if not smoke:
        assert record["speedup"] >= SPEEDUP_FLOOR, (
            "expected >= {:g}x from Gram sharing + warm starts on {} "
            "rows x {} grades; got {:.2f}x".format(
                SPEEDUP_FLOOR, n_train, len(GRADES),
                record["speedup"]))
    return record


def bench_multibin(benchmark):
    """pytest-benchmark entry point (records the whole comparison)."""
    run_once(benchmark, run_experiment)


if __name__ == "__main__":
    run_experiment()
