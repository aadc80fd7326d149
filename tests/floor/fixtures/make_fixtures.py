"""Regenerate the binary-parity conformance fixtures.

Run from the repo root against a known-good revision::

    PYTHONPATH=src:. python tests/floor/fixtures/make_fixtures.py

Produces, in this directory:

``v1_artifact.rtp``
    A schema-v1 test-program artifact saved by the pre-binning code
    (committed once; newer schema versions must keep loading it as the
    degenerate 2-bin program).
``binary_parity.json``
    The exact floor decisions, lot-report counts and service-level
    count dicts for a deterministic synthetic traffic pattern, at
    every (slot path, batch_size, n_jobs) combination; the conformance
    suite replays a subset.  The suite asserts today's code reproduces these
    *bit-identically* -- the refactor-safety contract for the binary
    disposition path.

The fixtures are committed, not rebuilt in CI: their whole point is to
pin the behaviour of a past revision.  Regenerate only when the
contract itself is deliberately changed, and say so in the PR.
"""

import json
import os
import sys

import numpy as np

FIXTURE_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(FIXTURE_DIR, "..", "..", ".."))

from repro.core.costmodel import TestCostModel  # noqa: E402
from repro.core.pipeline import CompactionPipeline  # noqa: E402
from repro.floor import TestFloor, TestProgramArtifact  # noqa: E402
from repro.learn import SVC  # noqa: E402

from tests.synthetic import SLOT_PATHS, SyntheticDut  # noqa: E402
from tests.synthetic import make_synthetic_dataset  # noqa: E402

#: The traffic/deploy geometry the conformance suite replays.
TRAIN_N = 300
TEST_N = 200
STREAM_N = 257  # deliberately not a multiple of any batch size
STREAM_SEED = 12345
BATCH_SIZES = (32, 101)
N_JOBS = (None, 2)


class FixedSVCFactory:
    """Picklable fixed-hyperparameter factory (deterministic, fast)."""

    def __call__(self):
        return SVC(C=50.0, gamma="scale")


def build_artifact():
    train = make_synthetic_dataset(n=TRAIN_N, seed=71)
    test = make_synthetic_dataset(n=TEST_N, seed=72)
    pipeline = CompactionPipeline(tolerance=0.02, guard_band=0.06,
                                  model_factory=FixedSVCFactory())
    _, artifact = pipeline.deploy(
        train, test, cost_model=TestCostModel.uniform(train.names),
        device="synthetic", train_seed=71)
    return artifact


def main():
    artifact = build_artifact()
    artifact.save(os.path.join(FIXTURE_DIR, "v1_artifact.rtp"))

    dut = SyntheticDut()
    runs = {}
    for path, wrap in sorted(SLOT_PATHS.items()):
        for batch_size in BATCH_SIZES:
            for n_jobs in N_JOBS:
                floor = TestFloor(artifact, batch_size=batch_size)
                report = floor.run_simulated(
                    wrap(dut), STREAM_N, STREAM_SEED, n_jobs=n_jobs,
                    keep_decisions=True)
                key = "{}|b{}|j{}".format(path, batch_size,
                                          n_jobs or 1)
                runs[key] = {
                    "decisions": [int(d) for d in report.decisions],
                    "counts": {
                        "n_devices": report.n_devices,
                        "n_shipped": report.n_shipped,
                        "n_scrapped": report.n_scrapped,
                        "n_retested": report.n_retested,
                        "n_guard": report.n_guard,
                        "n_yield_loss": report.n_yield_loss,
                        "n_defect_escape": report.n_defect_escape,
                    },
                    "total_cost": report.total_cost,
                    "full_cost": report.full_cost,
                }

    # The per-request service view: dispose() slices for two chunks.
    floor = TestFloor(artifact, batch_size=64)
    rng = np.random.default_rng(9)
    chunk = np.vstack([dut.measure(dut.sample_parameters(rng))
                       for _ in range(40)])
    outcome = floor.dispose(chunk)
    service = {
        "decisions": [int(d) for d in outcome.decisions],
        "counts_first20": {
            k: int(v) for k, v in _counts(outcome, 0, 20).items()},
        "counts_rest": {
            k: int(v) for k, v in _counts(outcome, 20, 40).items()},
    }

    payload = {
        "stream": {"n": STREAM_N, "seed": STREAM_SEED},
        "runs": runs,
        "service": service,
    }
    out = os.path.join(FIXTURE_DIR, "binary_parity.json")
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    print("wrote", out)
    first = next(iter(runs.values()))
    if any(run != first for run in runs.values()):
        raise SystemExit("fixture runs disagree across path/batch/jobs")
    print("all {} runs identical; counts: {}".format(
        len(runs), first["counts"]))


def _counts(outcome, start, stop):
    from repro.floor.engine import disposition_counts

    return disposition_counts(outcome.decisions[start:stop],
                              outcome.first_pass[start:stop],
                              outcome.truth[start:stop])


if __name__ == "__main__":
    main()
