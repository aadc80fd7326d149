"""Binary-parity conformance: the binning layer changes *nothing*.

``tests/floor/fixtures/binary_parity.json`` pins the decisions, counts
and costs a pre-binning revision produced for a deterministic traffic
pattern.  Every test here replays that traffic through today's code --
the floor at every (batch_size, n_jobs) combination on the default
(batched) slot path plus once through the scalar ``measure``, one
whole-population ``dispose`` (the offline evaluation path), the
per-request dispose-slice view and the live HTTP service -- and asserts
bit-identical output.  On top of the legacy surface, the degenerate
2-bin structure the fixtures' v1 artifact must induce is checked
explicitly: ``PASS`` count equals shipped, ``FAIL`` equals scrapped,
zero grade retests.

These tests are the refactor-safety contract named in the ISSUE: any
change that shifts a single binary decision fails loudly here.
"""

import asyncio
import json
import os

import numpy as np
import pytest

from repro.floor import TestFloor as Floor
from repro.floor import TestProgramArtifact as Artifact
from repro.floor.engine import disposition_counts
from repro.runtime.simulation import generate_instance_batches
from repro.service import (
    ArtifactRegistry,
    FloorService,
    TrafficPlan,
    offline_reference,
    run_load,
)

from tests.synthetic import SLOT_PATHS, SyntheticDut

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixtures")

#: Replay geometry -- must match tests/floor/fixtures/make_fixtures.py.
STREAM_N = 257
STREAM_SEED = 12345
BATCH_SIZES = (32, 101)
N_JOBS = (None, 2)

#: (slot path, batch_size, n_jobs) replays: the default path at every
#: batch size and worker count, the scalar-only oracle once.  Each
#: names the fixture run ``"<path>|b<batch_size>|j<n_jobs>"``.
CONFIGS = ([("batched", b, j) for b in BATCH_SIZES for j in N_JOBS]
           + [("scalar", 32, None)])

COUNT_KEYS = ("n_devices", "n_shipped", "n_scrapped", "n_retested",
              "n_guard", "n_yield_loss", "n_defect_escape")


@pytest.fixture(scope="module")
def fixture_data():
    with open(os.path.join(FIXTURE_DIR, "binary_parity.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def legacy_artifact():
    """The committed schema-v1 artifact the fixtures were built with."""
    return Artifact.load(
        os.path.join(FIXTURE_DIR, "v1_artifact.rtp"))


def assert_counts_match(report, expected):
    for key in COUNT_KEYS:
        assert getattr(report, key) == expected[key], key


class TestFloorParity:
    """run_simulated reproduces the pinned decisions at every config."""

    @pytest.mark.parametrize("path,batch_size,n_jobs", CONFIGS)
    def test_bit_identical_to_fixture(self, fixture_data, legacy_artifact,
                                      path, batch_size, n_jobs):
        key = "{}|b{}|j{}".format(path, batch_size, n_jobs or 1)
        expected = fixture_data["runs"][key]
        floor = Floor(legacy_artifact, batch_size=batch_size)
        report = floor.run_simulated(
            SLOT_PATHS[path](SyntheticDut()), STREAM_N, STREAM_SEED,
            n_jobs=n_jobs, keep_decisions=True)

        assert [int(d) for d in report.decisions] == expected["decisions"]
        assert_counts_match(report, expected["counts"])
        assert report.total_cost == expected["total_cost"]
        assert report.full_cost == expected["full_cost"]

    @pytest.mark.parametrize("path", ["scalar", "batched"])
    def test_degenerate_bins_relabel_the_binary_decision(
            self, fixture_data, legacy_artifact, path):
        """A v1 artifact bins as PASS/FAIL -- nothing more."""
        expected = fixture_data["runs"]["{}|b32|j1".format(path)]
        floor = Floor(legacy_artifact, batch_size=32)
        report = floor.run_simulated(
            SLOT_PATHS[path](SyntheticDut()), STREAM_N, STREAM_SEED,
            keep_decisions=True)

        assert report.bin_names == ("PASS", "FAIL")
        assert report.n_bin_retested == 0
        assert report.bin_counts == {
            "PASS": expected["counts"]["n_shipped"],
            "FAIL": expected["counts"]["n_scrapped"],
        }
        names = np.asarray(report.bin_names, dtype=object)[report.bins]
        shipped = np.asarray(report.decisions) == 1
        assert (names[shipped] == "PASS").all()
        assert (names[~shipped] == "FAIL").all()


class TestProgramParity:
    """The whole population in one dispose -- the offline evaluation
    path -- agrees with the pinned floor decisions."""

    def test_program_run_matches_fixture(self, fixture_data,
                                         legacy_artifact):
        expected = fixture_data["runs"]["scalar|b32|j1"]
        rows = np.vstack(list(generate_instance_batches(
            SyntheticDut(), STREAM_N, STREAM_SEED, batch_size=32)))

        outcome = Floor(legacy_artifact).dispose(rows)

        assert [int(d) for d in outcome.decisions] == expected["decisions"]
        assert outcome.cost == expected["total_cost"]
        assert outcome.full_cost == expected["full_cost"]
        assert outcome.n_retested == expected["counts"]["n_retested"]
        # The v1 artifact's degenerate profile relabels the binary
        # decision without moving a single decision, cost or count.
        assert outcome.n_bin_retested == 0
        assert outcome.bin_counts() == {
            "PASS": expected["counts"]["n_shipped"],
            "FAIL": expected["counts"]["n_scrapped"],
        }


class TestServiceSliceParity:
    """dispose() slicing -- the micro-batcher's result view -- is pinned."""

    def test_slice_counts_match_fixture(self, fixture_data,
                                        legacy_artifact):
        expected = fixture_data["service"]
        floor = Floor(legacy_artifact, batch_size=64)
        dut = SyntheticDut()
        rng = np.random.default_rng(9)
        chunk = np.vstack([dut.measure(dut.sample_parameters(rng))
                           for _ in range(40)])
        outcome = floor.dispose(chunk)

        assert [int(d) for d in outcome.decisions] == expected["decisions"]
        for name, (start, stop) in (("counts_first20", (0, 20)),
                                    ("counts_rest", (20, 40))):
            got = disposition_counts(outcome.decisions[start:stop],
                                     outcome.first_pass[start:stop],
                                     outcome.truth[start:stop])
            assert {k: int(v) for k, v in got.items()} == expected[name]


class TestHttpServiceParity:
    """The served decisions for the fixture traffic are pinned too."""

    @pytest.mark.parametrize("coalescing", [
        dict(max_batch_size=256, max_latency=0.02),
        dict(max_batch_size=8, max_latency=0.0005),
    ])
    def test_served_decisions_match_fixture(self, tmp_path, fixture_data,
                                            legacy_artifact, coalescing):
        path = str(tmp_path / "legacy.rtp")
        legacy_artifact.save(path)
        registry = ArtifactRegistry()
        registry.register("legacy", "1", path)
        plan = TrafficPlan("legacy", SyntheticDut(), STREAM_N,
                           seed=STREAM_SEED,
                           reference=offline_reference(legacy_artifact))

        async def main():
            service = FloorService(registry, **coalescing)
            await service.start("127.0.0.1", 0)
            try:
                return await run_load("127.0.0.1", service.port, [plan],
                                      n_clients=4, max_chunk=9, seed=3)
            finally:
                await service.stop()

        report = asyncio.run(asyncio.wait_for(main(), 60))
        assert report.equivalent
        (outcome,) = report.plans
        assert outcome.equivalent is True
        # Not just self-consistent: pinned against the committed fixture.
        expected = fixture_data["runs"]["scalar|b32|j1"]["decisions"]
        assert [int(d) for d in outcome.decisions] == expected
        assert outcome.bins is not None
        shipped = outcome.decisions == 1
        assert (np.asarray(outcome.bins, dtype=object)[shipped]
                == "PASS").all()
