"""Streaming test-floor engine tests.

The load-bearing property is the determinism contract: identical
decisions at any batch size, any stream framing, any worker count and
across a save/load into a fresh process.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ArtifactError, CompactionError
from repro.floor import TestFloor as Floor
from repro.floor import RETEST_ACCEPT, RETEST_FULL, RETEST_REJECT
from repro.floor import TestProgramArtifact as Artifact

from tests.synthetic import SyntheticDut

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def lookup_artifact(artifact):
    """A copy of the package artifact with a 21-point lookup table."""
    return artifact.with_lookup(resolution=21)


class TestAgainstTestProgram:
    """A streamed lot dispositions exactly like the whole test program
    applied to the population in one batch."""

    @pytest.mark.parametrize(
        "policy", [RETEST_FULL, RETEST_ACCEPT, RETEST_REJECT])
    def test_decisions_and_cost_match(self, artifact, populations,
                                      policy):
        _, test = populations
        floor = Floor(artifact, retest_policy=policy)
        outcome = floor.dispose(test.values)
        report = floor.run_dataset(test, batch_size=7,
                                   keep_decisions=True)

        assert np.array_equal(report.decisions, outcome.decisions)
        assert report.n_retested == outcome.n_retested
        assert report.total_cost == pytest.approx(outcome.cost)
        assert report.full_cost == pytest.approx(outcome.full_cost)
        counts = outcome.counts()
        assert report.n_yield_loss == counts["n_yield_loss"]
        assert report.n_defect_escape == counts["n_defect_escape"]
        # n_guard counts *first-pass* guard devices, before retest.
        assert report.n_guard == int(np.sum(outcome.first_pass == 0))

    def test_report_counts_are_consistent(self, artifact, populations):
        _, test = populations
        report = Floor(artifact).run_dataset(test)
        assert report.n_devices == len(test)
        assert report.n_shipped + report.n_scrapped == report.n_devices
        assert report.wall_seconds > 0
        assert report.devices_per_minute > 0


class TestBatchInvariance:
    @pytest.mark.parametrize("served, use_lookup", [
        ("artifact", False),
        ("lookup_artifact", True),
    ], ids=["live", "lookup"])
    def test_decisions_identical_at_any_batch_size(self, request,
                                                   populations, served,
                                                   use_lookup):
        _, test = populations
        floor = Floor(request.getfixturevalue(served),
                      use_lookup=use_lookup)
        reference = floor.run_dataset(test, keep_decisions=True)
        for batch_size in (7, 64, 100000):
            report = floor.run_dataset(test, batch_size=batch_size,
                                       keep_decisions=True)
            assert np.array_equal(report.decisions, reference.decisions)
            assert report.total_cost == reference.total_cost
            assert report.n_guard == reference.n_guard

    def test_stream_framing_is_irrelevant(self, artifact, populations):
        """Row-by-row, chunked and whole-array streams agree."""
        _, test = populations
        floor = Floor(artifact)
        whole = floor.run_stream([test.values], batch_size=32,
                                 keep_decisions=True)
        by_row = floor.run_stream(iter(test.values), batch_size=32,
                                  keep_decisions=True)
        ragged = floor.run_stream(
            [test.values[:10], test.values[10:11], test.values[11:200],
             test.values[200:]],
            batch_size=32, keep_decisions=True)
        assert np.array_equal(whole.decisions, by_row.decisions)
        assert np.array_equal(whole.decisions, ragged.decisions)

    def test_lookup_floor_matches_lookup_program(self, lookup_artifact,
                                                 populations):
        _, test = populations
        floor = Floor(lookup_artifact)           # lookup auto-selected
        outcome = floor.dispose(test.values)
        kept = test.project(lookup_artifact.kept).values
        assert np.array_equal(outcome.first_pass,
                              lookup_artifact.lookup.classify(kept))

    def test_empty_stream_yields_empty_report(self, artifact):
        report = Floor(artifact).run_stream([], keep_decisions=True)
        assert report.n_devices == 0
        assert report.decisions.size == 0
        assert report.cost_per_device == 0.0


class TestSimulatedTraffic:
    def test_worker_count_is_irrelevant(self, artifact):
        floor = Floor(artifact, monitor=False)
        serial = floor.run_simulated(SyntheticDut(), 300, seed=11,
                                     keep_decisions=True)
        parallel = floor.run_simulated(SyntheticDut(), 300, seed=11,
                                       n_jobs=2, keep_decisions=True)
        assert np.array_equal(serial.decisions, parallel.decisions)
        assert serial.total_cost == parallel.total_cost

    def test_batch_size_is_irrelevant_for_simulated(self, artifact):
        floor = Floor(artifact, monitor=False)
        a = floor.run_simulated(SyntheticDut(), 200, seed=3,
                                batch_size=17, keep_decisions=True)
        b = floor.run_simulated(SyntheticDut(), 200, seed=3,
                                batch_size=101, keep_decisions=True)
        assert np.array_equal(a.decisions, b.decisions)

    def test_matches_materialized_dataset(self, artifact):
        """Streamed simulation equals generate_dataset + run_dataset."""
        from repro.process.montecarlo import generate_dataset

        dut = SyntheticDut()
        floor = Floor(artifact, monitor=False)
        streamed = floor.run_simulated(dut, 150, seed=21,
                                       keep_decisions=True)
        dataset = generate_dataset(dut, 150, seed=21)
        materialized = floor.run_dataset(dataset, keep_decisions=True)
        assert np.array_equal(streamed.decisions,
                              materialized.decisions)

    def test_run_lots_schedule(self, artifact):
        floor = Floor(artifact, monitor=False)
        report = floor.run_lots(SyntheticDut(), [(120, 5), (80, 6)])
        assert len(report.lots) == 2
        assert report.lots[0].lot == "lot0(seed=5)"
        assert report.n_devices == 200
        assert report.n_devices == sum(
            lot.n_devices for lot in report.lots)
        assert len(report.rows()) == 2

    def test_fresh_process_reload_identical_decisions(self, tmp_path,
                                                      artifact):
        """The acceptance-criteria round trip: deploy, reload in a new
        interpreter, disposition the same simulated stream."""
        path = tmp_path / "program.rtp"
        artifact.save(path)
        floor = Floor(artifact, monitor=False)
        local = floor.run_simulated(SyntheticDut(), 250, seed=17,
                                    batch_size=64, keep_decisions=True)

        out = tmp_path / "decisions.npy"
        script = (
            "import sys\n"
            "sys.path[:0] = [{root!r}, {src!r}]\n"
            "import numpy as np\n"
            "from repro.floor import TestFloor\n"
            "from tests.synthetic import SyntheticDut\n"
            "floor = TestFloor({path!r}, monitor=False)\n"
            "report = floor.run_simulated(SyntheticDut(), 250, seed=17,\n"
            "                             batch_size=101,\n"
            "                             keep_decisions=True)\n"
            "np.save({out!r}, report.decisions)\n"
        ).format(root=str(REPO_ROOT), src=str(REPO_ROOT / "src"),
                 path=str(path), out=str(out))
        subprocess.run([sys.executable, "-c", script], check=True,
                       timeout=300)
        fresh = np.load(out)
        assert np.array_equal(local.decisions, fresh)


class TestLotEndAlarms:
    def test_transient_drift_rolls_out_of_the_report(self, artifact,
                                                     populations):
        """A mid-lot excursion that has left the rolling window must
        not be reported as active at lot end."""
        from repro.floor import DriftMonitor

        _, test = populations
        drifted = test.values.copy()
        kept_idx = [test.specifications.index(n)
                    for n in artifact.kept]
        drifted[:, kept_idx] += 5.0      # far off the baseline
        monitor = DriftMonitor(artifact.baseline, window_batches=3,
                               min_devices=50)
        floor = Floor(artifact, monitor=monitor)

        # Drift only, never recovered: alarms at lot end.
        report = floor.run_stream([drifted], batch_size=50)
        assert any(a.kind == "spec-mean" for a in report.alarms)

        # Drifted head, healthy tail long enough to roll the window:
        # lot ends in control, so no active alarms.
        mixed = np.vstack([drifted[:100], test.values, test.values])
        report = floor.run_stream([mixed], batch_size=50)
        assert report.alarms == ()


class TestNonFiniteRows:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_cannot_blind_the_drift_monitor(
            self, artifact, populations, bad):
        """Regression: a NaN row used to enter the monitor window,
        turning every windowed mean NaN -- so drifted traffic raised
        no alarm until that row rolled out of the window."""
        from repro.floor import DriftMonitor

        _, test = populations
        kept_idx = [test.specifications.index(n)
                    for n in artifact.kept]
        monitor = DriftMonitor(artifact.baseline, window_batches=8,
                               min_devices=50)
        floor = Floor(artifact, monitor=monitor)

        poisoned = test.values[:16].copy()
        poisoned[3, kept_idx[0]] = bad
        with pytest.raises(CompactionError, match="finite"):
            floor.dispose(poisoned)
        assert monitor.n_seen == 0
        assert monitor.chart_state()["window_devices"] == 0

        drifted = test.values.copy()
        drifted[:, kept_idx[0]] += 5.0
        floor.dispose(drifted)
        assert any(a.kind == "spec-mean" for a in monitor.alarms())


class TestConfiguration:
    def test_unknown_policy_rejected(self, artifact):
        with pytest.raises(CompactionError, match="policy"):
            Floor(artifact, retest_policy="coin_flip")

    def test_bad_batch_size_rejected(self, artifact):
        with pytest.raises(CompactionError, match="batch_size"):
            Floor(artifact, batch_size=0)

    def test_lookup_required_but_absent(self, artifact):
        assert artifact.lookup is None
        with pytest.raises(ArtifactError, match="no lookup"):
            Floor(artifact, use_lookup=True)

    def test_wrong_row_width_rejected(self, artifact):
        floor = Floor(artifact)
        with pytest.raises(CompactionError, match="measurements"):
            floor.run_stream([np.zeros((4, 2))])

    def test_incompatible_dut_rejected(self, artifact):
        dut = SyntheticDut(n_specs=4)
        floor = Floor(artifact)
        with pytest.raises(ArtifactError):
            floor.run_simulated(dut, 10, seed=0)

    def test_incompatible_dataset_rejected(self, artifact):
        """An offline population must carry the program's spec set."""
        from tests.synthetic import make_synthetic_dataset

        narrow = make_synthetic_dataset(n=20, n_specs=4, seed=3)
        with pytest.raises(ArtifactError):
            Floor(artifact).run_dataset(narrow)

    def test_repr_mentions_mode(self, artifact):
        text = repr(Floor(artifact))
        assert "live model" in text and "full_retest" in text


class TestThroughputAccounting:
    def test_wall_time_excludes_stream_generation(self, artifact,
                                                  populations):
        """devices_per_minute measures the floor, not the traffic source.

        Regression test: wall_seconds used to clock the whole stream
        loop, so a slow generator (circuit simulation, network
        transport) deflated the reported disposition throughput.  The
        stub below sleeps 150ms across three chunks while the actual
        disposition work is a few milliseconds; the report must see
        only the latter.
        """
        train, _ = populations
        rows = train.values[:120]

        def slow_stream():
            for start in (0, 40, 80):
                time.sleep(0.05)
                yield rows[start:start + 40]

        report = Floor(artifact).run_stream(slow_stream(), batch_size=40)
        assert report.n_devices == 120
        assert 0.0 < report.wall_seconds < 0.10
        assert report.devices_per_minute > 120 * 60.0 / 0.10
