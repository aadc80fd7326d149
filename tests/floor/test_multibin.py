"""Multi-bin disposition on the floor: grades, banks, drift charts.

The binary conformance suite (``test_conformance.py``) pins that the
binning layer changes nothing on legacy programs; this file covers the
other direction -- a *graded* program actually bins.  The grade bank's
statistical accuracy is deliberately not asserted (it is a model);
what is asserted is the plumbing around it: bin/decision consistency,
batch invariance, report aggregation, the boundary-retest routing
(via a constant-margin stub bank) and the per-bin drift charts.
"""

import copy
import os

import numpy as np
import pytest

from repro.core.metrics import GUARD
from repro.core.specs import GOOD
from repro.floor import TestFloor as Floor
from repro.floor import TestProgramArtifact as Artifact
from repro.floor import monitor as monitor_module
from repro.floor.monitor import DriftMonitor
from repro.rules import ToleranceProfile, ToleranceRule
from repro.runtime.simulation import generate_instance_batches

from tests.synthetic import SyntheticDut, make_synthetic_dataset

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixtures")
V1_PATH = os.path.join(FIXTURE_DIR, "v1_artifact.rtp")

GRADE_ORDER = ("FAST", "TYP", "SLOW", "REJECT")


def speed_profile():
    return ToleranceProfile(
        "speed-grades",
        [ToleranceRule("FAST", {"s0": (0.5, 1.0)}),
         ToleranceRule("TYP", {"s0": (-0.5, 0.5)}),
         ToleranceRule("SLOW", {"s0": (-1.0, -0.5)})],
        default_bin="REJECT")


def graded(train_bank):
    artifact = copy.copy(Artifact.load(V1_PATH))
    return artifact.with_profile(
        speed_profile(), train=make_synthetic_dataset(n=300, seed=71),
        train_bank=train_bank)


@pytest.fixture(scope="module")
def banked_artifact():
    return graded(train_bank=True)


@pytest.fixture(scope="module")
def profile_only_artifact():
    return graded(train_bank=False)


@pytest.fixture(scope="module")
def stream_rows():
    dut = SyntheticDut()
    return np.vstack(list(generate_instance_batches(
        dut, 200, 777, batch_size=64)))


class ConstantBank:
    """Every shipped device: same class, same top-2 margin."""

    def __init__(self, classes, index, margin):
        self.classes = tuple(classes)
        self._index = int(index)
        self._margin = float(margin)

    def predict_index(self, X):
        return np.full(X.shape[0], self._index)

    def margins(self, X):
        return np.full(X.shape[0], self._margin)


class TestGradedFloor:
    def test_bins_partition_the_population(self, profile_only_artifact,
                                           stream_rows):
        floor = Floor(profile_only_artifact)
        report = floor.run_stream([stream_rows], keep_decisions=True)
        assert report.bin_names == GRADE_ORDER
        assert sum(report.bin_counts.values()) == report.n_devices
        assert report.bin_counts["REJECT"] == report.n_scrapped
        grades = sum(report.bin_counts[g] for g in ("FAST", "TYP", "SLOW"))
        assert grades == report.n_shipped
        assert report.n_bin_retested == 0     # no bank -> no grade retests

    def test_bins_are_batch_invariant(self, banked_artifact, stream_rows):
        a = Floor(banked_artifact).run_stream(
            [stream_rows], batch_size=16, keep_decisions=True)
        b = Floor(banked_artifact).run_stream(
            [stream_rows], batch_size=101, keep_decisions=True)
        assert (a.decisions == b.decisions).all()
        assert (a.bins == b.bins).all()
        assert a.bin_counts == b.bin_counts

    def test_shipped_bins_match_truth_without_bank(
            self, profile_only_artifact, stream_rows):
        """Without a bank the floor grades from the full measurements."""
        floor = Floor(profile_only_artifact)
        outcome = floor.dispose(stream_rows)
        shipped = outcome.decisions == GOOD
        assert (outcome.bins[shipped]
                == outcome.truth_bins[shipped]).all()

    def test_floor_and_program_agree_on_bins(self, banked_artifact,
                                             stream_rows):
        """A streamed run bins exactly like one whole-population
        dispose (the offline evaluation path)."""
        floor = Floor(banked_artifact)
        floor_report = floor.run_stream(
            [stream_rows], batch_size=16, keep_decisions=True)
        whole = floor.dispose(stream_rows)
        assert (floor_report.decisions == whole.decisions).all()
        assert (floor_report.bins == whole.bins).all()

    def test_run_lots_aggregates_bin_counts(self, profile_only_artifact):
        floor = Floor(profile_only_artifact)
        report = floor.run_lots(SyntheticDut(), [(60, 1), (40, 2)])
        assert report.n_devices == 100
        per_lot = [lot.bin_counts for lot in report.lots]
        for name in GRADE_ORDER:
            assert report.bin_counts[name] == sum(
                counts[name] for counts in per_lot)
        assert report.n_bin_retested == sum(
            lot.n_bin_retested for lot in report.lots)

    def test_binary_report_has_no_bin_histogram_gaps(self,
                                                     profile_only_artifact):
        """Names sum even when a whole lot misses a grade entirely."""
        floor = Floor(profile_only_artifact)
        report = floor.run_lots(SyntheticDut(), [(5, 3)])
        assert set(report.bin_counts) == set(GRADE_ORDER)


class TestBoundaryRetestRouting:
    def stub_floor(self, profile_only_artifact, margin, boundary):
        artifact = copy.copy(profile_only_artifact)
        artifact.bank = ConstantBank(("FAST", "TYP", "SLOW"),
                                     index=2, margin=margin)
        return Floor(artifact, bin_boundary_margin=boundary)

    def test_confident_bank_grades_every_shipped_device(
            self, profile_only_artifact, stream_rows):
        floor = self.stub_floor(profile_only_artifact,
                                margin=10.0, boundary=0.5)
        outcome = floor.dispose(stream_rows)
        assert outcome.n_bin_retested == 0
        shipped = outcome.decisions == GOOD
        names = np.asarray(outcome.bin_names, dtype=object)[outcome.bins]
        assert (names[shipped] == "SLOW").all()

    def test_low_margin_routes_every_shipped_device_to_retest(
            self, profile_only_artifact, stream_rows):
        floor = self.stub_floor(profile_only_artifact,
                                margin=0.1, boundary=0.5)
        outcome = floor.dispose(stream_rows)
        shipped = outcome.decisions == GOOD
        assert outcome.n_bin_retested == int(np.sum(shipped))
        # ...and the retested devices carry their full-measurement grade
        assert (outcome.bins[shipped]
                == outcome.truth_bins[shipped]).all()

    def test_zero_boundary_margin_disables_retests(
            self, profile_only_artifact, stream_rows):
        floor = self.stub_floor(profile_only_artifact,
                                margin=0.0, boundary=0.0)
        outcome = floor.dispose(stream_rows)
        assert outcome.n_bin_retested == 0


class TestBinDriftCharts:
    def in_control_batch(self, baseline, n):
        kept = np.tile(np.asarray(baseline.mean), (n, 1))
        first = np.full(n, GOOD)
        return kept, first

    def test_bin_rate_excursion_fires_bin_alarm(self, banked_artifact,
                                                monkeypatch):
        baseline = banked_artifact.baseline
        assert baseline.bin_rates         # with_profile populated them
        monkeypatch.setattr(monitor_module, "MIN_DEVICES", 50)
        monitor = DriftMonitor(baseline)
        kept, first = self.in_control_batch(baseline, 200)
        # Every device lands in FAST: far above its training rate.
        bins = np.full(200, GRADE_ORDER.index("FAST"))
        alarms = monitor.update(kept, first, bins=bins,
                                bin_names=GRADE_ORDER)
        kinds = {a.kind for a in alarms}
        assert "bin-rate" in kinds
        subjects = {a.subject for a in alarms if a.kind == "bin-rate"}
        assert any("FAST" in s for s in subjects)

    def test_training_mix_raises_no_bin_alarm(self, banked_artifact,
                                              monkeypatch):
        baseline = banked_artifact.baseline
        monkeypatch.setattr(monitor_module, "MIN_DEVICES", 50)
        monitor = DriftMonitor(baseline)
        n = 400
        kept, first = self.in_control_batch(baseline, n)
        # Reproduce the training bin mix as closely as counts allow.
        bins = np.concatenate([
            np.full(int(round(baseline.bin_rates[name] * n)),
                    GRADE_ORDER.index(name))
            for name in GRADE_ORDER])[:n]
        alarms = monitor.update(kept[:len(bins)], first[:len(bins)],
                                bins=bins, bin_names=GRADE_ORDER)
        assert not [a for a in alarms if a.kind == "bin-rate"]

    def test_legacy_baseline_charts_nothing_per_bin(self,
                                                    profile_only_artifact,
                                                    monkeypatch):
        """A baseline without bin rates never raises bin alarms."""
        baseline = copy.copy(profile_only_artifact.baseline)
        baseline = type(baseline)(
            names=baseline.names, mean=baseline.mean, std=baseline.std,
            guard_rate=baseline.guard_rate, n_train=baseline.n_train,
            bin_rates=None)
        monkeypatch.setattr(monitor_module, "MIN_DEVICES", 10)
        monitor = DriftMonitor(baseline)
        kept = np.tile(np.asarray(baseline.mean), (100, 1))
        alarms = monitor.update(kept, np.full(100, GUARD),
                                bins=np.zeros(100, dtype=int),
                                bin_names=("PASS", "FAIL"))
        assert all(a.kind != "bin-rate" for a in alarms)
        # The window still tracks the observed mix for operators.
        assert monitor.bin_rates_window() == {"PASS": 1.0, "FAIL": 0.0}
