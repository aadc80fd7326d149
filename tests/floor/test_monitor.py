"""Drift-monitor control-chart tests."""

import numpy as np
import pytest

from repro.core.metrics import GUARD
from repro.core.specs import GOOD
from repro.errors import CompactionError
from repro.floor import DriftBaseline, DriftMonitor
from repro.floor import monitor as monitor_module
from repro.floor import TestFloor as Floor

from tests.synthetic import make_synthetic_dataset


def _baseline(guard_rate=0.05, n_train=400, seed=1):
    train = make_synthetic_dataset(n=n_train, seed=seed)
    return DriftBaseline.from_dataset(train, train.names[:3],
                                      guard_rate=guard_rate), train


def _stream(rng, baseline, n, shift=0.0):
    """In-distribution batch shifted by ``shift`` training sigmas."""
    mean = np.asarray(baseline.mean)
    std = np.asarray(baseline.std)
    return rng.normal(mean + shift * std, std, (n, len(baseline.names)))


class TestBaseline:
    def test_from_dataset_statistics(self):
        baseline, train = _baseline()
        kept = train.project(train.names[:3]).values
        assert baseline.names == train.names[:3]
        assert np.allclose(baseline.mean, kept.mean(axis=0))
        assert np.allclose(baseline.std, kept.std(axis=0, ddof=1))
        assert baseline.n_train == len(train)

    def test_needs_two_devices(self):
        train = make_synthetic_dataset(n=1, seed=0)
        with pytest.raises(CompactionError, match="two"):
            DriftBaseline.from_dataset(train, train.names[:2], 0.0)


class TestCharts:
    def test_in_distribution_stream_stays_quiet(self):
        baseline, _ = _baseline()
        monitor = DriftMonitor(baseline)
        rng = np.random.default_rng(7)
        for _ in range(20):
            batch = _stream(rng, baseline, 100)
            first = np.full(100, GOOD)
            first[:5] = GUARD          # ~ the 5% baseline guard rate
            monitor.observe(batch, first)
            alarms = monitor.alarms()
        assert alarms == ()

    def test_mean_shift_fires_the_spec_chart(self):
        baseline, _ = _baseline()
        monitor = DriftMonitor(baseline)
        rng = np.random.default_rng(8)
        alarms = ()
        for _ in range(10):
            batch = _stream(rng, baseline, 200, shift=1.0)
            monitor.observe(batch, np.full(200, GOOD))
            alarms = monitor.alarms()
        kinds = {a.kind for a in alarms}
        assert "spec-mean" in kinds
        spec_alarm = next(a for a in alarms if a.kind == "spec-mean")
        assert spec_alarm.subject in baseline.names
        assert abs(spec_alarm.z_score) > spec_alarm.threshold
        assert "recalibrate" in spec_alarm.recommendation
        assert "DRIFT" in str(spec_alarm)

    def test_guard_rate_spike_fires_the_guard_chart(self):
        baseline, _ = _baseline(guard_rate=0.02)
        monitor = DriftMonitor(baseline)
        rng = np.random.default_rng(9)
        alarms = ()
        for _ in range(10):
            batch = _stream(rng, baseline, 200)
            first = np.full(200, GOOD)
            first[:80] = GUARD         # 40% guard vs 2% expected
            monitor.observe(batch, first)
            alarms = monitor.alarms()
        assert any(a.kind == "guard-rate" for a in alarms)
        guard_alarm = next(a for a in alarms if a.kind == "guard-rate")
        assert guard_alarm.observed > guard_alarm.expected

    def test_quiet_below_min_devices(self, monkeypatch):
        baseline, _ = _baseline()
        monkeypatch.setattr(monitor_module, "MIN_DEVICES", 1000)
        monitor = DriftMonitor(baseline)
        rng = np.random.default_rng(10)
        batch = _stream(rng, baseline, 500, shift=5.0)
        monitor.observe(batch, np.full(500, GOOD))
        assert monitor.alarms() == ()

    def test_window_is_bounded_and_rolls(self, monkeypatch):
        baseline, _ = _baseline()
        monkeypatch.setattr(monitor_module, "WINDOW_BATCHES", 4)
        monkeypatch.setattr(monitor_module, "MIN_DEVICES", 100)
        monitor = DriftMonitor(baseline)
        rng = np.random.default_rng(11)
        # Four drifted batches fire the chart...
        for _ in range(4):
            monitor.observe(_stream(rng, baseline, 100, 2.0),
                            np.full(100, GOOD))
            alarms = monitor.alarms()
        assert any(a.kind == "spec-mean" for a in alarms)
        # ...and four healthy batches roll the drift out of the window.
        for _ in range(4):
            monitor.observe(_stream(rng, baseline, 100), np.full(100, GOOD))
            alarms = monitor.alarms()
        assert not any(a.kind == "spec-mean" for a in alarms)
        assert len(monitor._window) == 4

    def test_reset_clears_the_window(self, monkeypatch):
        baseline, _ = _baseline()
        monkeypatch.setattr(monitor_module, "MIN_DEVICES", 100)
        monitor = DriftMonitor(baseline)
        rng = np.random.default_rng(12)
        monitor.observe(_stream(rng, baseline, 400, 3.0), np.full(400, GOOD))
        assert monitor.alarms() != ()
        monitor.reset()
        assert monitor.n_seen == 0
        assert monitor.alarms() == ()

    def test_zero_variance_baseline_stays_finite(self, monkeypatch):
        baseline = DriftBaseline(names=("flat",), mean=(1.0,),
                                 std=(0.0,), guard_rate=0.0,
                                 n_train=100)
        monkeypatch.setattr(monitor_module, "MIN_DEVICES", 10)
        monitor = DriftMonitor(baseline)
        monitor.observe(np.full((50, 1), 1.0 + 1e-6), np.full(50, GOOD))
        alarms = monitor.alarms()
        assert all(np.isfinite(a.z_score) for a in alarms)
        assert any(a.kind == "spec-mean" for a in alarms)

    def test_batch_width_mismatch_rejected(self):
        baseline, _ = _baseline()
        monitor = DriftMonitor(baseline)
        with pytest.raises(CompactionError, match="measured specs"):
            monitor.observe(np.zeros((5, 7)), np.full(5, GOOD))


class TestRecordOnly:
    """``observe`` records; charts are evaluated only when asked."""

    def test_dispose_never_evaluates_a_chart(self, monkeypatch):
        from tests.floor.test_dispose_golden import _program, _traffic

        def refuse(self, *args, **kwargs):
            raise AssertionError("dispose evaluated a drift chart")

        floor = Floor(_program("bank"), bin_boundary_margin=0.25)
        rows = _traffic()
        monkeypatch.setattr(DriftMonitor, "alarms", refuse)
        monkeypatch.setattr(DriftMonitor, "chart_state", refuse)
        for start in range(0, rows.shape[0], 16):
            floor.dispose(rows[start:start + 16])
        assert floor.monitor.n_seen == rows.shape[0]
