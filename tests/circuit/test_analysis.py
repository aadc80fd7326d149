"""Waveform/spectrum measurement helper tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import analysis as ana
from repro.errors import AnalysisError


def _second_order(freqs, f0, q, a=1.0):
    u = (np.asarray(freqs) / f0) ** 2
    return a / np.sqrt((1 - u) ** 2 + u / q ** 2)


class TestFrequencyMeasures:
    def test_bandwidth_of_first_order(self):
        fc = 1e3
        freqs = np.logspace(0, 6, 301)
        h = 1.0 / np.sqrt(1 + (freqs / fc) ** 2)
        assert ana.bandwidth_3db(freqs, h) == pytest.approx(fc, rel=0.01)

    def test_bandwidth_respects_explicit_reference(self):
        freqs = np.logspace(0, 6, 301)
        h = 10.0 / np.sqrt(1 + (freqs / 1e3) ** 2)
        bw = ana.bandwidth_3db(freqs, h, ref_gain=10.0)
        assert bw == pytest.approx(1e3, rel=0.01)

    def test_unity_gain_frequency_of_integrator(self):
        freqs = np.logspace(0, 6, 301)
        h = 1e4 / freqs  # crosses unity at 10 kHz
        assert ana.unity_gain_frequency(freqs, h) == pytest.approx(
            1e4, rel=0.01)

    def test_ugf_requires_initial_gain_above_one(self):
        freqs = np.logspace(0, 3, 31)
        with pytest.raises(AnalysisError, match="below unity"):
            ana.unity_gain_frequency(freqs, 0.5 / freqs)

    @given(f0=st.floats(1e2, 1e5), q=st.floats(1.2, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_peak_frequency_of_resonance(self, f0, q):
        freqs = np.logspace(np.log10(f0) - 2, np.log10(f0) + 2, 401)
        h = _second_order(freqs, f0, q)
        f_peak_true = f0 * np.sqrt(1 - 1 / (2 * q * q))
        assert ana.peak_frequency(freqs, h) == pytest.approx(
            f_peak_true, rel=0.02)

    @given(q=st.floats(5.0, 30.0))
    @settings(max_examples=50, deadline=None)
    def test_quality_factor_recovered(self, q):
        """Half-power Q matches classical Q for reasonably sharp peaks.

        For a *low-pass* second-order response the half-power width
        around the peak equals f0/Q only asymptotically; below Q ~ 5
        the estimate is biased low by design (the MEMS bench therefore
        extracts Q by curve fitting instead).
        """
        f0 = 1e4
        freqs = np.logspace(2, 6, 1601)
        h = _second_order(freqs, f0, q)
        assert ana.quality_factor(freqs, h) == pytest.approx(q, rel=0.08)

    def test_quality_factor_biased_low_at_low_q(self):
        freqs = np.logspace(2, 6, 1601)
        h = _second_order(freqs, 1e4, 2.0)
        q_est = ana.quality_factor(freqs, h)
        assert 1.4 < q_est < 2.0

    def test_quality_factor_rejects_overdamped(self):
        freqs = np.logspace(2, 6, 201)
        h = _second_order(freqs, 1e4, 0.5)  # no resonant peak
        with pytest.raises(AnalysisError):
            ana.quality_factor(freqs, h)


class TestTimeMeasures:
    def _step(self, tau=1e-6, t_end=1e-5, n=2001, y0=0.0, y1=1.0):
        t = np.linspace(0.0, t_end, n)
        return t, y0 + (y1 - y0) * (1 - np.exp(-t / tau))

    def test_first_crossing_interpolates(self):
        t = np.array([0.0, 1.0, 2.0])
        y = np.array([0.0, 1.0, 2.0])
        assert ana.first_crossing(t, y, 0.5) == pytest.approx(0.5)

    def test_first_crossing_direction(self):
        t = np.linspace(0, 2 * np.pi, 1001)
        y = np.sin(t)
        up = ana.first_crossing(t, y, 0.5, rising=True)
        down = ana.first_crossing(t, y, 0.5, rising=False)
        assert up == pytest.approx(np.arcsin(0.5), abs=0.01)
        assert down == pytest.approx(np.pi - np.arcsin(0.5), abs=0.01)

    def test_first_crossing_missing_raises(self):
        with pytest.raises(AnalysisError, match="never crosses"):
            ana.first_crossing([0, 1], [0, 0.1], 5.0)

    def test_rise_time_of_first_order(self):
        tau = 1e-6
        t, y = self._step(tau)
        # Analytic 10-90 rise of a first-order step: tau * ln(9).
        assert ana.rise_time(t, y, 0.0, 1.0) == pytest.approx(
            tau * np.log(9.0), rel=0.01)

    def test_rise_time_falling_step(self):
        tau = 1e-6
        t, y = self._step(tau, y0=1.0, y1=0.0)
        assert ana.rise_time(t, y, 1.0, 0.0) == pytest.approx(
            tau * np.log(9.0), rel=0.01)

    def test_overshoot_zero_for_monotone(self):
        t, y = self._step()
        assert ana.overshoot(y, 0.0, 1.0) == 0.0

    def test_overshoot_of_damped_ringing(self):
        t = np.linspace(0, 20, 4001)
        zeta = 0.3
        wn = 1.0
        wd = wn * np.sqrt(1 - zeta ** 2)
        y = 1 - np.exp(-zeta * wn * t) * (
            np.cos(wd * t) + zeta / np.sqrt(1 - zeta ** 2) * np.sin(wd * t))
        expected = np.exp(-np.pi * zeta / np.sqrt(1 - zeta ** 2))
        assert ana.overshoot(y, 0.0, 1.0) == pytest.approx(expected,
                                                           rel=0.02)

    def test_settling_time_first_order(self):
        tau = 1e-6
        t, y = self._step(tau, t_end=2e-5, n=20001)
        # 1 % settling of a first-order step: tau * ln(100).
        assert ana.settling_time(t, y, 1.0, band=0.01) == pytest.approx(
            tau * np.log(100.0), rel=0.02)

    def test_settling_time_already_settled(self):
        t = np.linspace(0, 1, 11)
        y = np.ones(11)
        assert ana.settling_time(t, y, 1.0) == 0.0

    def test_settling_never_raises_outside_band(self):
        t = np.linspace(0, 1, 101)
        y = np.linspace(0, 0.5, 101)  # never reaches 1 +/- 1 %
        with pytest.raises(AnalysisError, match="settle"):
            ana.settling_time(t, y, 1.0, band=0.01)

    def test_slew_rate_of_ramp(self):
        t = np.linspace(0.0, 1.0, 1001)
        y = np.clip(2.0 * t, 0.0, 1.0)  # 2 V/s ramp saturating at 1
        assert ana.slew_rate(t, y) == pytest.approx(2.0, rel=0.01)

    def test_slew_rate_rejects_flat(self):
        t = np.linspace(0, 1, 11)
        with pytest.raises(AnalysisError):
            ana.slew_rate(t, np.zeros(11))
