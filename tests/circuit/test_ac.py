"""AC analysis tests against closed-form transfer functions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit, solve_ac, solve_dc
from repro.circuit import analysis as ana
from repro.errors import AnalysisError


def _rc_circuit(r=1e3, c=1e-6):
    ckt = Circuit()
    ckt.voltage_source("Vin", "in", "0", dc=0.0, ac=1.0)
    ckt.resistor("R", "in", "out", r)
    ckt.capacitor("C", "out", "0", c)
    return ckt


def test_rc_lowpass_matches_analytic():
    ckt = _rc_circuit()
    op = solve_dc(ckt)
    freqs = np.logspace(0, 5, 61)
    ac = solve_ac(ckt, freqs, op)
    h = ac.v("out")
    expected = 1.0 / (1.0 + 1j * 2 * np.pi * freqs * 1e3 * 1e-6)
    assert np.allclose(h, expected, rtol=1e-9)


@given(r=st.floats(100, 1e5), c=st.floats(1e-9, 1e-5))
@settings(max_examples=40, deadline=None)
def test_rc_bandwidth_property(r, c):
    """Measured -3 dB corner equals 1/(2 pi R C) for any RC."""
    ckt = _rc_circuit(r, c)
    op = solve_dc(ckt)
    f_c = 1.0 / (2 * np.pi * r * c)
    freqs = np.logspace(np.log10(f_c) - 3, np.log10(f_c) + 3, 121)
    ac = solve_ac(ckt, freqs, op)
    bw = ana.bandwidth_3db(ac.freqs, ac.v("out"))
    assert bw == pytest.approx(f_c, rel=0.02)


def test_rlc_series_resonance():
    """Series RLC current peaks at f0 = 1/(2 pi sqrt(LC))."""
    L, C, R = 1e-3, 1e-9, 10.0
    ckt = Circuit()
    ckt.voltage_source("Vin", "in", "0", dc=0.0, ac=1.0)
    ckt.inductor("L", "in", "a", L)
    ckt.resistor("R", "a", "b", R)
    ckt.capacitor("C", "b", "0", C)
    op = solve_dc(ckt)
    f0 = 1.0 / (2 * np.pi * np.sqrt(L * C))
    freqs = np.logspace(np.log10(f0) - 1.5, np.log10(f0) + 1.5, 201)
    ac = solve_ac(ckt, freqs, op)
    current = np.abs(ac.branch_current("Vin"))
    f_peak = ac.freqs[np.argmax(current)]
    assert f_peak == pytest.approx(f0, rel=0.03)
    # At resonance the impedance is R: |I| = 1/R.
    assert current.max() == pytest.approx(1.0 / R, rel=0.01)


def test_rlc_quality_factor():
    """Measured Q of a series RLC equals sqrt(L/C)/R."""
    L, C, R = 1e-3, 1e-9, 50.0
    ckt = Circuit()
    ckt.voltage_source("Vin", "in", "0", dc=0.0, ac=1.0)
    ckt.inductor("L", "in", "a", L)
    ckt.resistor("R", "a", "b", R)
    ckt.capacitor("C", "b", "0", C)
    op = solve_dc(ckt)
    f0 = 1.0 / (2 * np.pi * np.sqrt(L * C))
    freqs = np.logspace(np.log10(f0) - 1, np.log10(f0) + 1, 801)
    ac = solve_ac(ckt, freqs, op)
    q_expected = np.sqrt(L / C) / R
    q_measured = ana.quality_factor(ac.freqs, np.abs(ac.branch_current("Vin")))
    assert q_measured == pytest.approx(q_expected, rel=0.05)


def test_linearized_mosfet_gain():
    """Common-source gain equals -gm * (Rd || ro)."""
    ckt = Circuit()
    ckt.voltage_source("Vdd", "vdd", "0", dc=5.0)
    ckt.voltage_source("Vg", "g", "0", dc=1.5, ac=1.0)
    ckt.resistor("Rd", "vdd", "d", 1e4)
    m = ckt.mosfet("M1", "d", "g", "0", kind="n", w=20e-6, l=2e-6,
                   kp=100e-6, vth=1.0, lam=0.02)
    op = solve_dc(ckt)
    _, gm, gds = m.evaluate(op.x)
    ac = solve_ac(ckt, [1.0], op)
    gain_expected = gm / (1e-4 + gds)
    assert np.abs(ac.v("d"))[0] == pytest.approx(gain_expected, rel=1e-6)


def test_ac_source_superposition():
    """Zeroing one AC source isolates the other's contribution."""
    def run(a1, a2):
        ckt = Circuit()
        ckt.voltage_source("V1", "a", "0", dc=0.0, ac=a1)
        ckt.resistor("R1", "a", "out", 1e3)
        ckt.voltage_source("V2", "b", "0", dc=0.0, ac=a2)
        ckt.resistor("R2", "b", "out", 1e3)
        ckt.resistor("RL", "out", "0", 1e3)
        op = solve_dc(ckt)
        return solve_ac(ckt, [100.0], op).v("out")[0]

    both = run(1.0, 1.0)
    assert both == pytest.approx(run(1.0, 0.0) + run(0.0, 1.0), rel=1e-12)


def test_ac_requires_positive_frequencies():
    ckt = _rc_circuit()
    op = solve_dc(ckt)
    with pytest.raises(AnalysisError, match="positive"):
        solve_ac(ckt, [0.0, 10.0], op)
    with pytest.raises(AnalysisError, match="at least one"):
        solve_ac(ckt, [], op)


def test_nonlinear_in_omega_reactive_device_falls_back():
    """A user reactive device whose stamp is not omega-linear must
    still solve correctly: the hoisted entry list detects it and
    solve_ac reverts to per-frequency stamping."""
    from repro.circuit import devices as dev

    class OmegaSquaredShunt(dev.Device):
        """A frequency-squared admittance to ground (not physical,
        just definitely not linear in omega)."""

        reactive = True

        def __init__(self, name, node, scale):
            super().__init__(name, (node,))
            self.scale = float(scale)

        def stamp_ac(self, G, b, omega):
            (i,) = self.nodes
            if i >= 0:
                G[i, i] += 1j * self.scale * omega * omega

    scale = 1e-12
    ckt = Circuit("omega-squared")
    ckt.voltage_source("Vin", "in", "0", dc=0.0, ac=1.0)
    ckt.resistor("R1", "in", "out", 1e3)
    ckt.add(OmegaSquaredShunt("X1", "out", scale))
    op = solve_dc(ckt)
    freqs = np.logspace(3, 6, 7)
    ac = solve_ac(ckt, freqs, op)
    # Closed form: V(out) = 1 / (1 + R * j * scale * omega^2).
    omega = 2.0 * np.pi * freqs
    expected = 1.0 / (1.0 + 1e3 * 1j * scale * omega * omega)
    np.testing.assert_allclose(ac.v("out"), expected, rtol=1e-12)
