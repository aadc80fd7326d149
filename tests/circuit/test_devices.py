"""Device-model unit tests: waveforms and MOSFET physics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.devices import (
    Dc, Diode, Mosfet, Pulse, Pwl, Sine, Waveform, _as_waveform,
)
from repro.errors import CircuitError


class TestWaveforms:
    def test_dc_constant(self):
        w = Dc(3.3)
        assert w.dc == 3.3
        assert w.at(0.0) == 3.3
        assert w.at(1e9) == 3.3

    def test_as_waveform_coerces_numbers(self):
        w = _as_waveform(5)
        assert isinstance(w, Waveform)
        assert w.at(1.0) == 5.0
        assert _as_waveform(w) is w

    def test_pulse_shape(self):
        p = Pulse(0.0, 1.0, delay=1e-6, rise=1e-7, fall=1e-7, width=1e-6)
        assert p.at(0.0) == 0.0
        assert p.at(1e-6) == 0.0
        assert p.at(1.05e-6) == pytest.approx(0.5)
        assert p.at(1.5e-6) == 1.0
        assert p.at(2.15e-6) == pytest.approx(0.5)
        assert p.at(5e-6) == 0.0

    def test_pulse_periodic(self):
        p = Pulse(0.0, 1.0, delay=0.0, rise=1e-9, fall=1e-9, width=0.5e-6,
                  period=1e-6)
        assert p.at(0.25e-6) == 1.0
        assert p.at(0.75e-6) == 0.0
        assert p.at(1.25e-6) == 1.0

    def test_pulse_rejects_zero_edges(self):
        with pytest.raises(CircuitError, match="positive"):
            Pulse(0, 1, rise=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(period=0.0), dict(period=-1e-6), dict(width=-1e-9)])
    def test_pulse_rejects_bad_period_and_width(self, kwargs):
        # period=0 used to raise ZeroDivisionError at the first
        # at(t > delay), mid-transient; a negative period silently
        # held v1.  Both are now refused when the pulse is built.
        with pytest.raises(CircuitError, match="period|width"):
            Pulse(0, 1, **kwargs)

    def test_pulse_accepts_zero_width(self):
        p = Pulse(0.0, 1.0, delay=0.0, rise=0.5, fall=0.5, width=0.0)
        assert p.at(0.5) == 1.0 and p.at(1.0) == 0.0

    def test_sine_value_and_delay(self):
        s = Sine(1.0, 0.5, 1e3, delay=1e-3)
        assert s.at(0.5e-3) == 1.0  # before delay: offset
        assert s.at(1e-3 + 0.25e-3) == pytest.approx(1.5)

    def test_pwl_interpolation_and_validation(self):
        w = Pwl([0, 1, 2], [0.0, 10.0, 0.0])
        assert w.at(0.5) == pytest.approx(5.0)
        assert w.at(5.0) == 0.0  # clamps to last value
        with pytest.raises(CircuitError, match="increasing"):
            Pwl([0, 0, 1], [1, 2, 3])
        with pytest.raises(CircuitError):
            Pwl([0], [1])


def _x_for(m, vd, vg, vs):
    """Build a solution vector for a bound 3-node MOSFET."""
    x = np.zeros(3)
    d, g, s = m.nodes
    for idx, v in ((d, vd), (g, vg), (s, vs)):
        if idx >= 0:
            x[idx] = v
    return x


def _bound_mosfet(**kw):
    m = Mosfet("M", "d", "g", "s", **kw)
    m.bind((0, 1, 2), 3)
    return m


class TestMosfetModel:
    def test_cutoff_has_zero_current(self):
        m = _bound_mosfet(kind="n", vth=1.0)
        idd, gm, gds = m.evaluate(_x_for(m, 5.0, 0.5, 0.0))
        assert idd == 0.0
        assert gm == 0.0

    def test_saturation_square_law(self):
        m = _bound_mosfet(kind="n", w=10e-6, l=1e-6, kp=100e-6, vth=1.0,
                          lam=0.0)
        idd, gm, gds = m.evaluate(_x_for(m, 5.0, 2.0, 0.0))
        beta = 1e-3
        assert idd == pytest.approx(0.5 * beta * 1.0)
        assert gm == pytest.approx(beta * 1.0)

    def test_pmos_mirrors_nmos(self):
        mn = _bound_mosfet(kind="n", vth=1.0, lam=0.0)
        mp = _bound_mosfet(kind="p", vth=1.0, lam=0.0)
        id_n, gm_n, gds_n = mn.evaluate(_x_for(mn, 3.0, 2.0, 0.0))
        id_p, gm_p, gds_p = mp.evaluate(_x_for(mp, 2.0, 3.0, 5.0))
        assert id_p == pytest.approx(-id_n)
        assert gm_p == pytest.approx(gm_n)
        assert gds_p == pytest.approx(gds_n)

    def test_drain_source_symmetry(self):
        """Swapping drain and source negates the current."""
        m = _bound_mosfet(kind="n", vth=0.7, lam=0.05)
        id_fwd, _, _ = m.evaluate(_x_for(m, 2.0, 3.0, 1.0))
        id_rev, _, _ = m.evaluate(_x_for(m, 1.0, 3.0, 2.0))
        assert id_rev == pytest.approx(-id_fwd, rel=1e-9)

    @given(vg=st.floats(0.0, 5.0), vd=st.floats(0.0, 5.0),
           lam=st.floats(0.0, 0.2))
    @settings(max_examples=80, deadline=None)
    def test_derivatives_match_finite_differences(self, vg, vd, lam):
        """gm and gds agree with numerical differentiation of Id."""
        m = _bound_mosfet(kind="n", vth=0.8, lam=lam)
        x = _x_for(m, vd, vg, 0.0)
        idd, gm, gds = m.evaluate(x)
        h = 1e-7
        id_gp, _, _ = m.evaluate(_x_for(m, vd, vg + h, 0.0))
        id_dp, _, _ = m.evaluate(_x_for(m, vd + h, vg, 0.0))
        gm_fd = (id_gp - idd) / h
        gds_fd = (id_dp - idd) / h
        assert gm == pytest.approx(gm_fd, rel=1e-3, abs=1e-7)
        assert gds == pytest.approx(gds_fd, rel=1e-3, abs=1e-7)

    @given(vg=st.floats(0.0, 5.0), vd1=st.floats(0.0, 5.0),
           vd2=st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_current_monotone_in_vds(self, vg, vd1, vd2):
        """Drain current is non-decreasing in vds (NMOS, vs=0)."""
        m = _bound_mosfet(kind="n", vth=0.8, lam=0.05)
        lo, hi = sorted((vd1, vd2))
        id_lo, _, _ = m.evaluate(_x_for(m, lo, vg, 0.0))
        id_hi, _, _ = m.evaluate(_x_for(m, hi, vg, 0.0))
        assert id_hi >= id_lo - 1e-12

    def test_invalid_kind_rejected(self):
        with pytest.raises(CircuitError, match="kind"):
            Mosfet("M", "d", "g", "s", kind="x")

    def test_nonpositive_geometry_rejected(self):
        with pytest.raises(CircuitError, match="positive"):
            Mosfet("M", "d", "g", "s", w=-1e-6)


class TestDiodeModel:
    def test_current_positive_forward(self):
        d = Diode("D", "a", "0")
        d.bind((0, -1), 1)
        G = np.zeros((1, 1))
        b = np.zeros(1)
        d.stamp_nonlinear(G, b, np.array([0.6]))
        # Conductance stamped positive at (a, a).
        assert G[0, 0] > 0

    def test_limits_large_forward_voltage(self):
        """Voltage limiting prevents exp overflow."""
        d = Diode("D", "a", "0")
        d.bind((0, -1), 1)
        G = np.zeros((1, 1))
        b = np.zeros(1)
        d.stamp_nonlinear(G, b, np.array([100.0]))  # must not overflow
        assert np.isfinite(G[0, 0])
        assert np.isfinite(b[0])
