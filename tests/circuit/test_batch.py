"""Parity contract of the batched MNA kernel (`repro.circuit.batch`).

The kernel's promise: a batched analysis equals running the scalar
analysis per instance -- bit for bit for every built-in device except
the diode (whose exponential goes through ``np.exp``), with failures
confined to their own instance via demotion to the scalar path.  The
shared-slot cases pin the layered scatter order of the nonlinear plan.
"""

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    CircuitBatch,
    solve_ac,
    solve_dc,
    solve_transient,
)
from repro.circuit import devices as dev
from repro.circuit.dc import DCResult
from repro.errors import AnalysisError, CircuitError, ConvergenceError

#: Exact power-of-two conductance (1/1024 ohm) so the gm-cancellation
#: circuits below are *exactly* singular in float arithmetic.
R_EXACT = 1024.0


def _mosfet_amp(vg, rd=10e3, w=20e-6):
    """A common-source NMOS stage; ``vg`` selects the operating region."""
    ckt = Circuit("cs-amp")
    ckt.voltage_source("Vdd", "vdd", "0", dc=5.0)
    ckt.voltage_source("Vg", "g", "0", dc=vg, ac=1.0)
    ckt.resistor("Rd", "vdd", "d", rd)
    ckt.mosfet("M1", "d", "g", "0", kind="n", w=w, l=1e-6)
    ckt.capacitor("Cl", "d", "0", 1e-12)
    return ckt


def _rlc(r, l, c):
    """A driven series RLC (linear: covers R, L, C, source stamps)."""
    ckt = Circuit("rlc")
    ckt.voltage_source("Vin", "in", "0", dc=0.0, ac=1.0)
    ckt.resistor("R1", "in", "mid", r)
    ckt.inductor("L1", "mid", "out", l)
    ckt.capacitor("C1", "out", "0", c)
    return ckt


def _gm_cancel(gm, cap_node="n"):
    """Resistive divider with a Vccs that can null the node conductance.

    With ``gm = -(1/Rs + 1/Rl)`` (exact, powers of two) node ``n``'s
    self-conductance cancels to exactly zero: singular at DC (and in AC
    when the capacitor sits elsewhere), solvable for any other ``gm``.
    """
    ckt = Circuit("gm-cancel")
    ckt.voltage_source("Vin", "a", "0", dc=1.0, ac=1.0)
    ckt.resistor("Rs", "a", "n", R_EXACT)
    ckt.resistor("Rl", "n", "0", R_EXACT)
    ckt.vccs("Gx", "n", "0", "n", "0", gm)
    ckt.capacitor("Cl", cap_node, "0", 1e-9)
    return ckt


def _diff_pair(vid, scale=1.0, tail_kind="n", step=False):
    """A mirror-loaded differential pair: five MOSFETs on shared nodes.

    Every nonlinear device shares a node with another (``tail``,
    ``n1``, ``out``, ``vdd``), and the diode-connected mirror device
    M3 adds twice into one slot itself, so several devices accumulate
    into the same matrix slots.  ``Rl`` sits among the MOSFETs, as the
    op-amp's resistors do, so the AC base interleaves static and
    linearized entries.  ``tail_kind="p"`` flips the tail device's
    polarity (biased on through a negative gate voltage).
    """
    ckt = Circuit("mirror-diff-pair")
    ckt.voltage_source("Vdd", "vdd", "0", dc=3.3)
    vinp = 1.6 + vid / 2
    if step:
        vinp = dev.Pulse(vinp, vinp + 0.05, delay=2e-8, rise=1e-8)
    ckt.voltage_source("Vinp", "inp", "0", dc=vinp, ac=0.5)
    ckt.voltage_source("Vinn", "inn", "0", dc=1.6 - vid / 2, ac=-0.5)
    ckt.voltage_source("Vb", "vb", "0",
                       dc=1.0 if tail_kind == "n" else -0.4)
    ckt.mosfet("M1", "n1", "inp", "tail", kind="n", w=20e-6 * scale,
               l=1e-6)
    ckt.mosfet("M2", "out", "inn", "tail", kind="n", w=20e-6, l=1e-6)
    ckt.resistor("Rl", "out", "0", 200e3 * scale)
    ckt.mosfet("M3", "n1", "n1", "vdd", kind="p", w=40e-6, l=1e-6)
    ckt.mosfet("M4", "out", "n1", "vdd", kind="p", w=40e-6 * scale,
               l=1e-6)
    ckt.mosfet("M5", "tail", "vb", "0", kind=tail_kind, w=10e-6, l=2e-6)
    ckt.capacitor("Cl", "out", "0", 1e-12)
    return ckt


def _diode_mosfet(vdd, r1, step=False):
    """Diodes sharing the gate and source nodes of a MOSFET stage."""
    ckt = Circuit("diode-mosfet")
    if step:
        vdd = dev.Pulse(vdd, vdd + 0.2, delay=2e-8, rise=1e-8)
    ckt.voltage_source("Vdd", "vdd", "0", dc=vdd, ac=1.0)
    ckt.resistor("R1", "vdd", "a", r1)
    ckt.diode("D1", "a", "g")
    ckt.resistor("R2", "g", "0", 20e3)
    ckt.mosfet("M1", "out", "g", "s", kind="n", w=20e-6, l=1e-6)
    ckt.diode("D2", "s", "0")
    ckt.resistor("Rd", "vdd", "out", 10e3)
    ckt.capacitor("Cl", "out", "0", 1e-12)
    return ckt


@pytest.fixture
def no_demotion(monkeypatch):
    """Fail if the batch hands any instance to the scalar solvers.

    A demoted instance *is* the scalar path, so parity would hold
    without exercising the batched stamps at all.  Compute the scalar
    references before requesting this guard.
    """
    from repro.circuit import batch as batch_mod

    def refuse(*args, **kwargs):
        raise AssertionError("instance demoted to the scalar path")

    def install():
        monkeypatch.setattr(batch_mod._dc, "solve_dc", refuse)
        monkeypatch.setattr(batch_mod._tran, "solve_transient", refuse)

    return install


class TestTopologyValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(CircuitError, match="at least one"):
            CircuitBatch([])

    def test_device_count_mismatch_rejected(self):
        a = _rlc(1e3, 1e-3, 1e-9)
        b = _rlc(2e3, 1e-3, 1e-9)
        b.resistor("Rextra", "out", "0", 1e6)
        with pytest.raises(CircuitError, match="topology"):
            CircuitBatch([a, b])

    def test_node_wiring_mismatch_rejected(self):
        a = Circuit("a")
        a.voltage_source("V1", "x", "0", dc=1.0)
        a.resistor("R1", "x", "0", 1e3)
        b = Circuit("b")
        b.voltage_source("V1", "x", "0", dc=1.0)
        b.resistor("R1", "x", "y", 1e3)
        with pytest.raises(CircuitError, match="topology"):
            CircuitBatch([a, b])

    def test_device_name_mismatch_rejected(self):
        a = Circuit("a")
        a.voltage_source("V1", "x", "0", dc=1.0)
        a.resistor("R1", "x", "0", 1e3)
        b = Circuit("b")
        b.voltage_source("V1", "x", "0", dc=1.0)
        b.resistor("R2", "x", "0", 1e3)
        with pytest.raises(CircuitError, match="topology"):
            CircuitBatch([a, b])

    def test_unknown_device_type_rejected(self):
        class Shunt(dev.Device):
            def stamp_static(self, G):
                pass

        ckt = Circuit("custom")
        ckt.voltage_source("V1", "x", "0", dc=1.0)
        ckt.add(Shunt("X1", ("x",)))
        with pytest.raises(CircuitError, match="no stamp recipe"):
            CircuitBatch([ckt])

    def test_builtin_subclass_rejected(self):
        """Subclasses may override stamps; exact types only."""

        class MyResistor(dev.Resistor):
            pass

        ckt = Circuit("sub")
        ckt.voltage_source("V1", "x", "0", dc=1.0)
        ckt.add(MyResistor("R1", "x", "0", 1e3))
        with pytest.raises(CircuitError, match="no stamp recipe"):
            CircuitBatch([ckt])

    def test_unknown_node_rejected(self):
        batch = CircuitBatch([_rlc(1e3, 1e-3, 1e-9)])
        with pytest.raises(CircuitError, match="no node"):
            batch.node_index("nope")


class TestDCParity:
    def test_mosfet_population_bitwise(self):
        """Perturbed MOSFET stages: batched == scalar, bit for bit."""
        rng = np.random.default_rng(5)
        circuits = [_mosfet_amp(1.2 * (1 + rng.uniform(-0.3, 0.3)),
                                rd=10e3 * (1 + rng.uniform(-0.3, 0.3)))
                    for _ in range(8)]
        res = CircuitBatch(circuits).solve_dc()
        assert all(error is None for error in res.errors)
        for k, circuit in enumerate(circuits):
            scalar = solve_dc(circuit)
            assert np.array_equal(scalar.x, res.x[k])
            assert scalar.iterations == res.iterations[k]

    def test_mixed_operating_regions_masked_newton(self):
        """Cutoff, saturation and triode instances converge at
        different iteration counts; masking freezes each exactly where
        the scalar iteration stops."""
        circuits = [_mosfet_amp(0.2), _mosfet_amp(1.1),
                    _mosfet_amp(4.5, rd=100.0)]
        res = CircuitBatch(circuits).solve_dc()
        iteration_counts = set()
        for k, circuit in enumerate(circuits):
            scalar = solve_dc(circuit)
            assert np.array_equal(scalar.x, res.x[k])
            assert scalar.iterations == res.iterations[k]
            iteration_counts.add(scalar.iterations)
        assert len(iteration_counts) > 1  # masking actually exercised

    def test_accessors_match_scalar(self):
        circuits = [_mosfet_amp(1.2), _mosfet_amp(1.4)]
        res = CircuitBatch(circuits).solve_dc()
        for k, circuit in enumerate(circuits):
            scalar = solve_dc(circuit)
            assert res.v("d")[k] == scalar.v("d")
            assert (res.branch_current("Vdd")[k]
                    == scalar.branch_current("Vdd"))
        assert np.all(res.v("0") == 0.0)
        with pytest.raises(ConvergenceError, match="branch-current"):
            res.branch_current("Rd")

    def test_singular_instance_demoted_not_fatal(self):
        """One exactly-singular instance fails alone; peers are
        bit-identical to their scalar solves."""
        good_gm = -1.0 / (8.0 * R_EXACT)
        circuits = [_gm_cancel(good_gm), _gm_cancel(-2.0 / R_EXACT),
                    _gm_cancel(2.0 * good_gm)]
        with pytest.raises(ConvergenceError):
            solve_dc(circuits[1])  # scalar: the instance is hopeless
        res = CircuitBatch(circuits).solve_dc()
        assert res.errors[0] is None and res.errors[2] is None
        assert isinstance(res.errors[1], ConvergenceError)
        assert not res.ok[1] and np.all(np.isnan(res.x[1]))
        for k in (0, 2):
            assert np.array_equal(solve_dc(circuits[k]).x, res.x[k])

    def test_diode_population_close(self):
        """Diodes ride np.exp: equivalent to 1e-9 relative, and the
        same pass/fail (convergence) outcome."""
        rng = np.random.default_rng(9)
        circuits = []
        for _ in range(5):
            ckt = Circuit("rectifier")
            ckt.voltage_source("Vin", "in", "0",
                               dc=2.0 * (1 + rng.uniform(-0.4, 0.4)))
            ckt.resistor("R1", "in", "out",
                         1e3 * (1 + rng.uniform(-0.4, 0.4)))
            ckt.diode("D1", "out", "0")
            circuits.append(ckt)
        res = CircuitBatch(circuits).solve_dc()
        assert all(error is None for error in res.errors)
        for k, circuit in enumerate(circuits):
            np.testing.assert_allclose(res.x[k], solve_dc(circuit).x,
                                       rtol=1e-9, atol=0)


class TestACParity:
    FREQS = np.logspace(1, 7, 31)

    def test_rlc_population_bitwise(self):
        rng = np.random.default_rng(11)
        circuits = [_rlc(1e3 * (1 + rng.uniform(-0.5, 0.5)),
                         1e-3 * (1 + rng.uniform(-0.5, 0.5)),
                         1e-9 * (1 + rng.uniform(-0.5, 0.5)))
                    for _ in range(6)]
        batch = CircuitBatch(circuits)
        op = batch.solve_dc()
        ac = batch.solve_ac(self.FREQS, op.x)
        for k, circuit in enumerate(circuits):
            scalar = solve_ac(circuit, self.FREQS, solve_dc(circuit))
            assert np.array_equal(scalar._X, ac._X[k])
            assert np.array_equal(scalar.v("out"), ac.v("out")[k])
            assert np.array_equal(scalar.branch_current("Vin"),
                                  ac.branch_current("Vin")[k])

    def test_mosfet_linearized_bitwise(self):
        circuits = [_mosfet_amp(1.1), _mosfet_amp(1.3)]
        batch = CircuitBatch(circuits)
        op = batch.solve_dc()
        ac = batch.solve_ac(self.FREQS, op.x)
        for k, circuit in enumerate(circuits):
            scalar = solve_ac(circuit, self.FREQS, solve_dc(circuit))
            assert np.array_equal(scalar._X, ac._X[k])

    def test_chunking_never_changes_values(self, monkeypatch):
        """Tiny stacking chunks (many stacked solves) == one chunk."""
        from repro.circuit import batch as batch_mod

        circuits = [_rlc(1e3, 1e-3, 1e-9), _rlc(2e3, 2e-3, 2e-9)]
        batch = CircuitBatch(circuits)
        op = batch.solve_dc()
        reference = batch.solve_ac(self.FREQS, op.x)._X.copy()
        monkeypatch.setattr(batch_mod, "AC_CHUNK_ENTRIES", 1)
        tiny = CircuitBatch(circuits)
        res = tiny.solve_ac(self.FREQS, tiny.solve_dc().x)
        assert np.array_equal(res._X, reference)

    def test_singular_instance_demoted_not_fatal(self):
        """An all-frequency-singular instance gets the scalar error
        message; its peers stay bit-identical."""
        circuits = [_gm_cancel(-1.0 / (8.0 * R_EXACT), cap_node="a"),
                    _gm_cancel(-2.0 / R_EXACT, cap_node="a"),
                    _gm_cancel(-1.0 / (4.0 * R_EXACT), cap_node="a")]
        batch = CircuitBatch(circuits)
        x_op = np.zeros((3, batch.n_unknowns))
        res = batch.solve_ac(self.FREQS, x_op)
        assert isinstance(res.errors[1], AnalysisError)
        assert "singular AC system" in str(res.errors[1])
        assert not res.ok[1]
        for k in (0, 2):
            op = DCResult(circuits[k], np.zeros(batch.n_unknowns), 0)
            scalar = solve_ac(circuits[k], self.FREQS, op)
            assert np.array_equal(scalar._X, res._X[k])

    def test_nan_operating_point_recorded_not_silently_solved(self):
        """Feeding solve_ac the x stack of a batch whose DC partially
        failed must surface per-instance errors, not NaN phasors with
        ok=True (LAPACK does not flag NaN systems as singular)."""
        circuits = [_mosfet_amp(1.1), _mosfet_amp(1.2)]
        batch = CircuitBatch(circuits)
        x_op = batch.solve_dc().x.copy()
        x_op[1] = np.nan  # as if instance 1's DC had failed
        res = batch.solve_ac(self.FREQS, x_op)
        assert res.ok[0] and not res.ok[1]
        assert isinstance(res.errors[1], AnalysisError)
        assert "operating point" in str(res.errors[1])
        assert np.all(np.isnan(res._X[1]))
        scalar = solve_ac(circuits[0], self.FREQS, solve_dc(circuits[0]))
        assert np.array_equal(scalar._X, res._X[0])

    def test_input_validation_matches_scalar(self):
        batch = CircuitBatch([_rlc(1e3, 1e-3, 1e-9)])
        x_op = np.zeros((1, batch.n_unknowns))
        with pytest.raises(AnalysisError, match="at least one"):
            batch.solve_ac([], x_op)
        with pytest.raises(AnalysisError, match="positive"):
            batch.solve_ac([-1.0], x_op)


class TestTransientParity:
    def test_pulsed_rlc_population_bitwise(self):
        rng = np.random.default_rng(13)
        circuits = []
        for _ in range(5):
            ckt = Circuit("pulse-rlc")
            ckt.voltage_source(
                "Vin", "in", "0",
                dc=dev.Pulse(0.0, 1.0, delay=1e-7, rise=1e-8))
            ckt.resistor("R1", "in", "out",
                         1e3 * (1 + rng.uniform(-0.5, 0.5)))
            ckt.capacitor("C1", "out", "0",
                          1e-9 * (1 + rng.uniform(-0.5, 0.5)))
            ckt.inductor("L1", "out", "0",
                         1e-2 * (1 + rng.uniform(-0.5, 0.5)))
            circuits.append(ckt)
        batch = CircuitBatch(circuits)
        for method in ("trap", "be"):
            res = batch.solve_transient(2e-6, 1e-8, method=method)
            assert all(error is None for error in res.errors)
            for k, circuit in enumerate(circuits):
                scalar = solve_transient(circuit, 2e-6, 1e-8,
                                         method=method)
                assert np.array_equal(scalar._X, res._X[k])
                assert np.array_equal(scalar.t, res.t)

    def test_nonlinear_population_bitwise(self):
        circuits = [_mosfet_amp(1.0), _mosfet_amp(1.3),
                    _mosfet_amp(0.4)]
        for circuit in circuits:
            circuit.device("Vg").wave = dev.Pulse(
                circuit.device("Vg").wave.dc,
                circuit.device("Vg").wave.dc + 0.3,
                delay=5e-8, rise=1e-8)
        batch = CircuitBatch(circuits)
        res = batch.solve_transient(1e-6, 5e-9)
        assert all(error is None for error in res.errors)
        for k, circuit in enumerate(circuits):
            scalar = solve_transient(circuit, 1e-6, 5e-9)
            assert np.array_equal(scalar._X, res._X[k])

    def test_step_failure_demotes_to_scalar_outcome(self):
        """An instance whose trapezoidal step is exactly singular is
        demoted to the scalar integrator, which replays its halving
        retries and ultimately gives up -- so the batch records that
        instance's scalar ConvergenceError while its peers integrate
        on, bit-identical to their own scalar runs."""
        dt = 2.0 ** -10
        c = 2.0 ** -30
        g2 = 2.0 / R_EXACT            # Rs || Rl self-conductance, exact
        geq_trap = 2.0 * c / dt       # 2^-19, exact

        def make(gm):
            ckt = Circuit("trap-singular")
            ckt.voltage_source("Vin", "a", "0",
                               dc=dev.Pulse(0.5, 1.0, delay=2 * dt,
                                            rise=dt))
            ckt.resistor("Rs", "a", "n", R_EXACT)
            ckt.resistor("Rl", "n", "0", R_EXACT)
            ckt.vccs("Gx", "n", "0", "n", "0", gm)
            ckt.capacitor("Cl", "n", "0", c)
            return ckt

        singular_gm = -(g2 + geq_trap)
        circuits = [make(-g2 / 8.0), make(singular_gm),
                    make(-g2 / 4.0)]
        res = CircuitBatch(circuits).solve_transient(8 * dt, dt)
        with pytest.raises(ConvergenceError, match="halvings"):
            solve_transient(circuits[1], 8 * dt, dt)
        assert isinstance(res.errors[1], ConvergenceError)
        assert "halvings" in str(res.errors[1])
        assert not res.ok[1] and np.all(np.isnan(res._X[1]))
        for k in (0, 2):
            assert res.errors[k] is None
            scalar = solve_transient(circuits[k], 8 * dt, dt)
            assert np.array_equal(scalar._X, res._X[k])

    def test_method_validated(self):
        batch = CircuitBatch([_rlc(1e3, 1e-3, 1e-9)])
        with pytest.raises(ConvergenceError, match="integration method"):
            batch.solve_transient(1e-6, 1e-8, method="euler")


class TestSharedSlotParity:
    """Several nonlinear devices adding into the same matrix slots.

    The batched kernel scatters every nonlinear value through a layered
    plan; these cases pin that each shared slot still receives its
    additions in the scalar device-then-entry order.
    """

    FREQS = np.logspace(2, 9, 15)

    def _pairs(self):
        rng = np.random.default_rng(21)
        return [_diff_pair(rng.uniform(-0.02, 0.02),
                           1 + rng.uniform(-0.2, 0.2))
                for _ in range(6)]

    def test_diff_pair_dc_ac_bitwise(self, no_demotion):
        circuits = self._pairs()
        ops = [solve_dc(c) for c in circuits]
        acs = [solve_ac(c, self.FREQS, op) for c, op in zip(circuits, ops)]
        assert len({op.iterations for op in ops}) > 1
        no_demotion()
        batch = CircuitBatch(circuits)
        res = batch.solve_dc()
        ac = batch.solve_ac(self.FREQS, res.x)
        for k in range(len(circuits)):
            assert np.array_equal(ops[k].x, res.x[k])
            assert ops[k].iterations == res.iterations[k]
            assert np.array_equal(acs[k]._X, ac._X[k])

    def test_diff_pair_transient_bitwise(self, no_demotion):
        rng = np.random.default_rng(22)
        circuits = [_diff_pair(rng.uniform(-0.02, 0.02),
                               1 + rng.uniform(-0.2, 0.2), step=True)
                    for _ in range(4)]
        scalar = [solve_transient(c, 1e-7, 2e-9) for c in circuits]
        no_demotion()
        res = CircuitBatch(circuits).solve_transient(1e-7, 2e-9)
        assert all(error is None for error in res.errors)
        for k in range(len(circuits)):
            assert np.array_equal(scalar[k]._X, res._X[k])

    def test_per_instance_polarity_bitwise(self, no_demotion):
        """One position holds NMOS in some instances, PMOS in others."""
        circuits = [_diff_pair(0.01), _diff_pair(-0.01, tail_kind="p"),
                    _diff_pair(0.0, 1.1),
                    _diff_pair(0.005, 0.9, tail_kind="p")]
        ops = [solve_dc(c) for c in circuits]
        acs = [solve_ac(c, self.FREQS, op) for c, op in zip(circuits, ops)]
        for circuit, op in zip(circuits, ops):
            assert circuit.device("M5").operating_region(op.x) \
                == "saturation"
        no_demotion()
        batch = CircuitBatch(circuits)
        res = batch.solve_dc()
        ac = batch.solve_ac(self.FREQS, res.x)
        for k in range(len(circuits)):
            assert np.array_equal(ops[k].x, res.x[k])
            assert np.array_equal(acs[k]._X, ac._X[k])

    def test_diode_and_mosfet_close(self, no_demotion):
        """Diodes and a MOSFET share slots; np.exp bounds the match."""
        rng = np.random.default_rng(3)
        circuits = [_diode_mosfet(3.0 * (1 + rng.uniform(-0.2, 0.2)),
                                  5e3 * (1 + rng.uniform(-0.3, 0.3)))
                    for _ in range(5)]
        steps = [_diode_mosfet(3.0 * (1 + rng.uniform(-0.2, 0.2)), 5e3,
                               step=True) for _ in range(3)]
        ops = [solve_dc(c) for c in circuits]
        acs = [solve_ac(c, self.FREQS, op) for c, op in zip(circuits, ops)]
        trs = [solve_transient(c, 1e-7, 2e-9) for c in steps]
        no_demotion()
        batch = CircuitBatch(circuits)
        res = batch.solve_dc()
        ac = batch.solve_ac(self.FREQS, res.x)
        tr = CircuitBatch(steps).solve_transient(1e-7, 2e-9)
        for k in range(len(circuits)):
            np.testing.assert_allclose(res.x[k], ops[k].x,
                                       rtol=1e-9, atol=0)
            np.testing.assert_allclose(ac._X[k], acs[k]._X,
                                       rtol=1e-9, atol=0)
        for k in range(len(steps)):
            np.testing.assert_allclose(tr._X[k], trs[k]._X,
                                       rtol=1e-9, atol=1e-12)


class TestActiveSubsets:
    def test_inactive_rows_stay_nan(self):
        circuits = [_mosfet_amp(1.1), _mosfet_amp(1.2),
                    _mosfet_amp(1.3)]
        batch = CircuitBatch(circuits)
        res = batch.solve_dc(active=[0, 2])
        assert res.ok[0] and not res.ok[1] and res.ok[2]
        assert np.all(np.isnan(res.x[1]))
        assert res.errors[1] is None
        for k in (0, 2):
            assert np.array_equal(solve_dc(circuits[k]).x, res.x[k])

    def test_boolean_mask_accepted(self):
        circuits = [_rlc(1e3, 1e-3, 1e-9), _rlc(2e3, 1e-3, 1e-9)]
        batch = CircuitBatch(circuits)
        res = batch.solve_dc(active=np.array([False, True]))
        assert not res.ok[0] and res.ok[1]
