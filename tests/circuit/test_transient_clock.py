"""Per-instance step clocks of the batched transient.

``CircuitBatch.solve_transient`` keeps a step index and a Newton count
per instance: every tick runs one Newton iteration of every live
instance, each at its own time step, with its sources read from a bank
that ``Waveform.at_grid`` builds once per solve.  The promise is the
module parity contract of :mod:`repro.circuit.batch`: every row is
bitwise its scalar ``solve_transient``, and every failure has the
scalar failure's type.  These tests pin that down on mixed
populations, pin ``at_grid`` to ``at``, and pin the tick count that
the clocks buy on the canonical op-amp benches.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.circuit import Circuit, CircuitBatch, solve_transient
from repro.circuit import batch as batch_mod
from repro.circuit.devices import Dc, Pulse, Pwl, Sine, Waveform
from repro.errors import ConvergenceError
from repro.opamp import OpAmpBench
from repro.opamp.specs import measure_opamp_batch
from repro.runtime.simulation import instance_streams
from repro.telemetry import Telemetry, set_telemetry

from tests.opamp.test_batch_golden import GOLDEN, POPULATION, _sha

#: Exact step and capacitance (powers of two), so that the singular
#: members below are singular in float arithmetic, not just nearly so.
DT = 2.0 ** -10
C_EXACT = 2.0 ** -30
G_EXACT = 1.0 / 1024.0
N_STEPS = 24

NEEDS_NUMPY_24 = pytest.mark.skipif(
    tuple(int(p) for p in np.__version__.split(".")[:2]) < (2, 4),
    reason="records made with numpy 2.4; older builds not checked")


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# Waveform.at_grid
# ---------------------------------------------------------------------------

class _Ramp(Waveform):
    """A user waveform with no ``at_grid`` of its own."""

    dc = 0.25

    def at(self, t):
        return 0.25 + 3.0 * t if t < 0.5 else 1.75


#: Every edge of the pulses below falls exactly on this grid.
EDGE_GRID = np.arange(0.0, 12.0, 0.0625)


@pytest.mark.parametrize("wave", [
    Dc(-1.5),
    Pulse(0.0, 1.0, delay=0.25, rise=0.125, fall=0.25, width=0.5),
    Pulse(2.0, -1.0, delay=0.5, rise=0.25, fall=0.125, width=1.0,
          period=2.0),
    Pulse(0.3, 0.7, delay=0.0, rise=0.0625, fall=0.0625, width=0.0,
          period=0.375),
    Pulse(-0.1, 0.1, delay=-0.75, rise=0.5, fall=0.5, width=0.25,
          period=1.5),
    Sine(0.5, 0.25, 0.75, delay=0.5),
    Pwl([0.0, 1.0, 2.5], [0.0, 2.0, -1.0]),
    _Ramp(),
], ids=["dc", "pulse", "periodic", "zero-width", "negative-delay",
        "sine", "pwl", "user-subclass"])
def test_at_grid_is_bitwise_at_on_edge_exact_grids(wave):
    grids = [EDGE_GRID, np.linspace(0.0, 150 * 0.08, 151),
             np.linspace(0.0, 3.0e-6, 376)]
    for grid in grids:
        scalar = np.array([wave.at(t) for t in grid], dtype=float)
        assert _bits(wave.at_grid(grid)) == _bits(scalar)


@settings(max_examples=60, deadline=None)
@given(v1=st.floats(-5, 5), v2=st.floats(-5, 5),
       delay=st.floats(-1e-6, 1e-6), rise=st.floats(1e-9, 1e-6),
       fall=st.floats(1e-9, 1e-6), width=st.floats(0.0, 1e-6),
       period=st.one_of(st.none(), st.floats(1e-8, 2e-6)),
       n=st.integers(1, 400), dt=st.floats(1e-10, 1e-8))
def test_pulse_at_grid_property(v1, v2, delay, rise, fall, width, period,
                                n, dt):
    wave = Pulse(v1, v2, delay=delay, rise=rise, fall=fall, width=width,
                 period=period)
    grid = np.linspace(0.0, n * dt, n + 1)
    scalar = np.array([wave.at(t) for t in grid], dtype=float)
    assert _bits(wave.at_grid(grid)) == _bits(scalar)


# ---------------------------------------------------------------------------
# Mixed populations: every row is its scalar run
# ---------------------------------------------------------------------------

#: Vccs values that null node ``n``'s self-conductance exactly: under
#: backward Euler (so the instance is singular at step 1) and under the
#: trapezoidal rule (singular from step 2 on, a mid-run demotion).  The
#: negative conductance makes either member unstable, so under
#: backward Euler the second one diverges and runs out of iterations
#: mid-run instead; both fail in their scalar runs too.
GM_SINGULAR_BE = -(2 * G_EXACT + C_EXACT / DT)
GM_SINGULAR_TRAP = -(2 * G_EXACT + 2 * C_EXACT / DT)


def _mixed(r, l, c, i_amp, vg, gm, jump):
    """One topology carrying every transient stamp the kernel knows.

    A periodic pulse drives a series R-L into a capacitor that a pulsed
    current source also feeds; a pulsed gate drives a common-source
    MOSFET stage (``vg`` picks its region); a Vccs can null a node's
    conductance exactly (``gm``); and ``jump`` volts arrive in one
    step on a resistor, which the 0.5 V Newton clamp turns into an
    iteration-limit failure once ``jump`` exceeds about 30 V.
    """
    ckt = Circuit("mixed")
    ckt.voltage_source(
        "Vin", "in", "0", dc=Pulse(0.0, 1.0, delay=2 * DT, rise=DT,
                                   fall=DT, width=3 * DT, period=8 * DT))
    ckt.resistor("R1", "in", "mid", r)
    ckt.inductor("L1", "mid", "out", l)
    ckt.capacitor("C1", "out", "0", c)
    ckt.current_source("I1", "0", "out",
                       dc=Pulse(0.0, i_amp, delay=DT, rise=DT,
                                width=DT, period=5 * DT))
    ckt.voltage_source("Vdd", "vdd", "0", dc=5.0)
    ckt.voltage_source("Vg", "g", "0",
                       dc=Pulse(vg, vg + 0.4, delay=3 * DT, rise=DT))
    ckt.resistor("Rd", "vdd", "d", 10e3)
    ckt.mosfet("M1", "d", "g", "0", kind="n", w=20e-6, l=1e-6)
    ckt.capacitor("Cd", "d", "0", 1e-6)
    ckt.voltage_source("Va", "a", "0",
                       dc=Pulse(0.5, 1.0, delay=2 * DT, rise=DT))
    ckt.resistor("Rs", "a", "n", 1.0 / G_EXACT)
    ckt.resistor("Rl", "n", "0", 1.0 / G_EXACT)
    ckt.vccs("Gx", "n", "0", "n", "0", gm)
    ckt.capacitor("Cn", "n", "0", C_EXACT)
    ckt.voltage_source("Vk", "k", "0",
                       dc=Pulse(0.0, jump, delay=4 * DT, rise=DT))
    ckt.resistor("Rk", "k", "0", 1e3)
    return ckt


_instance = st.tuples(
    st.floats(10.0, 1e3),           # r
    st.floats(1e-4, 1e-1),          # l
    st.floats(1e-7, 1e-5),          # c
    st.floats(-1e-3, 1e-3),         # i_amp
    st.floats(0.2, 2.5),            # vg: cutoff, saturation, triode
    st.sampled_from([-G_EXACT / 4, 0.0, G_EXACT / 8]),
    st.sampled_from([1.0, 5.0]),    # jump
)


#: The demoted members.  Their parameters are fixed so that their
#: scalar runs -- the singular ones fail slowly, through every
#: step-halving retry -- are made once per method, not per example.
SPECIALS = {
    "step-1": (100.0, 1e-2, 1e-6, 1e-4, 1.0, GM_SINGULAR_BE, 1.0),
    "mid-run singular": (100.0, 1e-2, 1e-6, 1e-4, 1.0,
                         GM_SINGULAR_TRAP, 1.0),
    "mid-run stuck": (100.0, 1e-2, 1e-6, 1e-4, 1.0, 0.0, 40.0),
}


@functools.lru_cache(maxsize=None)
def _scalar(spec, method):
    """The scalar outcome of one member: its result or its error."""
    try:
        return solve_transient(_mixed(*spec), N_STEPS * DT, DT,
                               method=method)
    except ConvergenceError as exc:
        return exc


def _replay(spec, method):
    """Serve a demoted row its cached scalar run."""
    outcome = _scalar(spec, method)
    if isinstance(outcome, ConvergenceError):
        raise outcome
    return outcome


# No shrink phase: every example integrates a population twice, so a
# shrink would run for minutes; the failing example prints as drawn.
@settings(max_examples=15, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(normal=st.lists(_instance, min_size=1, max_size=4),
       order=st.randoms(use_true_random=False))
def test_mixed_population_rows_are_their_scalar_runs(normal, order,
                                                     monkeypatch):
    members = [(None, spec) for spec in normal] + list(SPECIALS.items())
    order.shuffle(members)
    circuits = [_mixed(*spec) for _, spec in members]

    for method in ("trap", "be"):
        demoted = []

        def scalar_path(circuit, t_stop, dt, method):
            # A demoted row *is* the scalar run: serve the cached one.
            k = next(k for k, c in enumerate(circuits) if c is circuit)
            demoted.append(k)
            return _replay(members[k][1], method)

        monkeypatch.setattr(batch_mod._tran, "solve_transient",
                            scalar_path)
        res = CircuitBatch(circuits).solve_transient(
            N_STEPS * DT, DT, method=method)
        monkeypatch.undo()

        assert sorted(members[k][0] for k in demoted) == sorted(SPECIALS)
        for k, (_, spec) in enumerate(members):
            outcome = _scalar(spec, method)
            if isinstance(outcome, ConvergenceError):
                assert type(res.errors[k]) is type(outcome)
                assert not res.ok[k]
                assert np.all(np.isnan(res._X[k]))
            else:
                assert res.errors[k] is None and res.ok[k]
                assert _bits(res._X[k]) == _bits(outcome._X)
                assert _bits(res.t) == _bits(outcome.t)


def test_every_row_demoted_in_one_tick(monkeypatch):
    """A tick that demotes every live row ends the clock cleanly."""
    spec = SPECIALS["step-1"]
    circuits = [_mixed(*spec), _mixed(*spec)]
    monkeypatch.setattr(
        batch_mod._tran, "solve_transient",
        lambda circuit, t_stop, dt, method: _replay(spec, method))
    res = CircuitBatch(circuits).solve_transient(N_STEPS * DT, DT)
    for k in range(2):
        assert type(res.errors[k]) is ConvergenceError


def test_inactive_rows_stay_out_of_the_clock():
    circuits = [_mixed(100.0, 1e-2, 1e-6, 0.0, vg, 0.0, 1.0)
                for vg in (0.5, 1.0, 2.0)]
    res = CircuitBatch(circuits).solve_transient(
        N_STEPS * DT, DT, active=[0, 2])
    assert not res.ok[1] and res.errors[1] is None
    assert np.all(np.isnan(res._X[1]))
    for k in (0, 2):
        scalar = solve_transient(circuits[k], N_STEPS * DT, DT)
        assert _bits(res._X[k]) == _bits(scalar._X)


# ---------------------------------------------------------------------------
# What the clocks buy, and what telemetry sees
# ---------------------------------------------------------------------------

def _counters(tel):
    return {(c["name"], c.get("labels", {}).get("analysis")): c["value"]
            for c in tel.snapshot()["counters"]}


def test_canonical_benches_need_at_most_1100_ticks():
    """Both unity-gain transients of 128 canonical op-amp instances.

    Lockstep steps cost 2117 stacked solves here; with per-instance
    clocks every instance's Newton iterations ride the same ticks.
    """
    bench = OpAmpBench()
    params = [bench.sample_parameters(np.random.default_rng(stream))
              for stream in instance_streams(4, 128)]
    tel = Telemetry(run_id="ticks")
    previous = set_telemetry(tel)
    try:
        measure_opamp_batch(params)
    finally:
        set_telemetry(previous)
    counters = _counters(tel)
    assert counters[("repro_circuit_batch_solves_total", "tran")] == 2
    ticks = counters[("repro_circuit_newton_ticks_total", "tran")]
    assert ticks <= 1100
    assert counters[("repro_circuit_newton_iterations_total", "tran")] \
        > 100 * ticks
    for analysis in ("dc", "ac", "tran"):
        assert counters[("repro_circuit_batch_seconds_total",
                         analysis)] > 0.0


@NEEDS_NUMPY_24
def test_golden_population_with_telemetry_keeps_bits_and_iterations():
    """Telemetry on leaves the pinned population unchanged, and the
    clocks run exactly the Newton iterations the lockstep loop ran."""
    tel = Telemetry(run_id="golden")
    previous = set_telemetry(tel)
    try:
        ds = OpAmpBench().generate_dataset(POPULATION["n"],
                                           seed=POPULATION["seed"])
    finally:
        set_telemetry(previous)
    assert _sha(ds.values) == GOLDEN["population"]["values"]
    counters = _counters(tel)
    assert counters[("repro_circuit_newton_iterations_total",
                     "tran")] == 22516
    assert counters[("repro_circuit_newton_ticks_total", "tran")] \
        < counters[("repro_circuit_newton_iterations_total", "tran")]
