"""Measurement of the eleven op-amp specifications (paper Table 1).

Every specification is extracted from a first-principles simulation of
the amplifier with the :mod:`repro.circuit` MNA engine:

==================  ==========================================================
specification       testbench
==================  ==========================================================
gain                open-loop AC sweep via an L/C bias tee (DC unity feedback
                    through a huge inductor, AC drive through a huge capacitor)
bw_3db              same sweep, -3 dB corner of the open-loop response
ugf                 same sweep, 0 dB crossing
cm_gain             same netlist, both inputs driven in phase at 1 Hz
psrr_gain           same netlist, AC source on the supply at 1 Hz
iq                  DC operating point, current drawn from VDD
slew_rate           unity-gain transient, large (2.5 V) input step
rise_time           unity-gain transient, small (0.2 V) step, 10-90 %
overshoot           same small-step transient, fractional peak past final
settling_time       same small-step transient, 1 % band
isc                 DC with the output forced to mid-supply and the input
                    differentially overdriven (output-sourcing short current)
==================  ==========================================================

The acceptability ranges below were calibrated (see ``EXPERIMENTS.md``)
so Monte-Carlo yield lands in the paper's 75-85 % window.
"""

import numpy as np

from repro.circuit import analysis as ana
from repro.circuit.ac import solve_ac
from repro.circuit.batch import CircuitBatch
from repro.circuit.dc import solve_dc
from repro.circuit.devices import Pulse
from repro.circuit.netlist import Circuit
from repro.circuit.transient import solve_transient
from repro.core.specs import Specification, SpecificationSet
from repro.errors import AnalysisError, ReproError
from repro.opamp.design import OpAmpParameters, build_opamp

#: Input common-mode voltage used by every testbench (V).
VCM = 2.5
#: Bias-tee inductor (DC feedback, AC open) in henries.
BIAS_TEE_L = 1e6
#: Bias-tee capacitor (DC open, AC feed) in farads.
BIAS_TEE_C = 1.0
#: Open-loop AC sweep grid (Hz).
AC_FREQUENCIES = np.logspace(0.0, np.log10(3e7), 61)
#: Frequency for the scalar common-mode / supply-gain measurements (Hz).
LOW_FREQ = 1.0

#: Small-step transient settings: step size, output grid, total time.
STEP_AMPLITUDE = 0.2
STEP_DT = 8e-9
STEP_T = 3.0e-6
STEP_DELAY = 0.1e-6
#: Large-step (slew) transient settings.
SLEW_SWING = 2.5
SLEW_DT = 2.5e-8
SLEW_T = 5.0e-6
SLEW_DELAY = 0.2e-6

#: Table 1 analog: the eleven specifications with calibrated ranges.
#: Nominals were measured on the unperturbed design; ranges sit near the
#: 3 %/97 % Monte-Carlo quantiles (seed 42, 300 instances), which lands
#: the overall yield at ~75 % as in the paper (see EXPERIMENTS.md).
OPAMP_SPECIFICATIONS = SpecificationSet([
    Specification("gain", "V/V", 19400.0, 13700.0, 26800.0,
                  "open-loop DC differential gain"),
    Specification("bw_3db", "Hz", 140.0, 82.0, 248.0,
                  "open-loop -3 dB bandwidth"),
    Specification("ugf", "MHz", 2.51, 1.95, 3.35,
                  "unity-gain frequency"),
    Specification("slew_rate", "V/us", 1.06, 0.74, 1.59,
                  "large-signal slew rate, 20-80 % of a 2.5 V step"),
    Specification("rise_time", "ns", 179.0, 128.0, 251.0,
                  "10-90 % small-step rise time in unity gain"),
    Specification("overshoot", "%", 0.29, 0.0, 1.6,
                  "small-step overshoot in unity gain"),
    Specification("settling_time", "ns", 280.0, 200.0, 432.0,
                  "1 % settling time in unity gain"),
    Specification("iq", "uA", 104.0, 79.5, 135.5,
                  "quiescent supply current"),
    Specification("cm_gain", "V/V", 0.53, 0.0, 16.7,
                  "common-mode gain at 1 Hz (mismatch dominated)"),
    Specification("psrr_gain", "V/V", 0.84, 0.0, 30.2,
                  "power-supply-to-output gain at 1 Hz"),
    Specification("isc", "mA", 17.6, 13.9, 22.8,
                  "output-sourcing short-circuit current"),
])


def _ac_bench(params):
    """Open-loop bias-tee netlist shared by gain/BW/UGF/CM/PSRR."""
    ckt = Circuit("opamp-ac")
    ckt.voltage_source("Vdd", "vdd", "0", dc=params.vdd, ac=0.0)
    ckt.voltage_source("Vinp", "inp", "0", dc=VCM, ac=0.0)
    ckt.voltage_source("Vac2", "nac", "0", dc=0.0, ac=0.0)
    ckt.inductor("Lfb", "out", "inn", BIAS_TEE_L)
    ckt.capacitor("Cfb", "inn", "nac", BIAS_TEE_C)
    ckt.capacitor("CL", "out", "0", params.cl)
    build_opamp(ckt, params, "inp", "inn", "out", "vdd")
    return ckt


def _unity_bench(params, wave):
    """Unity-gain follower netlist for the transient measurements."""
    ckt = Circuit("opamp-tran")
    ckt.voltage_source("Vdd", "vdd", "0", dc=params.vdd)
    ckt.voltage_source("Vinp", "inp", "0", dc=wave)
    ckt.capacitor("CL", "out", "0", params.cl)
    build_opamp(ckt, params, "inp", "out", "out", "vdd")
    return ckt


def _short_bench(params):
    """Output forced to mid-supply with the input overdriven by +1 V."""
    ckt = Circuit("opamp-short")
    ckt.voltage_source("Vdd", "vdd", "0", dc=params.vdd)
    ckt.voltage_source("Vinp", "inp", "0", dc=VCM + 1.0)
    ckt.voltage_source("Vshort", "out", "0", dc=VCM)
    build_opamp(ckt, params, "inp", "out", "out", "vdd")
    return ckt


def _small_step_wave():
    """The shared small-step (rise/overshoot/settling) input pulse."""
    return Pulse(VCM - STEP_AMPLITUDE / 2, VCM + STEP_AMPLITUDE / 2,
                 delay=STEP_DELAY, rise=5e-9)


def _slew_wave():
    """The shared large-step (slew-rate) input pulse."""
    return Pulse(VCM - SLEW_SWING / 2, VCM + SLEW_SWING / 2,
                 delay=SLEW_DELAY, rise=2e-8)


def _open_loop_values(vout):
    """gain / bw_3db / ugf from the open-loop magnitude response."""
    values = {"gain": float(vout[0]),
              "bw_3db": ana.bandwidth_3db(AC_FREQUENCIES, vout)}
    try:
        values["ugf"] = ana.unity_gain_frequency(AC_FREQUENCIES, vout) / 1e6
    except AnalysisError:
        values["ugf"] = 0.0  # dead amplifier: guaranteed range failure
    return values


def _small_step_values(t, y):
    """rise_time / overshoot / settling_time from the step response."""
    y_start = float(np.interp(STEP_DELAY, t, y))
    y_end = float(np.mean(y[t > STEP_T - 5 * STEP_DT]))
    values = {
        "rise_time": ana.rise_time(t, y, y_start, y_end) * 1e9,
        "overshoot": ana.overshoot(
            y[t >= STEP_DELAY], y_start, y_end) * 100.0,
    }
    try:
        values["settling_time"] = ana.settling_time(
            t, y, y_end, band=0.01, t_step=STEP_DELAY) * 1e9
    except AnalysisError:
        # Never settled inside the window: clamp to the window length,
        # which is far outside the acceptability range.
        values["settling_time"] = (STEP_T - STEP_DELAY) * 1e9
    return values


def measure_opamp(params=None):
    """Measure all eleven specifications of one op-amp instance.

    Parameters
    ----------
    params:
        :class:`~repro.opamp.design.OpAmpParameters`; the nominal
        design when omitted.

    Returns
    -------
    dict
        Specification name -> measured value, in the units of
        :data:`OPAMP_SPECIFICATIONS`.
    """
    if params is None:
        params = OpAmpParameters()
    values = {}

    # ---- AC bench: gain, bandwidth, UGF, CM gain, PSRR gain, Iq --------
    ckt = _ac_bench(params)
    op = solve_dc(ckt)
    values["iq"] = -op.branch_current("Vdd") * 1e6  # uA drawn from VDD

    ckt.device("Vinp").ac = 0.5
    ckt.device("Vac2").ac = -0.5
    diff = solve_ac(ckt, AC_FREQUENCIES, op)
    values.update(_open_loop_values(np.abs(diff.v("out"))))

    ckt.device("Vinp").ac = 1.0
    ckt.device("Vac2").ac = 1.0
    cm = solve_ac(ckt, [LOW_FREQ], op)
    values["cm_gain"] = float(np.abs(cm.v("out"))[0])

    ckt.device("Vinp").ac = 0.0
    ckt.device("Vac2").ac = 0.0
    ckt.device("Vdd").ac = 1.0
    ps = solve_ac(ckt, [LOW_FREQ], op)
    values["psrr_gain"] = float(np.abs(ps.v("out"))[0])

    # ---- small-step transient: rise time, overshoot, settling ----------
    small = _unity_bench(params, _small_step_wave())
    tr = solve_transient(small, STEP_T, STEP_DT)
    values.update(_small_step_values(tr.t, tr.v("out")))

    # ---- large-step transient: slew rate --------------------------------
    big = _unity_bench(params, _slew_wave())
    tr2 = solve_transient(big, SLEW_T, SLEW_DT)
    values["slew_rate"] = ana.slew_rate(tr2.t, tr2.v("out")) / 1e6  # V/us

    # ---- short-circuit current ------------------------------------------
    sc = _short_bench(params)
    op_sc = solve_dc(sc)
    values["isc"] = abs(op_sc.branch_current("Vshort")) * 1e3  # mA

    return values


def measure_opamp_batch(params_list):
    """Measure many op-amp instances through the batched MNA kernel.

    Runs the same five analyses as :func:`measure_opamp` -- AC bench DC
    + three AC sweeps, small- and large-step transients, short-circuit
    DC -- but stacked across the whole population via
    :class:`repro.circuit.batch.CircuitBatch`, so each Newton tick and
    frequency point is one LAPACK call instead of ``len(params_list)``
    Python loops; both transients run on one unity-gain batch.  Values
    are bit-identical to the scalar path per instance (the MOSFET-only
    netlists meet the kernel's exact-parity contract).

    Returns
    -------
    list
        Per instance (input order): the specification-value dict, or
        the :class:`~repro.errors.ReproError` that instance's scalar
        measurement would have raised.  Failures never propagate across
        instances.
    """
    from repro.process.montecarlo import BatchPopulation

    pop = BatchPopulation(len(params_list))

    # ---- AC bench: Iq, open-loop sweep, CM gain, PSRR gain -------------
    keys, circuits = pop.build(_ac_bench, params_list)
    if keys:
        batch = CircuitBatch(circuits)
        position = {k: pos for pos, k in enumerate(keys)}
        op = batch.solve_dc()
        alive = pop.absorb(keys, op.errors)
        iq = -op.branch_current("Vdd") * 1e6
        for k in alive:
            pop.values[k]["iq"] = float(iq[position[k]])

        def ac_pass(vinp, vac2, vdd, freqs, active_keys):
            """One batched AC configuration; returns surviving keys."""
            for circuit in circuits:
                circuit.device("Vinp").ac = vinp
                circuit.device("Vac2").ac = vac2
                circuit.device("Vdd").ac = vdd
            res = batch.solve_ac(
                freqs, op.x, active=[position[k] for k in active_keys])
            return res, pop.absorb(
                active_keys, [res.errors[position[k]]
                              for k in active_keys])

        diff, alive = ac_pass(0.5, -0.5, 0.0, AC_FREQUENCIES, alive)
        vout = np.abs(diff.v("out"))
        for k in alive:
            pop.extract(k, _open_loop_values, vout[position[k]])
        alive = [k for k in alive if pop.errors[k] is None]

        cm, alive = ac_pass(1.0, 1.0, 0.0, [LOW_FREQ], alive)
        cm_out = np.abs(cm.v("out"))
        for k in alive:
            pop.values[k]["cm_gain"] = float(cm_out[position[k], 0])

        ps, alive = ac_pass(0.0, 0.0, 1.0, [LOW_FREQ], alive)
        ps_out = np.abs(ps.v("out"))
        for k in alive:
            pop.values[k]["psrr_gain"] = float(ps_out[position[k], 0])

    # ---- both transients on one unity-gain batch -----------------------
    # The slew run swaps each live circuit's Vinp waveform, as ac_pass
    # swaps AC magnitudes; every waveform is read at solve time.
    small_wave = _small_step_wave()
    keys, circuits = pop.build(
        lambda p: _unity_bench(p, small_wave), params_list)
    if keys:
        batch = CircuitBatch(circuits)
        position = {k: pos for pos, k in enumerate(keys)}

        # ---- small-step transient: rise time, overshoot, settling ------
        tr = batch.solve_transient(STEP_T, STEP_DT)
        alive = pop.absorb(keys, tr.errors)
        y_all = tr.v("out")
        for k in alive:
            pop.extract(k, _small_step_values, tr.t, y_all[position[k]])
        alive = [k for k in alive if pop.errors[k] is None]

        # ---- large-step transient: slew rate ----------------------------
        slew_wave = _slew_wave()
        for k in alive:
            circuits[position[k]].device("Vinp").wave = slew_wave
        tr2 = batch.solve_transient(
            SLEW_T, SLEW_DT, active=[position[k] for k in alive])
        alive = pop.absorb(alive, [tr2.errors[position[k]]
                                   for k in alive])
        y_all = tr2.v("out")
        for k in alive:
            pop.extract(
                k, lambda t, y: {"slew_rate": ana.slew_rate(t, y) / 1e6},
                tr2.t, y_all[position[k]])

    # ---- short-circuit current ------------------------------------------
    keys, circuits = pop.build(_short_bench, params_list)
    if keys:
        op_sc = CircuitBatch(circuits).solve_dc()
        alive = pop.absorb(keys, op_sc.errors)
        isc = np.abs(op_sc.branch_current("Vshort")) * 1e3
        for pos, k in enumerate(keys):
            if k in alive:
                pop.values[k]["isc"] = float(isc[pos])

    out = []
    for k in range(len(params_list)):
        if pop.errors[k] is not None:
            out.append(pop.errors[k])
        else:
            out.append(pop.values[k])
    return out


class OpAmpBench:
    """The op-amp device-under-test for Monte-Carlo data generation.

    Implements the DUT protocol consumed by
    :func:`repro.process.montecarlo.generate_dataset`:
    :attr:`specifications`, :meth:`sample_parameters` and
    :meth:`measure`.

    Parameters
    ----------
    nominal:
        Base design; defaults to :class:`OpAmpParameters()`.
    relative_spread:
        Half-width of the uniform process disturbance applied to every
        varied parameter (paper: "randomly altering the MOSFET lengths
        and widths and capacitor values within <x> % of their nominal
        values").
    specifications:
        Override the acceptability ranges (defaults to the calibrated
        :data:`OPAMP_SPECIFICATIONS`).
    """

    name = "opamp"

    def __init__(self, nominal=None, relative_spread=0.15,
                 specifications=None):
        self.nominal = (nominal or OpAmpParameters()).validate()
        self.relative_spread = float(relative_spread)
        self.specifications = specifications or OPAMP_SPECIFICATIONS

    def sample_parameters(self, rng):
        """Draw one process-perturbed parameter set."""
        return self.nominal.perturbed(rng, self.relative_spread)

    def measure(self, params):
        """Measure the specification vector of one instance."""
        measured = measure_opamp(params)
        return np.array([measured[name]
                         for name in self.specifications.names])

    def measure_batch(self, params_list):
        """Measure many instances through the batched MNA kernel.

        Returns one specification row (or the instance's
        :class:`~repro.errors.ReproError`) per input, bit-identical to
        :meth:`measure` per instance; see :func:`measure_opamp_batch`.
        """
        names = self.specifications.names
        out = []
        for measured in measure_opamp_batch(params_list):
            if isinstance(measured, ReproError):
                out.append(measured)
            else:
                out.append(np.array([measured[name] for name in names]))
        return out

    def generate_dataset(self, n_instances, seed, on_error="resample",
                         n_jobs=None, max_failures=None,
                         return_report=False):
        """Convenience wrapper around the Monte-Carlo generator.

        ``n_jobs`` fans the instance simulations out across worker
        processes; whole slot batches go through :meth:`measure_batch`
        and the vectorized MNA kernel (bit-identical dataset at any
        worker count); see
        :func:`repro.process.montecarlo.generate_dataset`.
        """
        from repro.process.montecarlo import generate_dataset

        return generate_dataset(self, n_instances, seed=seed,
                                on_error=on_error, n_jobs=n_jobs,
                                max_failures=max_failures,
                                return_report=return_report)

