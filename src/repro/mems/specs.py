"""MEMS accelerometer specifications at three temperatures (Table 2).

Four specifications are measured at each of the cold (-40 C), room
(27 C) and hot (80 C) insertions, giving twelve specification tests:

* ``scale_factor`` -- readout output per g of acceleration (mV/g);
* ``peak_freq``    -- frequency of the displacement-response maximum (kHz);
* ``quality_factor`` -- resonance Q from the half-power bandwidth;
* ``bw_3db``       -- -3 dB bandwidth of the displacement response (kHz).

Test names follow ``"<spec>@<temp>C"`` (e.g. ``"peak_freq@-40C"``); use
:func:`tests_at_temperature` to select a temperature block, which is
what the Table 3 experiment eliminates wholesale.
"""

import numpy as np
from scipy.optimize import leastsq

from repro.circuit import analysis as ana
from repro.core.specs import Specification, SpecificationSet
from repro.errors import AnalysisError
from repro.mems import mechanics
from repro.mems.accelerometer import frequency_response
from repro.mems.geometry import AccelerometerGeometry
from repro.telemetry import get_telemetry

#: The three insertion temperatures (deg C): cold, room, hot.
TEMPERATURES = (-40.0, 27.0, 80.0)
#: Sweep grid for the displacement response (Hz).
SWEEP_FREQUENCIES = np.logspace(np.log10(200.0), np.log10(40e3), 121)

#: Base (per-temperature) specifications: name, unit, nominal, low, high.
#: Nominals from the unperturbed geometry at room temperature; ranges
#: calibrated for ~77 % yield over the Monte-Carlo population
#: (see EXPERIMENTS.md).
_BASE_SPECS = (
    ("scale_factor", "mV/g", 88.7, 59.5, 131.0,
     "capacitive readout output per g"),
    ("peak_freq", "kHz", 4.92, 3.92, 6.23,
     "displacement-response peak frequency"),
    ("quality_factor", "-", 1.99, 1.38, 3.04,
     "resonance quality factor"),
    ("bw_3db", "kHz", 7.81, 6.31, 9.78,
     "displacement-response -3 dB bandwidth"),
)


def test_name(spec_name, temperature_c):
    """Canonical test name for a specification at a temperature."""
    return "{}@{:g}C".format(spec_name, temperature_c)


def tests_at_temperature(temperature_c):
    """All four test names of one temperature insertion."""
    return tuple(test_name(base[0], temperature_c) for base in _BASE_SPECS)


def _build_specification_set():
    specs = []
    for temp in TEMPERATURES:
        for name, unit, nominal, low, high, description in _BASE_SPECS:
            specs.append(Specification(
                test_name(name, temp), unit, nominal, low, high,
                "{} at {:g} C".format(description, temp)))
    return SpecificationSet(specs)


#: Table 2 analog: twelve specification tests (4 specs x 3 temperatures).
MEMS_SPECIFICATIONS = _build_specification_set()

#: Residual-evaluation budget of one MINPACK fit.
_MAX_NFEV = 200
#: Relative forward-difference step of the fit Jacobian.
_FD_REL_STEP = np.finfo(float).eps ** 0.5


class _FitTally:
    """Fits and residual evaluations, counted locally.

    Published once per measurement call (never per fit) as
    ``repro_mems_fits_total`` / ``repro_mems_fit_evals_total``.
    """

    __slots__ = ("fits", "evals")

    def __init__(self):
        self.fits = 0
        self.evals = 0

    def publish(self):
        tel = get_telemetry()
        if tel.enabled and self.fits:
            tel.counter("repro_mems_fits_total", self.fits)
            tel.counter("repro_mems_fit_evals_total", self.evals)


def fit_second_order(freqs, response):
    """Least-squares fit of a second-order magnitude response.

    Fits ``|x(f)| = A / sqrt((1 - (f/f0)^2)^2 + (f / (f0 Q))^2)`` in
    log-magnitude space (parameters optimized as logarithms so they
    stay positive).  This is the standard way a characterization
    engineer extracts resonance parameters from a measured transfer
    curve, and it stays well defined for overdamped devices that have
    no interior resonant peak.

    Returns ``(A, f0, Q)``; raises :class:`~repro.errors.AnalysisError`
    when the fit does not converge within its evaluation budget.
    """
    return _fit_second_order(freqs, response, _FitTally())


def _fit_second_order(freqs, response, tally):
    """:func:`fit_second_order`, counting into ``tally``.

    The fit is MINPACK's Levenberg-Marquardt ``lmder`` (Moré, 1978)
    driven with exactly the arguments scipy (>= 1.16)
    ``least_squares(method="lm", max_nfev=200)`` passes it, and a
    Jacobian that reproduces scipy's 2-point ``approx_derivative``
    operation for operation -- so every fitted parameter is bitwise
    what ``least_squares`` returns, without its wrapper overhead.

    The log-magnitude residual at ``(log_a, log_f0, log_q)`` is built
    from terms, each computed once per point into preallocated
    buffers: ``u = (f/f0)**2`` and ``a = (1 - u)**2`` (``log_f0``
    only), ``half = 0.5 * log(a + u/q**2)`` and
    ``r = (log_a - half) - log_resp``.  Each forward-difference
    column recomputes only what its parameter moves: the ``log_a``
    column reuses the base point's ``half`` (no transcendental), the
    ``log_q`` column reuses its ``u`` and ``a`` (one scalar ``exp``),
    and the ``log_f0`` column is a full evaluation into scratch
    buffers.  The bits hold because every value is the same ufunc on
    the same operands in the same order as the plain residual
    ``log_a - 0.5 * log((1 - u)**2 + u / q**2) - log_resp``; scalar
    ``exp`` stays scalar, and ``log`` never runs in place.
    """
    if not isinstance(freqs, np.ndarray):
        freqs = list(freqs)
    freqs = np.asarray(freqs, dtype=float)
    response = np.asarray(response, dtype=float)
    if freqs.shape != response.shape or freqs.size < 5:
        raise AnalysisError("fit needs matching sweeps of >= 5 points")
    if not np.all(np.isfinite(response)) or np.any(response <= 0):
        raise AnalysisError("response must be finite and strictly positive")
    log_resp = np.log(response)
    # Terms of the point fun() last evaluated, and scratch terms for
    # the log_f0 column; mag2 is log's separate input.  Scalar operands
    # go in through 0-d arrays: they round like the float they hold
    # and skip numpy's per-call scalar conversion.
    u, a, mag2, half = np.empty((4, freqs.size))
    su, sa, smag2, shalf = np.empty((4, freqs.size))
    one, point5, s = np.array(1.0), np.array(0.5), np.empty(())

    def half_from_q(log_q, u, a, mag2, half):
        s[()] = np.exp(log_q) ** 2
        np.divide(u, s, mag2)
        np.add(a, mag2, mag2)
        np.log(mag2, half)
        np.multiply(point5, half, half)

    def terms(log_f0, log_q, u, a, mag2, half):
        s[()] = np.exp(log_f0)
        np.divide(freqs, s, u)
        np.square(u, u)
        np.subtract(one, u, a)
        np.square(a, a)
        half_from_q(log_q, u, a, mag2, half)

    def column(out, log_a, half, r0, step):
        # ((log_a - half) - log_resp - r0) / step, in place in a row.
        s[()] = log_a
        np.subtract(s, half, out)
        np.subtract(out, log_resp, out)
        np.subtract(out, r0, out)
        s[()] = step
        np.divide(out, s, out)

    # MINPACK asks for the residual and then the Jacobian at the same
    # point, and leastsq probes both at p0 before MINPACK does:
    # byte-equal repeats reuse the last result instead of recomputing.
    f_key, f_val, j_key, j_val = None, None, None, None
    n_evals = 0

    def fun(x):
        nonlocal f_key, f_val, n_evals
        key = x.tobytes()
        if key != f_key:
            terms(x[1], x[2], u, a, mag2, half)
            s[()] = x[0]
            r = np.subtract(s, half)
            np.subtract(r, log_resp, r)
            f_key, f_val = key, r
            n_evals += 1
        return f_val

    def jac(x):
        # scipy's 2-point rule, step by step, one perturbed column at
        # a time (a stacked evaluation takes numpy's other exp/log
        # paths).  Python floats round exactly like float64 scalars.
        # fun(x) leaves x's terms in the buffers the columns reuse.
        nonlocal j_key, j_val, n_evals
        key = x.tobytes()
        if key == j_key:
            return j_val
        r0 = fun(x)
        jt = np.empty((x.size, r0.size))
        steps = []
        for xi in x.tolist():
            axi = abs(xi)
            h = (_FD_REL_STEP * (1.0 if xi >= 0 else -1.0)
                 * (1.0 if axi <= 1.0 else axi))
            steps.append((xi + h, (xi + h) - xi))
        (a1, da), (f1, df), (q1, dq) = steps
        column(jt[0], a1, half, r0, da)
        terms(f1, x[2], su, sa, smag2, shalf)
        column(jt[1], x[0], shalf, r0, df)
        half_from_q(q1, u, a, smag2, shalf)
        column(jt[2], x[0], shalf, r0, dq)
        n_evals += x.size
        j_key, j_val = key, jt.T
        return j_val

    k_peak = int(np.argmax(response))
    f0_guess = freqs[k_peak] if 0 < k_peak < freqs.size - 1 else \
        float(np.sqrt(freqs[0] * freqs[-1]))
    p0 = np.log([float(response[0]), f0_guess, 1.5])
    x, ier = leastsq(fun, p0, Dfun=jac, ftol=1e-8, xtol=1e-8, gtol=1e-8,
                     maxfev=_MAX_NFEV)
    tally.fits += 1
    tally.evals += n_evals
    if ier not in (1, 2, 3, 4):
        raise AnalysisError(
            "second-order fit did not converge (MINPACK status {})"
            .format(ier))
    a, f0, q = np.exp(x)
    return float(a), float(f0), float(q)


def _specs_from_response(geometry, response, tally):
    """The four per-temperature specs from a displacement response.

    Shared by the scalar and batched measurement paths so both extract
    identically from identical sweeps.
    """
    m = mechanics.effective_mass(geometry)

    # Resonance parameters by curve fitting the simulated response.
    x_static, f0, q = _fit_second_order(SWEEP_FREQUENCIES, response, tally)

    # Scale factor: displacement per g times the capacitive sense gain.
    displacement_per_g = x_static * m * mechanics.G0
    scale_factor_mv = (displacement_per_g * mechanics.sense_gain(geometry)
                       * 1e3)

    # Peak of the displacement response; for overdamped fits (no
    # resonant peak) the convention is to report f0 itself.
    if q > 1.0 / np.sqrt(2.0):
        peak = f0 * np.sqrt(1.0 - 1.0 / (2.0 * q * q))
    else:
        peak = f0
    bw = ana.bandwidth_3db(SWEEP_FREQUENCIES, response)
    return {
        "scale_factor": scale_factor_mv,
        "peak_freq": peak / 1e3,
        "quality_factor": q,
        "bw_3db": bw / 1e3,
    }


def _named_specs_from_response(geometry, response, temperature_c,
                               tally):
    """Like :func:`_specs_from_response`, keyed by full test names."""
    return {test_name(base, temperature_c): value
            for base, value in
            _specs_from_response(geometry, response, tally).items()}


def measure_accelerometer(geometry=None):
    """All twelve specification tests of one accelerometer instance.

    Returns a dict keyed by the full test names of
    :data:`MEMS_SPECIFICATIONS`.
    """
    geometry = (geometry or AccelerometerGeometry()).validate()
    values = {}
    tally = _FitTally()
    try:
        for temp in TEMPERATURES:
            response = frequency_response(geometry, SWEEP_FREQUENCIES,
                                          temp)
            values.update(_named_specs_from_response(geometry, response,
                                                     temp, tally))
    finally:
        tally.publish()
    return values


class AccelerometerBench:
    """The accelerometer device-under-test for Monte-Carlo generation.

    Implements the DUT protocol of
    :func:`repro.process.montecarlo.generate_dataset`.

    Parameters
    ----------
    nominal:
        Base geometry; defaults to :class:`AccelerometerGeometry()`.
    relative_spread:
        Uniform half-width for lengths/widths.
    angle_sigma_deg:
        Gaussian sigma of the spring angular misalignment (degrees).
    specifications:
        Override the acceptability ranges (defaults to the calibrated
        :data:`MEMS_SPECIFICATIONS`).
    """

    name = "mems-accelerometer"

    def __init__(self, nominal=None, relative_spread=0.08,
                 angle_sigma_deg=1.0, specifications=None):
        self.nominal = (nominal or AccelerometerGeometry()).validate()
        self.relative_spread = float(relative_spread)
        self.angle_sigma_deg = float(angle_sigma_deg)
        self.specifications = specifications or MEMS_SPECIFICATIONS

    def sample_parameters(self, rng):
        """Draw one process-perturbed geometry."""
        return self.nominal.perturbed(
            rng, relative_spread=self.relative_spread,
            angle_sigma_deg=self.angle_sigma_deg)

    def measure(self, geometry):
        """Measure the twelve-test specification vector."""
        measured = measure_accelerometer(geometry)
        return np.array([measured[name]
                         for name in self.specifications.names])

    def measure_batch(self, geometries):
        """Measure many instances through the batched MNA kernel.

        All instances' displacement sweeps at each insertion
        temperature run as one stacked solve
        (:func:`repro.mems.accelerometer.frequency_response_batch`);
        the per-instance curve fits and spec extraction reuse the
        scalar code, so every row is bit-identical to :meth:`measure`.
        Returns one value row (or the instance's
        :class:`~repro.errors.ReproError`) per input.
        """
        from repro.mems.accelerometer import frequency_response_batch
        from repro.process.montecarlo import BatchPopulation

        pop = BatchPopulation(len(geometries))
        pop.build(lambda geometry: geometry.validate(), geometries)

        tally = _FitTally()
        for temp in TEMPERATURES:
            live = pop.live()
            if not live:
                break
            response, batch_errors = frequency_response_batch(
                [geometries[k] for k in live], SWEEP_FREQUENCIES, temp)
            alive = set(pop.absorb(live, batch_errors))
            for pos, k in enumerate(live):
                if k in alive:
                    pop.extract(k, _named_specs_from_response,
                                geometries[k], response[pos], temp, tally)
        tally.publish()
        return pop.rows(self.specifications.names)

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
