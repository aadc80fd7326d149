"""A plain-residual oracle for the MEMS second-order fit.

:func:`repro.mems.specs.fit_second_order` builds its residual from
terms kept in preallocated buffers, and each Jacobian column recomputes
only the terms its parameter moves.  The oracle here is the plain form
of the same fit: the whole residual evaluated at every point and at
every perturbed column, driven through the same ``leastsq`` call.  Both
must return the same bits, fail on the same sweeps and count the same
residual evaluations.

Unlike the golden records in ``test_fit_golden.py``, this needs no
particular scipy: it compares two sets of callbacks on one MINPACK, so
it runs on every supported version.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import leastsq

from repro.errors import AnalysisError
from repro.mems import TEMPERATURES, AccelerometerBench
from repro.mems import specs as mems_specs
from repro.mems.accelerometer import frequency_response_batch
from repro.mems.specs import SWEEP_FREQUENCIES

pytestmark = pytest.mark.filterwarnings(
    "ignore:Number of calls:RuntimeWarning")


def _plain_fit(freqs, response, max_nfev):
    """The fit with a whole residual per point and per column.

    Returns ``(float.hex of (A, f0, Q) or None when MINPACK does not
    converge, residual evaluations)``.
    """
    freqs = np.asarray(freqs, dtype=float)
    log_resp = np.log(np.asarray(response, dtype=float))

    def residual(p):
        log_a, log_f0, log_q = p
        f0 = np.exp(log_f0)
        q = np.exp(log_q)
        u = (freqs / f0) ** 2
        mag2 = (1.0 - u) ** 2 + u / q ** 2
        return log_a - 0.5 * np.log(mag2) - log_resp

    f_key, f_val, j_key, j_val = None, None, None, None
    n_evals = 0

    def fun(x):
        nonlocal f_key, f_val, n_evals
        key = x.tobytes()
        if key != f_key:
            f_key, f_val = key, residual(x)
            n_evals += 1
        return f_val

    def jac(x):
        nonlocal j_key, j_val, n_evals
        key = x.tobytes()
        if key == j_key:
            return j_val
        r0 = fun(x)
        jt = np.empty((x.size, r0.size))
        for i, xi in enumerate(x.tolist()):
            axi = abs(xi)
            h = (mems_specs._FD_REL_STEP * (1.0 if xi >= 0 else -1.0)
                 * (1.0 if axi <= 1.0 else axi))
            x1 = x.copy()
            x1[i] = xi + h
            jt[i] = (residual(x1) - r0) / ((xi + h) - xi)
        n_evals += x.size
        j_key, j_val = key, jt.T
        return j_val

    k_peak = int(np.argmax(response))
    f0_guess = freqs[k_peak] if 0 < k_peak < freqs.size - 1 else \
        float(np.sqrt(freqs[0] * freqs[-1]))
    p0 = np.log([float(response[0]), f0_guess, 1.5])
    x, ier = leastsq(fun, p0, Dfun=jac, ftol=1e-8, xtol=1e-8, gtol=1e-8,
                     maxfev=max_nfev)
    if ier not in (1, 2, 3, 4):
        return None, n_evals
    return tuple(float(v).hex() for v in np.exp(x)), n_evals


def _fit(freqs, response):
    """The shipped fit, in the oracle's terms."""
    tally = mems_specs._FitTally()
    try:
        fit = mems_specs._fit_second_order(freqs, response, tally)
    except AnalysisError as exc:
        assert "did not converge" in str(exc)
        fit = None
    else:
        fit = tuple(v.hex() for v in fit)
    assert tally.fits == 1
    return fit, tally.evals


def _assert_matches_oracle(response, freqs=SWEEP_FREQUENCIES):
    assert _fit(freqs, response) == _plain_fit(freqs, response,
                                               mems_specs._MAX_NFEV)


def _curve(a, f0, q):
    u = (SWEEP_FREQUENCIES / f0) ** 2
    return a / np.sqrt((1 - u) ** 2 + u / q ** 2)


SYNTHETIC = {
    "underdamped": _curve(2e-6, 5e3, 1.8),
    "overdamped": _curve(1e-6, 5e3, 0.5),
    "lowpass": 1e-6 / np.sqrt(1 + (SWEEP_FREQUENCIES / 3e3) ** 2),
    "rising": 1e-6 * np.sqrt(SWEEP_FREQUENCIES / SWEEP_FREQUENCIES[0]),
}


@given(log10_a=st.floats(-9.0, -3.0), f0=st.floats(300.0, 30e3),
       q=st.floats(0.2, 30.0), noise=st.floats(0.0, 0.3),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_noisy_curves_match_the_plain_fit(log10_a, f0, q, noise, seed):
    rng = np.random.default_rng(seed)
    response = _curve(10.0 ** log10_a, f0, q) * np.exp(
        noise * rng.standard_normal(SWEEP_FREQUENCIES.size))
    _assert_matches_oracle(response)


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_curves_match_the_plain_fit(name):
    _assert_matches_oracle(SYNTHETIC[name])


def test_list_frequencies_match_the_plain_fit():
    _assert_matches_oracle(SYNTHETIC["underdamped"],
                           freqs=SWEEP_FREQUENCIES.tolist())


@pytest.mark.parametrize("max_nfev", [1, 2, 5, 12])
@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_exhausted_budgets_fail_like_the_plain_fit(monkeypatch, name,
                                                   max_nfev):
    monkeypatch.setattr(mems_specs, "_MAX_NFEV", max_nfev)
    _assert_matches_oracle(SYNTHETIC[name])


def test_seeded_geometries_match_the_plain_fit():
    bench = AccelerometerBench()
    geometries = [bench.sample_parameters(np.random.default_rng(100 + k))
                  for k in range(34)]
    n_checked = 0
    for temp in TEMPERATURES:
        response, errors = frequency_response_batch(
            geometries, SWEEP_FREQUENCIES, temp)
        for k, error in enumerate(errors):
            if error is None:
                _assert_matches_oracle(response[k])
                n_checked += 1
    assert n_checked >= 90
