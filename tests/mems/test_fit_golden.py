"""Golden records and a scipy oracle for the MEMS second-order fit.

Every accelerometer specification is read off a fitted ``(A, f0, Q)``
(:func:`repro.mems.specs.fit_second_order`), so the fit is part of the
dataset contract: an optimization of it must leave every bit in place.

* The golden records pin ``float.hex`` of ``(A, f0, Q)`` for seeded
  sweeps (10 perturbed geometries x 3 temperatures, the synthetic
  under/overdamped curves of ``test_specs.py`` and two curves with no
  interior peak), plus the sha256 of a small generated dataset, checked
  on both slot paths.  They were recorded with the fit driven through
  ``scipy.optimize.least_squares(method="lm")``.
* The oracle compares the fit, byte for byte, with that
  ``least_squares`` call on ~100 seeded sweeps.

Both skip on scipy < 1.16: before 1.16 ``least_squares``' ``'lm'``
path called MINPACK's ``lmdif`` with ``diag=1`` rather than ``lmder``
with ``diag=None``, and that path was not checked against these
records.

To print the records of the current fit (e.g. after a deliberate
numerical change), run ``python tests/mems/test_fit_golden.py``.
"""

import hashlib

import numpy as np
import pytest
import scipy
from scipy.optimize import least_squares

from repro.mems import TEMPERATURES, AccelerometerBench
from repro.mems.accelerometer import (frequency_response,
                                      frequency_response_batch)
from repro.mems.specs import SWEEP_FREQUENCIES, fit_second_order
from repro.process.montecarlo import generate_dataset

from tests.synthetic import SLOT_PATHS

pytestmark = pytest.mark.skipif(
    tuple(int(p) for p in scipy.__version__.split(".")[:2]) < (1, 16),
    reason="scipy < 1.16 fits through lmdif(diag=1); records not checked")


def _curve(a, f0, q):
    u = (SWEEP_FREQUENCIES / f0) ** 2
    return a / np.sqrt((1 - u) ** 2 + u / q ** 2)


def _cases():
    """name -> response sweep of every golden fit."""
    bench = AccelerometerBench()
    cases = {}
    for seed in range(10):
        geometry = bench.sample_parameters(np.random.default_rng(seed))
        for temp in TEMPERATURES:
            cases["geometry{}@{:g}C".format(seed, temp)] = \
                frequency_response(geometry, SWEEP_FREQUENCIES, temp)
    cases["underdamped"] = _curve(2e-6, 5e3, 1.8)
    cases["overdamped"] = _curve(1e-6, 5e3, 0.5)
    # No interior peak: the f0 guess falls back to the sweep's
    # geometric mean (maximum at the first and at the last point).
    cases["lowpass"] = 1e-6 / np.sqrt(1 + (SWEEP_FREQUENCIES / 3e3) ** 2)
    cases["rising"] = 1e-6 * np.sqrt(SWEEP_FREQUENCIES
                                     / SWEEP_FREQUENCIES[0])
    return cases


def _record(response):
    return tuple(v.hex() for v in fit_second_order(SWEEP_FREQUENCIES,
                                                   response))


def _dataset_sha(path="batched"):
    ds = generate_dataset(SLOT_PATHS[path](AccelerometerBench()), 24,
                          seed=7)
    return hashlib.sha256(ds.values.tobytes()).hexdigest()


GOLDEN = {
    "geometry0@-40C": (
        "0x1.3affd00e6765bp+0", "0x1.29a07a56e2003p+12",
        "0x1.2d83f96128c0ep+1"),
    "geometry0@27C": (
        "0x1.2a0a9ef7b74ebp+0", "0x1.31fa11a4b3ef6p+12",
        "0x1.03bcb49b0be50p+1"),
    "geometry0@80C": (
        "0x1.1df52d115b062p+0", "0x1.385ff2fadb297p+12",
        "0x1.d9475336b6dcap+0"),
    "geometry1@-40C": (
        "0x1.a11a7bd60586cp-1", "0x1.5f8eb72dc73eep+12",
        "0x1.a94d6e7d20b4dp+1"),
    "geometry1@27C": (
        "0x1.909c2af099896p-1", "0x1.66b8affd82ae4p+12",
        "0x1.6ba2cee3a7ef9p+1"),
    "geometry1@80C": (
        "0x1.848d56988ba2bp-1", "0x1.6c3eb8ba6bc82p+12",
        "0x1.49828adf7aa31p+1"),
    "geometry2@-40C": (
        "0x1.c4dd2b28c5ad9p-1", "0x1.4d235f2259b0ap+12",
        "0x1.c93b497944367p+0"),
    "geometry2@27C": (
        "0x1.b0c6593edc481p-1", "0x1.54c851ec75fc0p+12",
        "0x1.87eb6fd9ef02fp+0"),
    "geometry2@80C": (
        "0x1.a236ccd82d225p-1", "0x1.5aaa06b28aeaep+12",
        "0x1.63ca526cbf356p+0"),
    "geometry3@-40C": (
        "0x1.ab64ff59f798ap-1", "0x1.582bb154bbee1p+12",
        "0x1.18a5c79782cb3p+1"),
    "geometry3@27C": (
        "0x1.984b35acd244ap-1", "0x1.60210e981b99bp+12",
        "0x1.e133af9fa1700p+0"),
    "geometry3@80C": (
        "0x1.8a7528f9735a6p-1", "0x1.6640691c6e8a5p+12",
        "0x1.b4e598550015cp+0"),
    "geometry4@-40C": (
        "0x1.11c52d08faa50p+0", "0x1.2bdb9bfb52e6bp+12",
        "0x1.0eab5e85e85a4p+1"),
    "geometry4@27C": (
        "0x1.04ec32e2d7641p+0", "0x1.3326c83fad5f4p+12",
        "0x1.d0a3388463820p+0"),
    "geometry4@80C": (
        "0x1.f74e8bdd20e1fp-1", "0x1.38c1ce33c5211p+12",
        "0x1.a6372d6f5c00fp+0"),
    "geometry5@-40C": (
        "0x1.e023eaf2d9b2fp-1", "0x1.54a3961f593a3p+12",
        "0x1.17b927890260ap+1"),
    "geometry5@27C": (
        "0x1.cc96c523d909dp-1", "0x1.5bcb2fbe36d86p+12",
        "0x1.de9f91bb35ad7p+0"),
    "geometry5@80C": (
        "0x1.be53507bb5ff8p-1", "0x1.614eacae6944bp+12",
        "0x1.b1e689117d80ep+0"),
    "geometry6@-40C": (
        "0x1.10bbbefe90375p+0", "0x1.2b34b98bc678bp+12",
        "0x1.3c90da65288eap+1"),
    "geometry6@27C": (
        "0x1.039989725d951p+0", "0x1.32ae676993222p+12",
        "0x1.0fe32958b641ep+1"),
    "geometry6@80C": (
        "0x1.f44a39194ca01p-1", "0x1.386c61615101dp+12",
        "0x1.ee5b613c779fep+0"),
    "geometry7@-40C": (
        "0x1.98f98a3c38690p-1", "0x1.63827b4ecc1f7p+12",
        "0x1.b1fec046b961ep+0"),
    "geometry7@27C": (
        "0x1.86f6450d76725p-1", "0x1.6b9b6f4833e9dp+12",
        "0x1.73f0d64415149p+0"),
    "geometry7@80C": (
        "0x1.79e618f6f686fp-1", "0x1.71d69dc188823p+12",
        "0x1.519cd53757917p+0"),
    "geometry8@-40C": (
        "0x1.6ac7651d3b020p-1", "0x1.688a267289d90p+12",
        "0x1.7824a3420c66dp+1"),
    "geometry8@27C": (
        "0x1.5d2f6c1ca77e5p-1", "0x1.6f7d9012b63a8p+12",
        "0x1.414214eaed3aep+1"),
    "geometry8@80C": (
        "0x1.5335e30a3a6c0p-1", "0x1.74dac0bb598c8p+12",
        "0x1.22e11a35c8934p+1"),
    "geometry9@-40C": (
        "0x1.3e8cb08f0382bp+0", "0x1.0c7be86cb781bp+12",
        "0x1.1b401497e98d0p+1"),
    "geometry9@27C": (
        "0x1.2c437ddf2ff22p+0", "0x1.1489d9e4ddf89p+12",
        "0x1.e8edbbe95cf43p+0"),
    "geometry9@80C": (
        "0x1.1f5126e6278dcp+0", "0x1.1ab3477999379p+12",
        "0x1.be0c496dfa369p+0"),
    "lowpass": (
        "0x1.0c6f7a0a29fb0p-20", "0x1.05aad1d7307ecp+20",
        "0x1.6ee011a1ac582p-9"),
    "overdamped": (
        "0x1.0c6f7a0b5ed87p-20", "0x1.387fffffffffap+12",
        "0x1.ffffffffffff1p-2"),
    "rising": (
        "0x1.a54b67e561f2ap-19", "0x1.efa1b15992c76p+14",
        "0x1.77290c2c95438p+2"),
    "underdamped": (
        "0x1.0c6f7a0b5ed90p-19", "0x1.3880000000004p+12",
        "0x1.ccccccccccca5p+0"),
}

DATASET_SHA256 = (
    "fab3f51d3c2917cfe48c32d31a81e067718448a32ed88d98b6b4c3ac5e398fd7")


@pytest.fixture(scope="module")
def cases():
    return _cases()


def test_golden_covers_every_case(cases):
    assert sorted(GOLDEN) == sorted(cases)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fit_matches_golden(cases, name):
    assert _record(cases[name]) == GOLDEN[name]


@pytest.mark.parametrize("path", sorted(SLOT_PATHS))
def test_dataset_matches_golden(path):
    assert _dataset_sha(path) == DATASET_SHA256


def _least_squares_fit(freqs, response):
    """The fit as a plain ``least_squares(method="lm")`` call."""
    log_resp = np.log(response)

    def residual(p):
        log_a, log_f0, log_q = p
        f0 = np.exp(log_f0)
        q = np.exp(log_q)
        u = (freqs / f0) ** 2
        mag2 = (1.0 - u) ** 2 + u / q ** 2
        return log_a - 0.5 * np.log(mag2) - log_resp

    k_peak = int(np.argmax(response))
    f0_guess = freqs[k_peak] if 0 < k_peak < freqs.size - 1 else \
        float(np.sqrt(freqs[0] * freqs[-1]))
    p0 = np.log([float(response[0]), f0_guess, 1.5])
    fit = least_squares(residual, p0, method="lm", max_nfev=200)
    a, f0, q = np.exp(fit.x)
    return float(a), float(f0), float(q)


def test_fit_is_byte_equal_to_least_squares():
    bench = AccelerometerBench()
    geometries = [bench.sample_parameters(np.random.default_rng(100 + k))
                  for k in range(34)]
    n_checked = 0
    for temp in TEMPERATURES:
        response, errors = frequency_response_batch(
            geometries, SWEEP_FREQUENCIES, temp)
        for k, error in enumerate(errors):
            if error is not None:
                continue
            got = fit_second_order(SWEEP_FREQUENCIES, response[k])
            want = _least_squares_fit(SWEEP_FREQUENCIES, response[k])
            assert [v.hex() for v in got] == [v.hex() for v in want], k
            n_checked += 1
    assert n_checked >= 90


if __name__ == "__main__":
    for name, response in sorted(_cases().items()):
        print('    "{}": (\n        "{}", "{}",\n        "{}"),'.format(
            name, *_record(response)))
    print()
    print('DATASET_SHA256 = (\n    "{}")'.format(_dataset_sha()))
