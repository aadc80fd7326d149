"""Golden records for batched op-amp generation, pinned bit for bit.

The batched MNA kernel (:mod:`repro.circuit.batch`) simulates whole
Monte-Carlo populations; every op-amp specification value is read off
its DC, AC and transient solutions.  An optimization of the kernel that
claims bit-identity is checked here against records of a seeded
population, not assumed:

``population``
    a 24-row dataset on the default (batched) path: the SHA-256 of the
    bytes of ``values`` and of ``labels``, plus ``float.hex`` of every
    spec of the first row and of the first spec of the last row;
``resample``
    a failure-injecting bench whose failed slots are resampled from
    their own streams: the SHA-256 of ``values``, and the report's
    ``n_failed`` / ``n_simulated``.

The records were made with numpy 2.4.6 (bundled OpenBLAS 0.3.31,
x86-64).  The stacked ``gesv`` factorizations run through LAPACK, so a
different BLAS build can move the last bits; the module skips on
numpy < 2.4, whose builds were not checked against these records.

To print the records of the current code (e.g. after a deliberate
numerical change), run ``python tests/opamp/test_batch_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.opamp import OpAmpBench

from tests.runtime.test_simulation import FlakyOpAmpBench

pytestmark = pytest.mark.skipif(
    tuple(int(p) for p in np.__version__.split(".")[:2]) < (2, 4),
    reason="records made with numpy 2.4; older builds not checked")

POPULATION = dict(n=24, seed=61)
RESAMPLE = dict(n=6, seed=31, max_failures=50)


def _sha(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _population():
    ds = OpAmpBench().generate_dataset(
        POPULATION["n"], seed=POPULATION["seed"])
    return {
        "values": _sha(ds.values),
        "labels": _sha(ds.labels),
        "first_row": {name: float.hex(float(v))
                      for name, v in zip(ds.names, ds.values[0])},
        "last_first": float.hex(float(ds.values[-1, 0])),
    }


def _resample():
    ds, report = FlakyOpAmpBench().generate_dataset(
        RESAMPLE["n"], seed=RESAMPLE["seed"],
        max_failures=RESAMPLE["max_failures"], return_report=True)
    return {"values": _sha(ds.values), "labels": _sha(ds.labels),
            "n_failed": report.n_failed,
            "n_simulated": report.n_simulated}


GOLDEN = {
    "population": {
        "values": "3a6769547415c53c088e638c603e406a"
                  "c14622dac2b36c35d681e618ce1c1e14",
        "labels": "f722ee4235cf7463b816f21ba35c29a8"
                  "223c1760fdce58ef85695e8bbb330917",
        "first_row": {
            "bw_3db": "0x1.18a8025c01614p+7",
            "cm_gain": "0x1.f0388d4541628p+2",
            "gain": "0x1.4af6dd51c194fp+14",
            "iq": "0x1.9bf1f83a5303cp+6",
            "isc": "0x1.2efe8ed61d16bp+4",
            "overshoot": "0x1.992567f1a522fp-2",
            "psrr_gain": "0x1.884a01a371c16p+1",
            "rise_time": "0x1.409ea9c980ac2p+7",
            "settling_time": "0x1.0000000000001p+8",
            "slew_rate": "0x1.364b8bac0abd5p+0",
            "ugf": "0x1.5b9741124a1fap+1",
        },
        "last_first": "0x1.5937efec94ee1p+14",
    },
    "resample": {
        "values": "ac7200c9d186ba445a9a4908c9e0e219"
                  "28b495d4a75ec666c4bcdd9c954be498",
        "labels": "fa7d2bffdb1ff535e8fba0e9f844607c"
                  "1285a47147a8caccf5ed87fc466bf65f",
        "n_failed": 2,
        "n_simulated": 8,
    },
}


def test_population_is_bitwise_pinned():
    assert _population() == GOLDEN["population"]


def test_resampled_population_is_bitwise_pinned():
    record = _resample()
    assert record["n_failed"] > 0  # the resample path is exercised
    assert record == GOLDEN["resample"]


if __name__ == "__main__":
    import pprint

    pprint.pprint({"population": _population(), "resample": _resample()},
                  width=76)
