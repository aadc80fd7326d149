"""Golden dispositions: the floor's batch kernel pinned bit for bit.

Each case streams one seeded synthetic traffic pattern -- in-spec
devices followed by a drifted tail that fires the drift charts --
through :meth:`repro.floor.engine.TestFloor.dispose` at a fixed batch
size, and pins three SHA-256 digests:

``arrays``
    the bytes and dtype of every batch's ``decisions``,
    ``first_pass``, ``truth``, ``truth_bins`` and ``bins``;
``scalars``
    every batch's ``float.hex`` of ``cost``/``full_cost``, its
    ``counts()``, ``bin_counts()`` and ``n_bin_retested`` (dict key
    order included: it is the service reply layout);
``chart``
    the drift monitor's final ``chart_state()``, floats as
    ``float.hex`` and alarms field by field.

The programs are the committed v1 artifact (live guard-banded SVM
pair, and with a grid lookup table attached) and the same artifact
graded with a one-vs-rest bin bank, at batch sizes 1, 16 and 256, plus
the ``accept``/``reject`` retest policies.  An optimization of the
disposition path that claims bit-identity is checked here, not
assumed.

The records were made with numpy 2.4.6 (bundled OpenBLAS 0.3.31,
x86-64).  The live and bank programs score through BLAS matrix
products and the bank is trained by SMO, so a different BLAS build can
move a knife-edge decision; the module skips on numpy < 2.4, whose
builds were not checked against these records.

To print the records of the current code (e.g. after a deliberate
change to the disposition contract), run
``python tests/floor/test_dispose_golden.py``.
"""

import copy
import hashlib
import json
import os

import numpy as np
import pytest

from repro.floor import TestFloor as Floor
from repro.floor import TestProgramArtifact as Artifact
from repro.rules import ToleranceProfile, ToleranceRule
from repro.runtime.simulation import generate_instance_batches

from tests.synthetic import SyntheticDut, make_synthetic_dataset

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixtures")
V1_PATH = os.path.join(FIXTURE_DIR, "v1_artifact.rtp")

pytestmark = pytest.mark.skipif(
    tuple(int(p) for p in np.__version__.split(".")[:2]) < (2, 4),
    reason="records made with numpy 2.4; older builds not checked")

ARRAYS = ("decisions", "first_pass", "truth", "truth_bins", "bins")
BATCH_SIZES = (1, 16, 256)


def _program(kind):
    artifact = copy.copy(Artifact.load(V1_PATH))
    if kind == "lookup":
        return artifact.with_lookup(resolution=21)
    if kind == "bank":
        profile = ToleranceProfile(
            "speed-grades",
            [ToleranceRule("FAST", {"s0": (0.5, 1.0)}),
             ToleranceRule("TYP", {"s0": (-0.5, 0.5)}),
             ToleranceRule("SLOW", {"s0": (-1.0, -0.5)})],
            default_bin="REJECT")
        return artifact.with_profile(
            profile, train=make_synthetic_dataset(n=300, seed=71),
            train_bank=True)
    return artifact


def _traffic():
    """600 in-spec devices, then 200 shifted ones (fires the charts)."""
    rows = np.vstack(list(generate_instance_batches(
        SyntheticDut(), 800, 4242, batch_size=200)))
    rows[600:] += 0.35
    return rows


def _floor(kind, policy):
    kwargs = {"retest_policy": policy}
    if kind == "bank":
        kwargs["bin_boundary_margin"] = 0.25
    return Floor(_program(kind), **kwargs)


def _hex(value):
    return float.hex(float(value))


def _chart(state):
    """``chart_state()`` as JSON-able data, floats exact."""
    return {
        "window_devices": state["window_devices"],
        "devices_seen": state["devices_seen"],
        "specs": {name: [_hex(c["mean"]), _hex(c["z"])]
                  for name, c in state["specs"].items()},
        "guard": (None if state["guard"] is None
                  else [_hex(state["guard"]["rate"]),
                        _hex(state["guard"]["z"])]),
        "bins": {name: _hex(rate) for name, rate in state["bins"].items()},
        "alarms": [[a.kind, a.subject, _hex(a.observed), _hex(a.expected),
                    _hex(a.z_score), _hex(a.threshold), a.window_devices]
                   for a in state["alarms"]],
    }


def _digest(data):
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def _record(floor, rows, batch_size):
    arrays = hashlib.sha256()
    scalars = []
    for start in range(0, rows.shape[0], batch_size):
        outcome = floor.dispose(rows[start:start + batch_size])
        for name in ARRAYS:
            array = np.ascontiguousarray(getattr(outcome, name))
            arrays.update(name.encode())
            arrays.update(str(array.dtype).encode())
            arrays.update(array.tobytes())
        scalars.append([float.hex(outcome.cost),
                        float.hex(outcome.full_cost),
                        outcome.counts(), outcome.bin_counts(),
                        outcome.n_bin_retested])
    return {"arrays": arrays.hexdigest(), "scalars": _digest(scalars),
            "chart": _digest(_chart(floor.monitor.chart_state()))}


CASES = {
    "{}|{}|b{}".format(kind, policy, batch_size): (kind, policy, batch_size)
    for kind in ("live", "lookup", "bank")
    for policy in ("full_retest",)
    for batch_size in BATCH_SIZES
}
CASES.update({
    "live|{}|b16".format(policy): ("live", policy, 16)
    for policy in ("accept", "reject")
})


GOLDEN = {
    "bank|full_retest|b1": {
        "arrays": "3c90f92fe918ef1a6d89fe7274dbf9cf10f231b6fa5803f4ee1123be68e7d04d",
        "scalars": "4269e814dc610c86f617b13666a7392821aa7ca39782b609c71d8468987f087f",
        "chart": "89b25938d5ec3486d11ca94a8114c30e380d7c3a8a7694d1373436a1b5cc8cd9"},
    "bank|full_retest|b16": {
        "arrays": "41a55af4d6c4f69c92b44e5b8028f5d76d0a057a389e5d7dc46c0ec28b808bfb",
        "scalars": "68e07b9cdcc25ea47c5616dc42802a76728f1b0dc337c740719ab67e08460a89",
        "chart": "e9e9788d12386fb91335c396959df55be15e4bcbffa9a4d6624cfd548468af0c"},
    "bank|full_retest|b256": {
        "arrays": "dd679ff870442d19aa2ff0edd2587dd71c444813ec6ee71e5a702f6fac483625",
        "scalars": "a3766d7afe5e8915c97a00ceb483b7a914a788bf84b515fd6d3f7fb401f5b782",
        "chart": "9db80bb4b999f3d2303cac5627fd71fa6f66b08c2ecf9d7d8391e46e9528ccef"},
    "live|accept|b16": {
        "arrays": "13d122792bf7d0bd2053fa06fec341045a6caf7aadac28f014419e4707a3846d",
        "scalars": "394e8eec38ee0aa9f18ecbfbcfa9202620fe1829f2afef6cf37526377eb85a7f",
        "chart": "34049c07488c4ba555ba48c0e6a993b26683d51362d9021f9ad12c27d865dd9b"},
    "live|full_retest|b1": {
        "arrays": "4a2fa9f1d189a6096a8d49f13c6d42ebe6f92ac0657b9b8785db1a6d59b192bd",
        "scalars": "6dbd42503da59e7f63a0e75323518fc4f57b60d7b057454c4088930e66286111",
        "chart": "6247229cc0f2c5e51a5a1307682a71a13f12030863e9bd0550505acabf0d95f0"},
    "live|full_retest|b16": {
        "arrays": "16bbffecb50b42ec23d0fc5246fdf3d33252b7aac7ea64ec1cc505cab821c266",
        "scalars": "3e8ba2c7568cf08db60bff0f9e236450d8c22b3a42126cead84a363eb493fba3",
        "chart": "e1f50c3415900e0e4e5ce1df08b4dd69a550874368b641bc0ca8d8737150e4d9"},
    "live|full_retest|b256": {
        "arrays": "8238445770be1c19769832c8ad4e70ea6e6929c0e2f20adc3255608c359cd4dd",
        "scalars": "93c3682c0e776a585411bab2c6a3ec67d6fd42a6b0735474741833eb998fb527",
        "chart": "7090efbb4a34498361565cd4c64a7056a88fc5a61df304b674e8f98e6b4964bc"},
    "live|reject|b16": {
        "arrays": "46d2e02509e71843c16068756231a91dc143c0524247c167519afc14b6056bc5",
        "scalars": "95f5fe76924afb4f112779c0ac399fc88d8ea2a5e4851e215a9a75a1c20ccf55",
        "chart": "0ed4264101382ce7a04b31b2591edf206d6177fb1cadd1feca084eac6128d3dd"},
    "lookup|full_retest|b1": {
        "arrays": "62644532a1276473488566fdb77f8f69b123e3ee98a5bb391740361f28b9f9e3",
        "scalars": "84413bbebe97ce5a0cfc3f512741f65b6f812f5e3696f48005cfcbe247a1cda1",
        "chart": "6247229cc0f2c5e51a5a1307682a71a13f12030863e9bd0550505acabf0d95f0"},
    "lookup|full_retest|b16": {
        "arrays": "7ed779ff3344bf32b96c56a34b076765f4e6abd0737ed1e9659f2208fadc4b38",
        "scalars": "7bebdb3ffab2198a0a46013e76a5b0fbf748b7e9c34505674e6efc5e55f5ef83",
        "chart": "d0582af4e3d9b45dc9b673e525c472585cb12e06616f43cfcb14b36600a5c1c4"},
    "lookup|full_retest|b256": {
        "arrays": "a4726449f16b55b7813bdab15e8eb612a6935142ba56771514c0211c81f18438",
        "scalars": "0e955faf755cdc52728bd3d4d964c26b1a28432ffd4ce78e4adc37e803e247a6",
        "chart": "46074187b2f43ef395f8480a8fb5b281087801c00cce872896d08bb498c5923e"},
}


@pytest.fixture(scope="module")
def traffic():
    return _traffic()


@pytest.mark.parametrize("name", sorted(CASES))
def test_disposition_is_bitwise_pinned(name, traffic):
    kind, policy, batch_size = CASES[name]
    assert _record(_floor(kind, policy), traffic, batch_size) == GOLDEN[name]


def test_traffic_exercises_every_outcome(traffic):
    """The pinned stream ships, scraps, guard-bands and fires alarms."""
    floor = _floor("bank", "full_retest")
    outcome = floor.dispose(traffic)
    counts = outcome.counts()
    assert counts["n_shipped"] and counts["n_scrapped"]
    assert counts["n_guard"] and counts["n_defect_escape"] >= 0
    assert outcome.n_bin_retested > 0
    assert floor.monitor.alarms()


if __name__ == "__main__":
    rows = _traffic()
    for case in sorted(CASES):
        record = _record(_floor(*CASES[case][:2]), rows, CASES[case][2])
        print('    "{}": {{\n        "arrays": "{}",\n'
              '        "scalars": "{}",\n        "chart": "{}"}},'.format(
                  case, record["arrays"], record["scalars"],
                  record["chart"]))
