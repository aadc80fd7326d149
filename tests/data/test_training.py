"""Out-of-core training: bit identity with the in-RAM fits.

``GuardBandedClassifier(...).fit(store)`` on a shard store streams its
labels shard by shard and builds only the thin feature matrix.  Above
the SMO precompute limit (lowered here) every solve draws its kernel
columns from its own byte-bounded cache, whose budget decides only
which blocks stay cached, so the fit is bitwise the in-RAM fit at any
shard size and under eviction.
"""

import numpy as np
import pytest

from repro.core.guardband import GuardBandedClassifier
from repro.data import generate_shards
from repro.learn import SVC
from repro.learn import smo as smo_module
from repro.learn.columns import BLOCK_COLUMNS
from repro.learn.ovr import OneVsRestSVCBank
from repro.telemetry import Telemetry, set_telemetry

from tests.synthetic import SyntheticDut


class FixedSVCFactory:
    def __call__(self):
        return SVC(C=25.0, gamma=0.8)


#: 160 rows make three column blocks, one more than a two-block cache
#: holds.
N, SEED, SHARD_ROWS = 160, 13, 16
FEATURES = ["s0", "s1", "s2"]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("train") / "s"
    return generate_shards(root, SyntheticDut(), N, SEED,
                           shard_rows=SHARD_ROWS)


@pytest.fixture(scope="module")
def dataset(store):
    return store.to_dataset()


@pytest.fixture
def cache_route(monkeypatch):
    """Put every fit of the population on the column-cache route."""
    monkeypatch.setattr(smo_module, "PRECOMPUTE_LIMIT", 16)


def _fit(data):
    return GuardBandedClassifier(FEATURES, delta=0.05,
                                 model_factory=FixedSVCFactory()).fit(data)


def _assert_same_pair(a, b):
    for attr in ("_strict", "_loose"):
        model_a, model_b = getattr(a, attr), getattr(b, attr)
        assert model_a.alpha_.tobytes() == model_b.alpha_.tobytes()
        assert model_a.intercept_ == model_b.intercept_


class TestGuardBandedOutOfCore:
    def test_below_precompute_limit_identical(self, store, dataset):
        """Small problems precompute the Gram either way."""
        ram = _fit(dataset)
        ooc = _fit(store)
        _assert_same_pair(ram, ooc)
        assert np.array_equal(ram.predict_dataset(dataset),
                              ooc.predict_dataset(dataset))

    def test_above_precompute_limit_identical(self, store, dataset,
                                              cache_route):
        """The out-of-core regime: streamed labels and the solver's
        column cache match in-RAM bit for bit."""
        ram = _fit(dataset)
        ooc = _fit(store)
        _assert_same_pair(ram, ooc)
        # The pair differs, so strict and loose labels were not swapped.
        assert (ram._strict.alpha_.tobytes()
                != ram._loose.alpha_.tobytes())
        assert np.array_equal(ram.predict_dataset(dataset),
                              ooc.predict_dataset(store.to_dataset()))

    def test_eviction_pressure_changes_nothing(self, store, dataset,
                                               cache_route, monkeypatch):
        ram = _fit(dataset)
        # A budget of two blocks: the third evicts one on every pass.
        monkeypatch.setattr(smo_module, "CACHE_BYTES",
                            2 * 8 * N * BLOCK_COLUMNS)
        tel = Telemetry(run_id="evict")
        previous = set_telemetry(tel)
        try:
            ooc = _fit(store)
        finally:
            set_telemetry(previous)
        _assert_same_pair(ram, ooc)
        counters = {c["name"]: c["value"]
                    for c in tel.snapshot()["counters"]}
        # Two solves, three blocks each for the diagonal pass: any
        # fetch beyond those six recomputed an evicted block.
        assert counters["repro_learn_column_cache_misses_total"] > 6

    def test_sharding_geometry_is_invisible(self, tmp_path, dataset,
                                            cache_route):
        ram = _fit(dataset)
        for shard_rows in (8, 16, 32):
            other = generate_shards(
                tmp_path / "s{}".format(shard_rows), SyntheticDut(), N,
                SEED, shard_rows=shard_rows)
            _assert_same_pair(ram, _fit(other))


class TestOvrBankOutOfCore:
    def test_bank_with_column_cache_is_bitwise(self, store, dataset,
                                               cache_route):
        X = store.normalized_values(FEATURES)
        X_ram = dataset.project(FEATURES).normalized_values()
        assert np.array_equal(X, X_ram)
        # Deterministic 3-class grade labels from one feature.
        column = dataset.values[:, 0]
        y = np.digitize(column, np.quantile(column, [0.33, 0.66]))
        classes = sorted(set(y.tolist()))
        ram = OneVsRestSVCBank(classes,
                               model_factory=FixedSVCFactory()).fit(X_ram, y)
        ooc = OneVsRestSVCBank(classes,
                               model_factory=FixedSVCFactory()).fit(X, y)
        assert len(ram.models_) == len(ooc.models_) == 3
        for model, other in zip(ram.models_, ooc.models_):
            assert model.alpha_.tobytes() == other.alpha_.tobytes()
            assert model.intercept_ == other.intercept_
        assert np.array_equal(ram.predict_index(X_ram), ooc.predict_index(X))
