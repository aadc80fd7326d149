"""Out-of-core training: bit identity with the in-RAM fits."""

import numpy as np
import pytest

from repro.core.guardband import GuardBandedClassifier
from repro.data import fit_guard_banded, fit_ovr_bank, generate_shards
from repro.errors import LearningError
from repro.learn import SVC
from repro.learn import smo as smo_module
from repro.learn.ovr import OneVsRestSVCBank

from tests.synthetic import SyntheticDut


class FixedSVCFactory:
    def __call__(self):
        return SVC(C=25.0, gamma=0.8)


N, SEED, SHARD_ROWS = 90, 13, 16


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("train") / "s"
    return generate_shards(root, SyntheticDut(), N, SEED,
                           shard_rows=SHARD_ROWS)


@pytest.fixture(scope="module")
def dataset(store):
    return store.to_dataset()


def _assert_same_pair(a, b):
    for attr in ("_strict", "_loose"):
        model_a, model_b = getattr(a, attr), getattr(b, attr)
        assert model_a.alpha_.tobytes() == model_b.alpha_.tobytes()
        assert model_a.intercept_ == model_b.intercept_


class TestGuardBandedOutOfCore:
    FEATURES = ["s0", "s1", "s2"]

    def _fit(self, data, budget):
        return fit_guard_banded(data, self.FEATURES, delta=0.05,
                                model_factory=FixedSVCFactory(),
                                column_budget=budget)

    def test_below_precompute_limit_identical(self, store, dataset):
        """Small problems precompute either way: trivially identical."""
        ram = self._fit(dataset, None)
        ooc = self._fit(store, 1 << 20)
        _assert_same_pair(ram, ooc)
        assert np.array_equal(ram.predict_dataset(dataset),
                              ooc.predict_dataset(dataset))

    def test_above_precompute_limit_identical(self, store, dataset,
                                              monkeypatch):
        """The real out-of-core regime: streamed labels + bounded
        kernel-column cache must still match in-RAM bit for bit."""
        monkeypatch.setattr(smo_module, "PRECOMPUTE_LIMIT", 16)
        ram = self._fit(dataset, None)
        ooc = self._fit(store, 4 << 20)
        _assert_same_pair(ram, ooc)
        assert np.array_equal(ram.predict_dataset(dataset),
                              ooc.predict_dataset(store.to_dataset()))

    def test_eviction_pressure_changes_nothing(self, store, dataset,
                                               monkeypatch):
        monkeypatch.setattr(smo_module, "PRECOMPUTE_LIMIT", 16)
        ram = self._fit(dataset, None)
        # Budget of ~2 blocks: constant eviction during the fit.
        tiny = 2 * 8 * N * 64
        ooc = self._fit(store, tiny)
        _assert_same_pair(ram, ooc)

    def test_sharding_geometry_is_invisible(self, tmp_path, dataset,
                                            monkeypatch):
        monkeypatch.setattr(smo_module, "PRECOMPUTE_LIMIT", 16)
        ram = self._fit(dataset, None)
        for shard_rows in (8, 32):
            other = generate_shards(
                tmp_path / "s{}".format(shard_rows), SyntheticDut(),
                N, SEED, shard_rows=shard_rows)
            _assert_same_pair(ram, self._fit(other, 4 << 20))

    def test_classifier_accepts_store_directly(self, store, dataset):
        clf = GuardBandedClassifier(
            self.FEATURES, delta=0.05,
            model_factory=FixedSVCFactory()).fit(store)
        ram = GuardBandedClassifier(
            self.FEATURES, delta=0.05,
            model_factory=FixedSVCFactory()).fit(dataset)
        _assert_same_pair(ram, clf)


class TestOvrBankOutOfCore:
    def _labels(self, dataset):
        """Deterministic 3-class grade labels from one feature."""
        column = dataset.values[:, 0]
        edges = np.quantile(column, [0.33, 0.66])
        return np.digitize(column, edges)

    def test_bank_with_column_cache_is_bitwise(self, store, dataset,
                                               monkeypatch):
        monkeypatch.setattr(smo_module, "PRECOMPUTE_LIMIT", 16)
        X = store.normalized_values(["s0", "s1", "s2"])
        assert np.array_equal(
            X, dataset.project(["s0", "s1", "s2"]).normalized_values())
        y = self._labels(dataset)
        plain = OneVsRestSVCBank(sorted(set(y.tolist())),
                                 model_factory=FixedSVCFactory()).fit(X, y)
        banked = fit_ovr_bank(X, y, model_factory=FixedSVCFactory(),
                              column_budget=4 << 20)
        assert len(plain.models_) == len(banked.models_) == 3
        for model, other in zip(plain.models_, banked.models_):
            assert model.alpha_.tobytes() == other.alpha_.tobytes()
            assert model.intercept_ == other.intercept_
        assert np.array_equal(plain.predict(X), banked.predict(X))
        # The column cache lives for the fit only.
        assert banked._column_source is None

    def test_bank_requires_two_classes(self, dataset):
        X = dataset.normalized_values(["s0"])
        with pytest.raises(LearningError):
            fit_ovr_bank(X, np.zeros(len(X), dtype=int))
