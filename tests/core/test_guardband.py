"""Guard-banded classifier tests (paper Sections 3.3 / 4.2)."""

import numpy as np
import pytest

from repro.core.guardband import AutoTunedSVCFactory, GuardBandedClassifier
from repro.core.metrics import GUARD
from repro.core.specs import BAD, GOOD
from repro.errors import CompactionError
from repro.learn import SVC

from tests.synthetic import make_synthetic_dataset


def _fixed_factory():
    return SVC(C=50.0, gamma="scale")


class TestGuardBandedClassifier:
    def test_no_elimination_is_exact_box_check(self):
        """With every test kept, prediction = direct range analysis."""
        ds = make_synthetic_dataset(n=200, seed=5)
        model = GuardBandedClassifier(ds.names, delta=0.0,
                                      model_factory=_fixed_factory)
        model.fit(ds)
        pred = model.predict_dataset(ds)
        assert np.array_equal(pred, ds.labels)

    def test_no_elimination_with_guard_has_zero_error(self):
        ds = make_synthetic_dataset(n=200, seed=5)
        model = GuardBandedClassifier(ds.names, delta=0.05,
                                      model_factory=_fixed_factory)
        model.fit(ds)
        pred = model.predict_dataset(ds)
        confident = pred != GUARD
        assert np.array_equal(pred[confident], ds.labels[confident])

    def test_eliminated_spec_predicted_from_redundancy(self):
        """With 3 latent dims and 6 specs, dropping one is recoverable."""
        train = make_synthetic_dataset(n=500, seed=1)
        test = make_synthetic_dataset(n=300, seed=2)
        kept = list(train.names[:-1])
        model = GuardBandedClassifier(kept, delta=0.05,
                                      model_factory=_fixed_factory)
        model.fit(train)
        pred = model.predict_dataset(test)
        confident = pred != GUARD
        errors = np.mean(pred[confident] != test.labels[confident])
        assert errors < 0.03

    def test_guard_band_devices_near_boundaries(self):
        """Devices flagged guard-band lie near a range boundary more
        often than confidently classified ones."""
        train = make_synthetic_dataset(n=500, seed=1)
        model = GuardBandedClassifier(train.names, delta=0.08,
                                      model_factory=_fixed_factory)
        model.fit(train)
        pred = model.predict_dataset(train)
        Z = train.normalized_values()
        dist_to_boundary = np.minimum(np.abs(Z), np.abs(Z - 1.0)).min(axis=1)
        guard = pred == GUARD
        if guard.any() and (~guard).any():
            assert dist_to_boundary[guard].mean() < \
                dist_to_boundary[~guard].mean()

    def test_delta_zero_never_guards(self):
        train = make_synthetic_dataset(n=300, seed=3)
        model = GuardBandedClassifier(train.names[:4], delta=0.0,
                                      model_factory=_fixed_factory)
        model.fit(train)
        pred = model.predict_dataset(train)
        assert GUARD not in pred

    def test_wider_guard_band_flags_more_devices(self):
        train = make_synthetic_dataset(n=400, seed=4)
        rates = []
        for delta in (0.02, 0.08):
            model = GuardBandedClassifier(train.names[:5], delta=delta,
                                          model_factory=_fixed_factory)
            model.fit(train)
            rates.append(np.mean(model.predict_dataset(train) == GUARD))
        assert rates[0] <= rates[1]

    def test_predict_measurements_matches_dataset_path(self):
        train = make_synthetic_dataset(n=300, seed=6)
        kept = list(train.names[:4])
        model = GuardBandedClassifier(kept, delta=0.05,
                                      model_factory=_fixed_factory)
        model.fit(train)
        a = model.predict_dataset(train)
        b = model.predict_measurements(train.project(kept).values)
        assert np.array_equal(a, b)

    def test_confident_fraction(self):
        train = make_synthetic_dataset(n=300, seed=6)
        model = GuardBandedClassifier(train.names, delta=0.05,
                                      model_factory=_fixed_factory)
        model.fit(train)
        frac = model.confident_fraction(train)
        pred = model.predict_dataset(train)
        assert frac == pytest.approx(np.mean(pred != GUARD))

    def test_gram_cache_leaves_predictions_unchanged(self):
        """A fit through a shared Gram cache (the greedy loop's path)
        predicts like one without (grid compaction, table3, cost)."""
        from repro.runtime.kernel_cache import GramCache

        train = make_synthetic_dataset(n=200, seed=5)
        test = make_synthetic_dataset(n=150, seed=6)
        kept = train.names[:4]
        cache = GramCache.from_dataset(train)
        cached = GuardBandedClassifier(kept, delta=0.05,
                                       model_factory=_fixed_factory,
                                       kernel_cache=cache).fit(train)
        plain = GuardBandedClassifier(kept, delta=0.05,
                                      model_factory=_fixed_factory).fit(train)
        assert cache.stats["gram_hits"] + cache.stats["gram_misses"] > 0
        assert np.array_equal(cached.predict_dataset(test),
                              plain.predict_dataset(test))

    def test_validation(self):
        ds = make_synthetic_dataset(n=50)
        with pytest.raises(CompactionError):
            GuardBandedClassifier([], delta=0.05)
        with pytest.raises(CompactionError):
            GuardBandedClassifier(["s0"], delta=-0.1)
        model = GuardBandedClassifier(["nope"], delta=0.05)
        with pytest.raises(CompactionError, match="lacks"):
            model.fit(ds)
        unfit = GuardBandedClassifier(["s0"])
        with pytest.raises(CompactionError, match="not fitted"):
            unfit.predict_features(np.zeros((1, 1)))


class TestAutoTunedFactory:
    def test_tunes_then_builds_with_best_params(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (150, 2))
        y = np.where(X[:, 0] ** 2 + X[:, 1] ** 2 < 0.5, 1, -1)
        factory = AutoTunedSVCFactory(
            param_grid={"C": [10.0], "gamma": [0.5, 8.0]})
        factory.tune(X, y.astype(float))
        assert factory.best_params_["C"] == 10.0
        model = factory()
        assert model.C == 10.0

    def test_tuned_kernel_overrides_the_rbf_default(self):
        """A grid over "kernel" builds the winner, not a TypeError."""
        rng = np.random.default_rng(2)
        X = rng.normal(size=(90, 2))
        y = np.where(X[:, 0] + 0.3 * X[:, 1] > 0, 1.0, -1.0)
        factory = AutoTunedSVCFactory(
            param_grid={"C": [1.0, 10.0], "kernel": ["rbf", "linear"]})
        factory.tune(X, y)
        assert factory.best_params_["kernel"] in ("rbf", "linear")
        model = factory().fit(X, y)
        assert model.kernel == factory.best_params_["kernel"]
        assert model.C == factory.best_params_["C"]
        assert model.score(X, y) > 0.9

    def test_single_class_skips_tuning(self):
        factory = AutoTunedSVCFactory()
        factory.tune(np.zeros((30, 2)), np.ones(30))
        assert factory.best_params_ == {}
        assert isinstance(factory(), SVC)

    def test_subsampling_applies(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        factory = AutoTunedSVCFactory(
            param_grid={"C": [10.0], "gamma": [1.0]}, max_tune_samples=50)
        factory.tune(X, y)
        assert factory.best_params_ is not None
