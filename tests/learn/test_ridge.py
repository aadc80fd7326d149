"""Ridge regression baseline tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LearningError
from repro.learn import RidgeRegressor


class TestRidgeRegressor:
    def test_recovers_exact_linear_map(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        w = np.array([2.0, -1.0, 0.5])
        y = X @ w + 3.0
        model = RidgeRegressor(alpha=1e-10).fit(X, y)
        assert np.allclose(model.coef_.ravel(), w, atol=1e-6)
        assert model.intercept_[0] == pytest.approx(3.0, abs=1e-6)
        assert np.allclose(model.predict(X), y, atol=1e-6)

    def test_multi_output(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 2))
        W = np.array([[1.0, -1.0, 2.0], [0.5, 3.0, 0.0]])
        Y = X @ W + np.array([1.0, 2.0, 3.0])
        model = RidgeRegressor(alpha=1e-10).fit(X, Y)
        assert model.predict(X).shape == Y.shape
        assert np.allclose(model.predict(X), Y, atol=1e-6)

    @given(alpha=st.floats(1e-8, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_regularization_shrinks_coefficients(self, alpha):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 2))
        y = X @ np.array([5.0, -5.0]) + rng.normal(0, 0.1, 50)
        small = RidgeRegressor(alpha=1e-10).fit(X, y)
        large = RidgeRegressor(alpha=alpha).fit(X, y)
        assert (np.linalg.norm(large.coef_)
                <= np.linalg.norm(small.coef_) + 1e-9)

    def test_noise_degrades_r2(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 2))
        y_clean = X @ np.array([1.0, 1.0])
        y_noisy = y_clean + rng.normal(0, 2.0, 200)
        model = RidgeRegressor().fit(X, y_noisy)
        residual = y_noisy - model.predict(X)
        r2 = 1.0 - (residual @ residual) / np.sum(
            (y_noisy - y_noisy.mean()) ** 2)
        assert r2 < 0.8

    def test_validation(self):
        with pytest.raises(LearningError):
            RidgeRegressor(alpha=-1.0)
        with pytest.raises(LearningError, match="not fitted"):
            RidgeRegressor().predict(np.zeros((1, 1)))
        with pytest.raises(LearningError):
            RidgeRegressor().fit(np.zeros((3, 1)), np.zeros(4))
