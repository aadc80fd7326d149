"""SVC and SMO solver tests."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LearningError
from repro.learn import SVC
from repro.learn.smo import solve_smo
from repro.learn.kernels import kernel_function


def _blobs(n=60, separation=4.0, seed=0):
    rng = np.random.default_rng(seed)
    X1 = rng.normal([separation / 2, 0], 0.5, (n // 2, 2))
    X2 = rng.normal([-separation / 2, 0], 0.5, (n - n // 2, 2))
    X = np.vstack([X1, X2])
    y = np.r_[np.ones(n // 2), -np.ones(n - n // 2)]
    return X, y


class TestSmo:
    def test_separable_problem_zero_training_error(self):
        X, y = _blobs()
        kernel = kernel_function("rbf", gamma=1.0)
        result = solve_smo(kernel, X, y, C=10.0)
        assert result.converged
        f = kernel(X, X) @ (result.alpha * y) + result.bias
        assert np.all(np.sign(f) == y)

    def test_dual_constraint_satisfied(self):
        X, y = _blobs(seed=3)
        kernel = kernel_function("rbf", gamma=1.0)
        result = solve_smo(kernel, X, y, C=5.0)
        assert abs(np.sum(result.alpha * y)) < 1e-8
        assert np.all(result.alpha >= -1e-12)
        assert np.all(result.alpha <= 5.0 + 1e-12)

    @given(C=st.floats(0.1, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_box_constraint_property(self, C):
        X, y = _blobs(n=40, separation=1.0, seed=7)
        kernel = kernel_function("rbf", gamma=1.0)
        result = solve_smo(kernel, X, y, C=C)
        assert np.all(result.alpha >= -1e-12)
        assert np.all(result.alpha <= C + 1e-10)
        assert abs(np.sum(result.alpha * y)) < 1e-8

    def test_invalid_inputs(self):
        X, y = _blobs(n=10)
        kernel = kernel_function("linear")
        with pytest.raises(LearningError, match="positive"):
            solve_smo(kernel, X, y, C=-1.0)
        with pytest.raises(LearningError, match="-1/\\+1"):
            solve_smo(kernel, X, np.arange(10.0), C=1.0)
        with pytest.raises(LearningError, match="non-negative"):
            solve_smo(kernel, X, y, C=1.0, tol=-1e-3)


class TestSvc:
    def test_fit_predict_separable(self):
        X, y = _blobs()
        model = SVC().fit(X, y)
        assert model.score(X, y) == 1.0
        assert set(np.unique(model.predict(X))) <= {-1, 1}

    def test_generalization_on_circle(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, (400, 2))
        y = np.where(np.hypot(X[:, 0], X[:, 1]) < 1.2, 1.0, -1.0)
        model = SVC(C=10.0, gamma=2.0).fit(X, y)
        Xt = rng.uniform(-2, 2, (300, 2))
        yt = np.where(np.hypot(Xt[:, 0], Xt[:, 1]) < 1.2, 1.0, -1.0)
        assert model.score(Xt, yt) > 0.93

    def test_linear_kernel_on_linear_boundary(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 3))
        y = np.where(X @ np.array([1.0, -2.0, 0.5]) > 0, 1.0, -1.0)
        model = SVC(kernel="linear", C=10.0).fit(X, y)
        assert model.score(X, y) > 0.97

    def test_decision_function_sign_matches_predict(self):
        X, y = _blobs(seed=9)
        model = SVC().fit(X, y)
        scores = model.decision_function(X)
        assert np.array_equal(np.where(scores >= 0, 1, -1),
                              model.predict(X))

    def test_chunked_decision_function_matches(self):
        """The streaming floor's memory-bounded scoring path computes
        the same scores up to BLAS shape effects in the last ulp, and
        the same labels."""
        X, y = _blobs(n=80, seed=13)
        model = SVC().fit(X, y)
        Xq = np.random.default_rng(2).normal(size=(101, 2))
        reference = model.decision_function(Xq)
        for chunk in (1, 7, 100, 5000):
            chunked = model.decision_function(Xq, chunk_size=chunk)
            assert np.allclose(chunked, reference, rtol=0.0, atol=1e-12)
            assert np.array_equal(np.where(chunked >= 0, 1, -1),
                                  model.predict(Xq))
        assert np.array_equal(model.predict(Xq, chunk_size=7),
                              model.predict(Xq))

    def test_invalid_chunk_size_rejected(self):
        X, y = _blobs(n=30)
        model = SVC().fit(X, y)
        with pytest.raises(LearningError, match="chunk_size"):
            model.decision_function(X, chunk_size=0)

    def test_single_class_degenerates_to_constant(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        model = SVC().fit(X, np.ones(20))
        assert np.all(model.predict(np.random.normal(size=(5, 2))) == 1)
        model2 = SVC().fit(X, -np.ones(20))
        assert np.all(model2.predict(X) == -1)

    def test_single_row_prediction(self):
        X, y = _blobs()
        model = SVC().fit(X, y)
        one = model.predict(X[0])
        assert one.shape == (1,)

    def test_unfitted_raises(self):
        with pytest.raises(LearningError, match="not fitted"):
            SVC().predict(np.zeros((1, 2)))

    def test_feature_count_mismatch_raises(self):
        X, y = _blobs()
        model = SVC().fit(X, y)
        with pytest.raises(LearningError, match="features"):
            model.predict(np.zeros((1, 5)))

    def test_label_validation(self):
        X = np.zeros((4, 2))
        with pytest.raises(LearningError, match="-1/\\+1"):
            SVC().fit(X, np.array([0, 1, 2, 3]))

    def test_stacked_fit_rejects_bad_labels_before_any_solve(self):
        X, y = _blobs()
        good, bad = SVC(), SVC()
        with pytest.raises(LearningError, match="-1/\\+1"):
            SVC.fit_stack([good, bad], [X, X],
                          [y, np.where(y > 0, 1.0, 2.0)])
        with pytest.raises(LearningError, match="not fitted"):
            good.predict(X)

    def test_clone_copies_hyperparameters(self):
        model = SVC(C=3.0, kernel="poly", degree=4)
        clone = model.clone()
        assert clone.get_params() == model.get_params()
        assert clone is not model

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_training_labels_respected_when_separable(self, seed):
        """Well-separated data is always fit perfectly."""
        X, y = _blobs(n=30, separation=6.0, seed=seed)
        model = SVC(C=100.0, gamma=1.0).fit(X, y)
        assert model.score(X, y) == 1.0


class TestSupportNormCache:
    """The RBF path caches support-vector norms; results never show it."""

    def test_refit_scores_equal_a_fresh_model(self):
        X1, y1 = _blobs(seed=1)
        X2, y2 = _blobs(n=80, separation=2.0, seed=2)
        probe = np.random.default_rng(3).normal(0.0, 2.0, (50, 2))
        model = SVC(C=5.0)
        model.fit(X1, y1).decision_function(probe)  # warm the cache
        refit = model.fit(X2, y2).decision_function(probe)
        fresh = SVC(C=5.0).fit(X2, y2).decision_function(probe)
        assert np.array_equal(refit, fresh)

    def test_scores_equal_the_uncached_kernel(self):
        X, y = _blobs(n=80, separation=2.0, seed=4)
        model = SVC(C=5.0).fit(X, y)
        probe = np.random.default_rng(5).normal(0.0, 2.0, (33, 2))
        kernel = kernel_function("rbf", gamma=model.gamma_)
        direct = (kernel(probe, model.support_vectors_) @ model.dual_coef_
                  + model.intercept_)
        assert np.array_equal(model.decision_function(probe), direct)
        assert np.array_equal(model.decision_function(probe), direct)

    def test_pickle_carries_no_norm_cache(self):
        X, y = _blobs(seed=6)
        cold = SVC().fit(X, y)
        warm = SVC().fit(X, y)
        warm.decision_function(X)
        assert "_sv_norms" not in warm.__getstate__()
        assert pickle.dumps(warm) == pickle.dumps(cold)
        restored = pickle.loads(pickle.dumps(warm))
        assert np.array_equal(restored.decision_function(X),
                              warm.decision_function(X))
