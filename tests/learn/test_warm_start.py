"""SMO warm starts, precomputed Gram matrices and SVC pickling."""

import pickle

import numpy as np
import pytest

from repro.learn.kernels import kernel_function
from repro.learn.smo import repair_alpha, solve_smo
from repro.learn.svm import SVC


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(120, 4))
    y = np.where(X[:, 0] + 0.4 * X[:, 1]
                 + 0.05 * rng.normal(size=120) > 0, 1.0, -1.0)
    return X, y


class TestRepairAlpha:
    def test_feasible_seed_untouched(self, problem):
        X, y = problem
        kernel = kernel_function("rbf", gamma=1.0)
        alpha = solve_smo(kernel, X, y, C=10.0).alpha
        repaired = repair_alpha(alpha, y, 10.0)
        assert np.allclose(repaired, alpha)

    def test_infeasible_seed_becomes_feasible(self, problem):
        _, y = problem
        repaired = repair_alpha(np.full(y.size, 3.0), y, 10.0)
        assert repaired is not None
        assert abs(float(np.dot(repaired, y))) < 1e-9
        assert np.all(repaired >= 0.0) and np.all(repaired <= 10.0)

    def test_out_of_box_seed_clipped(self, problem):
        _, y = problem
        seed = np.where(y > 0, 50.0, -5.0)
        repaired = repair_alpha(seed, y, 10.0)
        assert repaired is not None
        assert np.all(repaired <= 10.0) and np.all(repaired >= 0.0)

    def test_shape_mismatch_rejected(self):
        assert repair_alpha(np.zeros(3), np.ones(4), 1.0) is None


class TestWarmStart:
    def test_warm_start_from_solution_is_instant(self, problem):
        X, y = problem
        kernel = kernel_function("rbf", gamma=1.0)
        cold = solve_smo(kernel, X, y, C=10.0)
        warm = solve_smo(kernel, X, y, C=10.0, alpha_init=cold.alpha)
        assert warm.iterations == 0
        assert np.allclose(warm.alpha, cold.alpha)

    def test_warm_start_reaches_same_predictions(self, problem):
        X, y = problem
        # Seed from a *perturbed-label* solution (the loose/strict
        # situation): same optimum must be reached.
        y_flip = y.copy()
        y_flip[:4] = -y_flip[:4]
        kernel = kernel_function("rbf", gamma=1.0)
        seed = solve_smo(kernel, X, y_flip, C=10.0).alpha
        cold = SVC(C=10.0, gamma=1.0).fit(X, y)
        warm = SVC(C=10.0, gamma=1.0).fit(X, y, alpha_init=seed)
        assert np.array_equal(warm.predict(X), cold.predict(X))

    def test_garbage_seed_falls_back_to_cold_start(self, problem):
        X, y = problem
        kernel = kernel_function("rbf", gamma=1.0)
        bad = np.full(y.size, np.inf)
        result = solve_smo(kernel, X, y, C=10.0, alpha_init=bad)
        assert result.converged


class TestPrecomputedGram:
    def test_gram_path_is_bit_identical(self, problem):
        X, y = problem
        kernel = kernel_function("rbf", gamma=2.0)
        direct = solve_smo(kernel, X, y, C=5.0)
        via_gram = solve_smo(None, X, y, C=5.0, gram=kernel(X, X))
        assert np.array_equal(via_gram.alpha, direct.alpha)
        assert via_gram.bias == direct.bias
        assert via_gram.iterations == direct.iterations

    def test_wrong_gram_shape_rejected(self, problem):
        from repro.errors import LearningError

        X, y = problem
        with pytest.raises(LearningError):
            solve_smo(None, X, y, C=5.0, gram=np.eye(3))


class TestSVCPickling:
    def test_fitted_svc_roundtrips(self, problem):
        X, y = problem
        model = SVC(C=10.0, gamma=1.0).fit(X, y)
        clone = pickle.loads(pickle.dumps(model))
        assert np.array_equal(clone.predict(X), model.predict(X))
        assert np.allclose(clone.decision_function(X),
                           model.decision_function(X))

    def test_unfitted_svc_roundtrips(self):
        clone = pickle.loads(pickle.dumps(SVC(C=3.0)))
        assert clone.C == 3.0

    def test_constant_svc_roundtrips(self, problem):
        X, _ = problem
        model = SVC().fit(X, np.ones(X.shape[0]))
        clone = pickle.loads(pickle.dumps(model))
        assert np.all(clone.predict(X) == 1)

    def test_decision_function_bit_identical_after_pickle(self, problem):
        """The artifact layer serializes fitted SVCs and must get the
        exact same scorer back -- bit equality, not allclose."""
        X, y = problem
        model = SVC(C=10.0, gamma=1.0).fit(X, y)
        clone = pickle.loads(pickle.dumps(model))
        Xq = np.random.default_rng(9).normal(size=(200, 4))
        assert np.array_equal(clone.decision_function(Xq),
                              model.decision_function(Xq))

    def test_gram_cache_fit_bit_identical_after_pickle(self):
        """A model fitted through a shared Gram must round-trip to the
        identical decision function (the Gram itself is process-local
        and dropped on serialization)."""
        from repro.learn.kernels import SharedGram

        from tests.synthetic import make_synthetic_dataset

        train = make_synthetic_dataset(n=150, seed=3)
        names = train.names[:4]
        X = train.normalized_values(names)
        y = train.labels.astype(float)
        shared = SharedGram(X)
        model = SVC(C=50.0, gamma="scale")
        model.set_train_gram_view(shared)
        model.fit(X, y)
        # The shared Gram really served this fit (no silent fallback).
        assert shared._grams

        clone = pickle.loads(pickle.dumps(model))
        assert clone._gram_view is None
        Xq = np.random.default_rng(5).normal(0.5, 0.4, size=(300, 4))
        assert np.array_equal(clone.decision_function(Xq),
                              model.decision_function(Xq))
        assert np.array_equal(clone.decision_function(X),
                              model.decision_function(X))

    def test_gram_view_not_pickled(self, problem):
        X, y = problem

        class FakeView:
            def matches(self, A):
                return A.shape == X.shape

            def gram(self, gamma):
                k = kernel_function("rbf", gamma=gamma)
                return k(X, X)

        model = SVC(C=10.0, gamma=1.0)
        model.set_train_gram_view(FakeView())
        model.fit(X, y)
        clone = pickle.loads(pickle.dumps(model))
        assert clone._gram_view is None
        assert np.array_equal(clone.predict(X), model.predict(X))
