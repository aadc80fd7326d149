"""Kernel function tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import LearningError
from repro.learn import kernels
from repro.learn.kernels import (
    SharedGram, kernel_function, resolve_gamma, squared_distances,
)

from tests.synthetic import make_synthetic_dataset


def _matrix(rows, cols=3):
    return arrays(np.float64, (rows, cols),
                  elements=st.floats(-5, 5, allow_nan=False))


class TestSquaredDistances:
    def test_simple_case(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        B = np.array([[0.0, 1.0]])
        d2 = squared_distances(A, B)
        assert d2[0, 0] == pytest.approx(1.0)
        assert d2[1, 0] == pytest.approx(2.0)

    @given(A=_matrix(4))
    @settings(max_examples=30, deadline=None)
    def test_self_distance_zero_diagonal(self, A):
        d2 = squared_distances(A, A)
        assert np.allclose(np.diagonal(d2), 0.0, atol=1e-9)
        assert np.all(d2 >= 0.0)

    @given(A=_matrix(3), B=_matrix(5))
    @settings(max_examples=30, deadline=None)
    def test_matches_bruteforce(self, A, B):
        d2 = squared_distances(A, B)
        brute = np.array([[np.sum((a - b) ** 2) for b in B] for a in A])
        assert np.allclose(d2, brute, atol=1e-7)


class TestKernels:
    def test_linear_is_dot_product(self):
        k = kernel_function("linear")
        A = np.array([[1.0, 2.0]])
        B = np.array([[3.0, 4.0]])
        assert k(A, B)[0, 0] == pytest.approx(11.0)

    def test_rbf_bounds_and_identity(self):
        k = kernel_function("rbf", gamma=0.7)
        A = np.random.default_rng(0).normal(size=(6, 3))
        K = k(A, A)
        assert np.allclose(np.diagonal(K), 1.0)
        assert np.all((K > 0.0) & (K <= 1.0 + 1e-12))

    @given(gamma=st.floats(0.01, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_rbf_gram_positive_semidefinite(self, gamma):
        A = np.random.default_rng(1).normal(size=(8, 2))
        K = kernel_function("rbf", gamma=gamma)(A, A)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > -1e-9

    def test_poly_kernel(self):
        k = kernel_function("poly", gamma=1.0, degree=2, coef0=1.0)
        A = np.array([[1.0, 0.0]])
        assert k(A, A)[0, 0] == pytest.approx(4.0)  # (1*1 + 1)^2

    def test_sigmoid_kernel_bounded(self):
        k = kernel_function("sigmoid", gamma=0.5, coef0=0.0)
        A = np.random.default_rng(2).normal(size=(5, 4))
        K = k(A, A)
        assert np.all(np.abs(K) <= 1.0)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(LearningError, match="unknown kernel"):
            kernel_function("wavelet")


class TestResolveGamma:
    def test_scale_uses_variance(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0]])
        expected = 1.0 / (2 * X.var())
        assert resolve_gamma("scale", X) == pytest.approx(expected)

    def test_auto_uses_feature_count(self):
        X = np.zeros((3, 4))
        assert resolve_gamma("auto", X) == pytest.approx(0.25)

    def test_scale_on_constant_data(self):
        X = np.ones((5, 2))
        assert resolve_gamma("scale", X) == pytest.approx(0.5)

    def test_numeric_passthrough_and_validation(self):
        X = np.zeros((2, 2))
        assert resolve_gamma(1.5, X) == 1.5
        with pytest.raises(LearningError, match="positive"):
            resolve_gamma(-1.0, X)


class TestSharedGram:
    """The fit-scoped Gram provider a guard-band pair or bank shares."""

    @pytest.fixture
    def X(self):
        return make_synthetic_dataset(n=60, seed=5).normalized_values(
            ("s1", "s3", "s4"))

    def test_gram_matches_rbf_kernel(self, X):
        shared = SharedGram(X)
        for gamma in (0.5, 4.0):
            rbf = kernel_function("rbf", gamma=gamma)
            assert shared.gram(gamma).tobytes() == rbf(X, X).tobytes()

    def test_single_column(self, X):
        column = X[:, :1]
        rbf = kernel_function("rbf", gamma=2.0)
        assert (SharedGram(column).gram(2.0).tobytes()
                == rbf(column, column).tobytes())

    def test_deterministic_across_instances(self, X):
        """Two providers (any call history) give bit-identical Grams."""
        a, b = SharedGram(X), SharedGram(X.copy())
        a.gram(8.0)  # a different warm-up path
        assert a.gram(2.0).tobytes() == b.gram(2.0).tobytes()

    def test_two_widths_cost_one_distance_build(self, X, monkeypatch):
        builds = []

        def counted(A, B, bb=None):
            builds.append(A.shape)
            return squared_distances(A, B, bb)

        monkeypatch.setattr(kernels, "squared_distances", counted)
        shared = SharedGram(X)
        shared.gram(2.0)
        shared.gram(8.0)
        assert builds == [X.shape]

    def test_gram_cached_per_gamma(self, X):
        shared = SharedGram(X)
        first = shared.gram(2.0)
        assert shared.gram(2.0) is first
        assert shared.gram(8.0) is not first

    def test_stale_x_does_not_match(self, X):
        shared = SharedGram(X)
        assert shared.matches(X.copy())
        stale = X.copy()
        stale[7, 1] += 1e-12   # same shape, different data
        assert not shared.matches(stale)
        assert not shared.matches(X[:-1])
        assert not shared.matches(X[:, :2])

    def test_repeated_fit_hits(self, X, monkeypatch):
        """Two fits through one provider share one Gram build."""
        from repro.learn.svm import SVC

        y = np.where(X[:, 0] > np.median(X[:, 0]), 1.0, -1.0)
        shared = SharedGram(X)
        first = SVC(C=10.0, gamma=2.0).set_train_gram_view(shared)
        second = SVC(C=50.0, gamma=2.0).set_train_gram_view(shared)
        first.fit(X, y)
        monkeypatch.setattr(kernels, "squared_distances", None)
        second.fit(X, -y)   # would raise if it built any kernel
        assert list(shared._grams) == [2.0]

    def test_stale_view_falls_back_to_direct_kernel(self, X):
        """A fit on other rows ignores the provider, bit for bit."""
        from repro.learn.svm import SVC

        other = X[::-1].copy()
        y = np.where(other[:, 0] > np.median(other[:, 0]), 1.0, -1.0)
        shared = SharedGram(X)
        viewed = SVC(C=10.0, gamma=2.0).set_train_gram_view(shared)
        viewed.fit(other, y)
        plain = SVC(C=10.0, gamma=2.0).fit(other, y)
        assert not shared._grams
        assert viewed.alpha_.tobytes() == plain.alpha_.tobytes()

    def test_bad_gamma_rejected(self, X):
        with pytest.raises(LearningError):
            SharedGram(X).gram(0.0)
