"""Kernel functions and Gram-matrix evaluation for the SVM.

All kernels operate on 2-D arrays ``(n_samples, n_features)`` and
return dense Gram matrices.  ``gamma`` follows the common ``"scale"``
convention (``1 / (n_features * X.var())``) so RBF widths adapt to the
feature scaling automatically.
"""

import numpy as np

from repro.errors import LearningError

#: Names of the supported kernels.
KERNELS = ("linear", "poly", "rbf", "sigmoid")


def resolve_gamma(gamma, X):
    """Turn a ``gamma`` specification into a positive float.

    ``"scale"`` -> ``1 / (n_features * var(X))`` and ``"auto"`` ->
    ``1 / n_features``, mirroring the conventions users expect from
    mainstream SVM implementations.
    """
    if gamma == "scale":
        var = float(np.var(X))
        if var <= 0:
            var = 1.0
        return 1.0 / (X.shape[1] * var)
    if gamma == "auto":
        return 1.0 / X.shape[1]
    gamma = float(gamma)
    if gamma <= 0:
        raise LearningError("gamma must be positive, got {}".format(gamma))
    return gamma


def row_norms_squared(B):
    """Row-wise squared norms of ``B`` as a ``(1, n)`` row."""
    B = np.asarray(B, dtype=float)
    return np.sum(B * B, axis=1)[None, :]


def squared_distances(A, B, bb=None):
    """Pairwise squared Euclidean distances between rows of A and B.

    ``bb`` optionally supplies :func:`row_norms_squared` of ``B``
    (e.g. a fitted model's support vectors, computed once); the result
    is bitwise the same as letting this function compute it.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    aa = np.sum(A * A, axis=1)[:, None]
    if bb is None:
        bb = row_norms_squared(B)
    d2 = aa + bb - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


class SharedGram:
    """The RBF Gram matrices of one training matrix, for one fit.

    A fit that trains several models on the same rows -- the strict and
    loose guard-band pair, the members of a one-vs-rest bank -- builds
    one over its ``X`` and attaches it to each model with
    :meth:`repro.learn.svm.SVC.set_train_gram_view` for the length of
    that fit.  The squared distances are built once, on first use, and
    each width's ``exp(-gamma * d2)`` once; every Gram is bitwise
    ``kernel_function("rbf", gamma)(X, X)``.
    """

    def __init__(self, X):
        self._X = np.asarray(X, dtype=float)
        self._d2 = None
        self._grams = {}

    def matches(self, X):
        """Whether ``X`` is exactly the matrix the Grams cover."""
        return bool(np.array_equal(X, self._X))

    def gram(self, gamma):
        """The RBF Gram matrix of ``X`` at width ``gamma``."""
        gamma = float(gamma)
        if gamma <= 0:
            raise LearningError("gamma must be positive, got {}".format(gamma))
        if gamma not in self._grams:
            if self._d2 is None:
                self._d2 = squared_distances(self._X, self._X)
            self._grams[gamma] = np.exp(-gamma * self._d2)
        return self._grams[gamma]


def kernel_function(name, gamma=1.0, degree=3, coef0=0.0):
    """Return ``k(A, B) -> Gram`` for the named kernel.

    Parameters
    ----------
    name:
        One of :data:`KERNELS`.
    gamma:
        Width/scale parameter (resolved value, not ``"scale"``).
    degree, coef0:
        Polynomial/sigmoid shape parameters.
    """
    if name == "linear":
        return lambda A, B: np.asarray(A, dtype=float) @ np.asarray(
            B, dtype=float).T
    if name == "poly":
        def poly(A, B):
            return (gamma * (np.asarray(A, float) @ np.asarray(B, float).T)
                    + coef0) ** degree
        return poly
    if name == "rbf":
        def rbf(A, B, bb=None):
            return np.exp(-gamma * squared_distances(A, B, bb))
        return rbf
    if name == "sigmoid":
        def sigmoid(A, B):
            return np.tanh(
                gamma * (np.asarray(A, float) @ np.asarray(B, float).T)
                + coef0)
        return sigmoid
    raise LearningError(
        "unknown kernel {!r}; expected one of {}".format(name, KERNELS))
