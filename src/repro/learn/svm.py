"""The public SVM classifier: :class:`SVC`.

Terminology note (paper Section 2.2): the paper's "eps-SVM" builds a
decision function whose error is controlled to be below ``eps`` on all
but a penalized set of training points.  In the standard soft-margin
dual formulation solved here, that role is played by the KKT tolerance
``tol`` (the optimality gap at which training stops) together with the
penalty ``C`` that prices the unbounded slack errors the paper calls
``zeta``.
"""

import inspect
from contextlib import contextmanager

import numpy as np

from repro.errors import LearningError
from repro.learn.kernels import (
    SharedGram,
    kernel_function,
    resolve_gamma,
    row_norms_squared,
)
from repro.learn import smo
from repro.learn.smo import (
    SMOProblem,
    solve_smo,
    solve_smo_stack,
    split_stack,
)
from repro.telemetry import get_telemetry

#: Support vectors are the training points with alpha above this.
SUPPORT_THRESHOLD = 1e-8


class SVC:
    """A soft-margin support vector classifier (labels -1/+1).

    Parameters
    ----------
    C:
        Soft-margin penalty.  Larger values fit the training data more
        tightly.
    kernel:
        ``"rbf"`` (default), ``"linear"``, ``"poly"`` or ``"sigmoid"``.
    gamma:
        Kernel width: ``"scale"`` (default), ``"auto"`` or a float.
    degree, coef0:
        Polynomial / sigmoid shape parameters.
    tol:
        SMO KKT-gap stopping tolerance.
    max_iter:
        SMO update ceiling (None -> automatic).

    Notes
    -----
    A training set containing a single class is handled gracefully: the
    classifier degenerates to a constant predictor.  This matters for
    test compaction, where heavily compacted feature sets can make one
    class (temporarily) vanish from a grid-compacted training set.
    """

    def __init__(self, C=10.0, kernel="rbf", gamma="scale", degree=3,
                 coef0=0.0, tol=1e-3, max_iter=None):
        self.C = float(C)
        self.kernel = kernel
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        self.tol = float(tol)
        self.max_iter = max_iter
        self._fitted = False
        self._constant = None
        self._gram_view = None
        self._sv_norms = None

    def set_train_gram_view(self, view):
        """Attach a precomputed training-Gram provider (or ``None``).

        ``view`` must expose ``matches(X)`` (is this exactly the data
        the view's Gram covers?) and ``gram(gamma)`` returning the RBF
        Gram matrix of the rows passed to :meth:`fit` -- see
        :class:`repro.learn.kernels.SharedGram`, which
        :func:`shared_train_kernel` attaches for the length of one fit.
        The view is consulted only for the RBF kernel and only when
        ``matches(X)`` confirms the training matrix, so a stale view
        degrades to the direct computation rather than corrupting the
        fit.
        """
        self._gram_view = view
        return self

    # -- estimator API --------------------------------------------------------
    def fit(self, X, y, alpha_init=None):
        """Train on ``X`` (n x m) with labels ``y`` in {-1, +1}.

        ``alpha_init`` optionally warm-starts the SMO solver from a
        previous dual solution (see :func:`repro.learn.smo.solve_smo`).
        """
        X, y = self._begin(X, y)
        if self._constant is not None:
            return self
        tel = get_telemetry()
        view = self._gram_view
        gram = None
        if (view is not None and self.kernel == "rbf"
                and view.matches(X)):
            gram = view.gram(self.gamma_)
            tel.counter("repro_learn_gram_view_hits_total", 1)
        with tel.span("train.svc", rows=X.shape[0],
                      kernel=self.kernel) as span:
            result = solve_smo(self._kernel, X, y, self.C, tol=self.tol,
                               max_iter=self.max_iter, gram=gram,
                               alpha_init=alpha_init)
            span.set(iterations=result.iterations,
                     converged=result.converged)
        return self._adopt(result, X, y)

    @staticmethod
    def fit_stack(models, Xs, ys):
        """Fit each model on its ``(X, y)``, bitwise as its ``fit`` would.

        The two-class fits of plain :class:`SVC` s on the dense route
        (no Gram view attached, at most
        :data:`repro.learn.smo.PRECOMPUTE_LIMIT` rows) are solved in
        lockstep (:func:`repro.learn.smo.solve_smo_stack`), in stacks
        cut within :data:`repro.learn.smo.STACK_BYTES` by
        :func:`repro.learn.smo.split_stack`, each traced as one
        ``train.svc_stack`` span.  Every other model -- single-class,
        larger, or of a class with its own ``fit`` -- is fit alone by
        its ``fit``.  Returns ``models``.
        """
        members = []
        for model, X, y in zip(models, Xs, ys):
            if (getattr(type(model), "fit", None) is not SVC.fit
                    or model._gram_view is not None):
                model.fit(X, y)
                continue
            X, y = model._begin(X, y)
            if model._constant is not None:
                continue
            if X.shape[0] > smo.PRECOMPUTE_LIMIT:
                model.fit(X, y)
            else:
                members.append((model, X, y))
        tel = get_telemetry()
        for stack in split_stack([len(y) for _, _, y in members]):
            group = [members[k] for k in stack]
            with tel.span("train.svc_stack", problems=len(group)) as span:
                results, steps = solve_smo_stack([
                    SMOProblem(model._kernel, X, y, model.C,
                               tol=model.tol, max_iter=model.max_iter)
                    for model, X, y in group])
                span.set(steps=steps, iterations=sum(
                    r.iterations for r in results))
            for (model, X, y), result in zip(group, results):
                model._adopt(result, X, y)
        return models

    def _begin(self, X, y):
        """Validate ``(X, y)`` and resolve the kernel for a fit.

        A single-class ``y`` makes the model a constant predictor (and
        fitted); returns ``(X, y)`` as float arrays.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        self._sv_norms = None
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise LearningError(
                "X must be (n, m) with matching y; got {} and {}".format(
                    X.shape, y.shape))
        if X.shape[0] == 0:
            raise LearningError("cannot fit on an empty training set")

        positives = np.count_nonzero(y == 1.0)
        if positives + np.count_nonzero(y == -1.0) != y.size:
            raise LearningError("labels must be -1/+1")
        if positives == y.size or not positives:
            # Degenerate single-class problem: constant prediction.
            self._constant = 1.0 if positives else -1.0
            self._fitted = True
            return X, y
        self._constant = None
        self.gamma_ = resolve_gamma(self.gamma, X)
        self._kernel = kernel_function(self.kernel, gamma=self.gamma_,
                                       degree=self.degree, coef0=self.coef0)
        return X, y

    def _adopt(self, result, X, y):
        """Take an :class:`repro.learn.smo.SMOResult` as the fit."""
        self.converged_ = result.converged
        self.n_iter_ = result.iterations
        self.intercept_ = result.bias
        #: Full-length dual vector, kept for warm-starting later fits.
        self.alpha_ = result.alpha

        mask = result.alpha > SUPPORT_THRESHOLD
        self.support_ = np.flatnonzero(mask)
        self.support_vectors_ = X[mask]
        self.dual_coef_ = result.alpha[mask] * y[mask]
        self.n_features_ = X.shape[1]
        self._fitted = True
        return self

    def _check_fitted(self):
        if not self._fitted:
            raise LearningError("SVC is not fitted yet")

    def decision_function(self, X, chunk_size=None):
        """Signed distance-like score; positive means class +1.

        ``chunk_size`` bounds the ``(n, n_support)`` kernel-matrix
        allocation by scoring at most that many rows at a time -- the
        streaming production path of :mod:`repro.floor` dispositions
        arbitrarily large batches at fixed memory.  Chunking computes
        the same mathematical quantity per row; the floats can differ
        from the unchunked path in the last ulp (BLAS accumulation
        order depends on the matrix shape), so predicted *labels*
        agree unless a score lies exactly on the decision threshold.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if self._constant is not None:
            return np.full(X.shape[0], self._constant * np.inf)
        if X.shape[1] != self.n_features_:
            raise LearningError(
                "X has {} features; SVC was trained with {}".format(
                    X.shape[1], self.n_features_))
        if self.support_vectors_.shape[0] == 0:
            return np.full(X.shape[0], self.intercept_)
        if chunk_size is not None and X.shape[0] > int(chunk_size):
            chunk_size = int(chunk_size)
            if chunk_size < 1:
                raise LearningError("chunk_size must be at least 1")
            out = np.empty(X.shape[0])
            for start in range(0, X.shape[0], chunk_size):
                stop = start + chunk_size
                out[start:stop] = self.decision_function(X[start:stop])
            return out
        if self.kernel == "rbf":
            # The support vectors never change between fits, so their
            # squared norms are computed once per fit, not per call.
            if self._sv_norms is None:
                self._sv_norms = row_norms_squared(self.support_vectors_)
            K = self._kernel(X, self.support_vectors_, bb=self._sv_norms)
        else:
            K = self._kernel(X, self.support_vectors_)
        return K @ self.dual_coef_ + self.intercept_

    def predict(self, X, chunk_size=None):
        """Predicted labels in {-1, +1} (ties resolve to +1)."""
        scores = self.decision_function(X, chunk_size=chunk_size)
        return np.where(scores >= 0.0, 1, -1)

    def score(self, X, y):
        """Mean accuracy on ``(X, y)``."""
        y = np.asarray(y).ravel()
        return float(np.mean(self.predict(X) == y))

    def clone(self):
        """A new unfitted SVC with identical hyperparameters."""
        return SVC(C=self.C, kernel=self.kernel, gamma=self.gamma,
                   degree=self.degree, coef0=self.coef0, tol=self.tol,
                   max_iter=self.max_iter)

    def get_params(self):
        """Hyperparameters as a dict (for grid search and repr)."""
        return {"C": self.C, "kernel": self.kernel, "gamma": self.gamma,
                "degree": self.degree, "coef0": self.coef0,
                "tol": self.tol, "max_iter": self.max_iter}

    # -- pickling -------------------------------------------------------------
    # The kernel closure, the (potentially huge, process-local) Gram
    # view and the support-vector norm cache are dropped on
    # serialization; the kernel is rebuilt from the stored
    # hyperparameters, so fitted models round-trip through ``pickle``
    # -- a requirement for crossing process boundaries in
    # :mod:`repro.runtime` -- and artifact bytes do not depend on
    # whether the model has scored anything yet.
    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_kernel", None)
        state.pop("_sv_norms", None)
        state["_gram_view"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__.setdefault("_gram_view", None)
        self._sv_norms = None
        if self._fitted and self._constant is None and hasattr(self, "gamma_"):
            self._kernel = kernel_function(
                self.kernel, gamma=self.gamma_, degree=self.degree,
                coef0=self.coef0)

    def __repr__(self):
        return "SVC(C={:g}, kernel={!r}, gamma={!r})".format(
            self.C, self.kernel, self.gamma)


def warm_startable(model):
    """Whether ``model.fit`` takes an ``alpha_init`` warm start.

    Read from the signature instead of tried: a ``TypeError`` raised
    inside a fit must reach the caller, not turn into a second, cold
    fit.
    """
    try:
        params = inspect.signature(model.fit).parameters.values()
    except (TypeError, ValueError):
        return False
    return any(p.name == "alpha_init" or p.kind is p.VAR_KEYWORD
               for p in params)


def _set_train_gram(model, gram):
    """Attach ``gram`` to ``model`` where it takes a Gram view."""
    if hasattr(model, "set_train_gram_view"):
        model.set_train_gram_view(gram)


@contextmanager
def shared_train_kernel(X):
    """Share one training kernel among the models of one fit.

    Yields ``attach(model)``, which points a new model's training
    kernel at one :class:`~repro.learn.kernels.SharedGram` over ``X``
    (when ``X`` is small enough for SMO to precompute a Gram at all,
    :data:`repro.learn.smo.PRECOMPUTE_LIMIT`) and returns the model.
    On exit every attached model is detached, so nothing outlives the
    fit.
    """
    gram = SharedGram(X) if len(X) <= smo.PRECOMPUTE_LIMIT else None
    attached = []

    def attach(model):
        _set_train_gram(model, gram)
        attached.append(model)
        return model

    try:
        yield attach
    finally:
        for model in attached:
            _set_train_gram(model, None)
