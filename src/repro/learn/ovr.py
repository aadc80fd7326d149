"""One-vs-rest SVC banks for multi-bin grade prediction.

A K-bin disposition program needs K binary separations ("grade g vs
every other grade"), all trained on the *same* feature rows.  Fitting
them as K independent :class:`~repro.learn.svm.SVC` runs repeats the
two dominant costs K times:

* the RBF Gram matrix over the training rows -- identical for every
  bin, because only the labels change;
* the SMO solve from a cold (all-zero) dual start.

:class:`OneVsRestSVCBank` shares both.  For the length of one
:meth:`~OneVsRestSVCBank.fit` every member SVC is attached to one
:class:`~repro.learn.kernels.SharedGram` over the training rows, so the
(n, n) kernel matrix is computed once and reused K times, and each fit
after the first is warm-started from the previous bin's dual vector:
:func:`repro.learn.smo.solve_smo` repairs an ``alpha_init`` against
the *new* label vector (the same mechanism
:class:`~repro.core.guardband.GuardBandedClassifier` uses to seed its
loose model from its strict one), and one-vs-rest label vectors for
related grades differ on a minority of rows, so the seed is
near-feasible and SMO converges in a fraction of the iterations.
``benchmarks/bench_multibin.py`` measures the combined effect against
K cold fits.
"""

import numpy as np

from repro.errors import LearningError
from repro.learn.svm import SVC, shared_train_kernel, warm_startable
from repro.telemetry import get_telemetry


class OneVsRestSVCBank:
    """K one-vs-rest SVCs sharing one training Gram and warm starts.

    Parameters
    ----------
    classes:
        Ordered class identifiers (bin names or indices).  Prediction
        returns indices into this tuple.
    model_factory:
        Zero-argument callable producing an unfitted binary ``SVC``
        for each class (defaults to ``SVC(C=50.0, gamma="scale")``).

    Each member's SMO run after the first is seeded from the previous
    member's dual solution whenever its ``fit`` takes ``alpha_init``.
    """

    def __init__(self, classes, model_factory=None):
        self.classes = tuple(classes)
        if len(self.classes) < 2:
            raise LearningError(
                "a one-vs-rest bank needs at least 2 classes; got "
                "{!r}".format(list(self.classes)))
        if len(set(self.classes)) != len(self.classes):
            raise LearningError("bank classes must be unique")
        self.model_factory = model_factory or (
            lambda: SVC(C=50.0, gamma="scale"))
        self._fitted = False

    @property
    def n_classes(self):
        return len(self.classes)

    # -- training ---------------------------------------------------------
    def fit(self, X, y):
        """Train one ±1 SVC per class on ``X`` with class labels ``y``.

        ``y`` holds values from ``classes`` (any hashable type).
        Classes absent from ``y`` get a degenerate constant-reject
        member -- a bank deployed for four grades keeps working when a
        training lot happens to contain only three.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise LearningError(
                "X must be (n, m) with matching y; got {} and "
                "{}".format(X.shape, y.shape))
        if X.shape[0] == 0:
            raise LearningError("cannot fit a bank on an empty set")
        unknown = set(np.unique(y).tolist()) - set(self.classes)
        if unknown:
            raise LearningError(
                "labels {} are not among the bank classes {}".format(
                    sorted(map(repr, unknown)), list(self.classes)))

        tel = get_telemetry()
        self.models_ = []
        alpha_prev = None
        with tel.span("train.ovr", rows=X.shape[0],
                      classes=self.n_classes), \
                shared_train_kernel(X) as attach:
            for cls in self.classes:
                target = np.where(y == cls, 1.0, -1.0)
                model = attach(self.model_factory())
                if alpha_prev is not None and warm_startable(model):
                    model.fit(X, target, alpha_init=alpha_prev)
                    tel.counter("repro_learn_warm_start_reuse_total", 1)
                else:
                    model.fit(X, target)
                alpha_prev = getattr(model, "alpha_", alpha_prev)
                self.models_.append(model)
        if tel.enabled:
            tel.counter("repro_learn_bank_fits_total", 1)
            tel.counter("repro_learn_bank_members_total", self.n_classes)
        self.n_features_ = X.shape[1]
        self._fitted = True
        return self

    def _check_fitted(self):
        if not self._fitted:
            raise LearningError("OneVsRestSVCBank is not fitted yet")

    # -- prediction -------------------------------------------------------
    def decision_matrix(self, X, chunk_size=None):
        """Per-class decision scores, shape ``(n, n_classes)``.

        Column k is member k's signed score ("class k vs rest").
        Degenerate single-class members contribute ±inf columns, which
        argmax and margins handle naturally.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        scores = np.empty((X.shape[0], self.n_classes))
        for k, model in enumerate(self.models_):
            scores[:, k] = model.decision_function(X, chunk_size=chunk_size)
        return scores

    def predict_index(self, X, chunk_size=None):
        """Index (into ``classes``) of the highest-scoring member."""
        return self.decision_matrix(X, chunk_size=chunk_size).argmax(axis=1)

    def predict(self, X, chunk_size=None):
        """Predicted class identifiers."""
        idx = self.predict_index(X, chunk_size=chunk_size)
        return np.asarray(self.classes, dtype=object)[idx]

    def margins(self, X, chunk_size=None):
        """Top-1 minus top-2 decision score per device.

        Small margins mark *boundary* devices -- the winning grade is
        barely ahead of the runner-up, so a floor can route them to a
        grade retest.  With any ±inf degenerate scores the margin is
        +inf (no finite runner-up beats the winner) unless two
        degenerate members tie, where it is 0.
        """
        scores = self.decision_matrix(X, chunk_size=chunk_size)
        top2 = np.sort(scores, axis=1)[:, -2:]
        diff = top2[:, 1] - top2[:, 0]
        # inf - inf is nan: two members both claim the device with
        # certainty -> zero margin (maximally ambiguous).
        return np.where(np.isnan(diff), 0.0, diff)

    # -- pickling ---------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("model_factory", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # The factory is only needed for (re)fitting; a deserialized
        # bank is for prediction, so a default factory suffices.
        self.__dict__.setdefault(
            "model_factory", lambda: SVC(C=50.0, gamma="scale"))

    def __repr__(self):
        return "OneVsRestSVCBank({} classes{})".format(
            self.n_classes, ", fitted" if self._fitted else "")
