"""Ridge regression baseline for the classification-vs-regression ablation.

Paper Section 4.1 argues that earlier statistical-test work used
*regression* (predicting the value of each eliminated specification)
while pass/fail analysis is really a *classification* problem needing
far less training data.  This module provides the regression-side
baseline: a closed-form ridge regressor used to predict eliminated
specification values, which are then thresholded against the
acceptability ranges.
"""

import numpy as np

from repro.errors import LearningError


class RidgeRegressor:
    """Linear least squares with L2 regularization (closed form).

    Fits ``y ~ X @ w + b`` by solving
    ``(X'X + alpha I) w = X'y`` on mean-centred data.  Supports
    multi-output ``y`` so one fit predicts every eliminated
    specification at once.
    """

    def __init__(self, alpha=1e-6):
        if alpha < 0:
            raise LearningError("alpha must be non-negative")
        self.alpha = float(alpha)

    def fit(self, X, y):
        """Fit on ``X`` (n x m) against targets ``y`` (n,) or (n, k)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise LearningError("X must be 2-D")
        self._single_output = y.ndim == 1
        Y = y[:, None] if self._single_output else y
        if Y.shape[0] != X.shape[0]:
            raise LearningError("X and y have different sample counts")
        x_mean = X.mean(axis=0)
        y_mean = Y.mean(axis=0)
        Xc = X - x_mean
        Yc = Y - y_mean
        m = X.shape[1]
        A = Xc.T @ Xc + self.alpha * np.eye(m)
        self.coef_ = np.linalg.solve(A, Xc.T @ Yc)
        self.intercept_ = y_mean - x_mean @ self.coef_
        return self

    def predict(self, X):
        """Predicted targets, matching the shape convention of ``fit``."""
        if not hasattr(self, "coef_"):
            raise LearningError("RidgeRegressor is not fitted")
        X = np.asarray(X, dtype=float)
        out = X @ self.coef_ + self.intercept_
        return out.ravel() if self._single_output else out

