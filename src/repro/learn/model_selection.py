"""Model selection utilities: k-fold CV and grid search.

:func:`grid_search` fits every (configuration, fold) pair at once: one
lockstep SMO stack for :class:`~repro.learn.svm.SVC` estimators (see
:func:`repro.learn.smo.solve_smo_stack`), cut only by the stack's byte
budget.
"""

import itertools

import numpy as np

from repro.errors import LearningError


class KFold:
    """Deterministic shuffled k-fold index generator."""

    def __init__(self, n_splits=5, seed=0):
        if n_splits < 2:
            raise LearningError("n_splits must be at least 2")
        self.n_splits = int(n_splits)
        self.seed = seed

    def split(self, n_samples):
        """Yield ``(train_indices, test_indices)`` pairs."""
        if n_samples < self.n_splits:
            raise LearningError(
                "cannot split {} samples into {} folds".format(
                    n_samples, self.n_splits))
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n_samples)
        folds = np.array_split(order, self.n_splits)
        for k in range(self.n_splits):
            test_idx = folds[k]
            train_idx = np.concatenate(
                [folds[j] for j in range(self.n_splits) if j != k])
            yield train_idx, test_idx


def cross_val_score(estimator, X, y, n_splits=5, seed=0):
    """Accuracy of ``estimator`` over k folds (array of per-fold scores).

    The estimator must implement ``clone()``, ``fit(X, y)`` and
    ``score(X, y)`` (as :class:`repro.learn.svm.SVC` does).
    """
    X = np.asarray(X)
    y = np.asarray(y)
    scores = []
    for train_idx, test_idx in KFold(n_splits, seed).split(X.shape[0]):
        model = estimator.clone()
        model.fit(X[train_idx], y[train_idx])
        scores.append(model.score(X[test_idx], y[test_idx]))
    return np.asarray(scores)


def _fold_scores(estimator_factory, X, y, folds, configs):
    """Accuracy of every configuration on every fold, ``[config][fold]``.

    Every (configuration, fold) pair is fit at once -- through the
    estimator's ``fit_stack`` when it has one
    (:meth:`repro.learn.svm.SVC.fit_stack` solves the fold QPs in
    lockstep, each stacked fit bitwise its fit alone), else one ``fit``
    at a time -- and scored on its fold.
    """
    pairs = [(params, fold) for params in configs for fold in folds]
    models = [estimator_factory(**params).clone() for params, _ in pairs]
    Xs = [X[train] for _, (train, _) in pairs]
    ys = [y[train] for _, (train, _) in pairs]
    fit_stack = getattr(models[0], "fit_stack", None)
    if fit_stack is not None:
        fit_stack(models, Xs, ys)
    else:
        for model, X_fold, y_fold in zip(models, Xs, ys):
            model.fit(X_fold, y_fold)
    scores = [model.score(X[test], y[test])
              for model, (_, (_, test)) in zip(models, pairs)]
    k = len(folds)
    return [scores[c * k:(c + 1) * k] for c in range(len(configs))]


def grid_search(estimator_factory, param_grid, X, y, n_splits=3, seed=0):
    """Exhaustive hyperparameter search by cross-validated accuracy.

    Parameters
    ----------
    estimator_factory:
        Callable ``(**params) -> estimator``; typically
        :class:`repro.learn.svm.SVC` itself.
    param_grid:
        Dict mapping parameter name to a list of candidate values.
    X, y:
        Training data.
    n_splits, seed:
        Cross-validation configuration.

    Every (configuration, fold) fit is one problem of one lockstep SMO
    stack for :class:`SVC` estimators; each stacked fit is bitwise its
    fit alone.

    Returns
    -------
    (best_params, best_score, results)
        ``results`` is a list of ``(params, mean_score)`` tuples in
        grid order (``itertools.product`` over the sorted names); each
        score equals a cold per-configuration ``cross_val_score`` mean.
    """
    if not param_grid:
        raise LearningError("param_grid must not be empty")
    names = sorted(param_grid)
    configs = [dict(zip(names, values))
               for values in itertools.product(
                   *(param_grid[n] for n in names))]
    X = np.asarray(X)
    y = np.asarray(y)
    folds = list(KFold(n_splits, seed).split(X.shape[0]))
    scores = [float(np.mean(np.asarray(fold_scores)))
              for fold_scores in _fold_scores(estimator_factory, X, y,
                                              folds, configs)]
    results = list(zip(configs, scores))
    best_params, best_score = None, -np.inf
    for params, score in results:
        if score > best_score:
            best_params, best_score = params, score
    return best_params, best_score, results
