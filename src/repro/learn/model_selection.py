"""Model selection utilities: splits, k-fold CV and grid search."""

import itertools

import numpy as np

from repro.errors import LearningError
from repro.telemetry import get_telemetry


def train_test_split(X, y, test_fraction=0.25, seed=0):
    """Random split of ``(X, y)`` into train and test parts.

    Returns ``(X_train, X_test, y_train, y_test)``.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    n = X.shape[0]
    if y.shape[0] != n:
        raise LearningError("X and y have different sample counts")
    if not 0.0 < test_fraction < 1.0:
        raise LearningError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    k = int(round(test_fraction * n))
    if k == 0 or k == n:
        raise LearningError("split produces an empty part")
    test_idx, train_idx = order[:k], order[k:]
    return X[train_idx], X[test_idx], y[train_idx], y[test_idx]


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


#: Per-process tuning context for the parallel grid search; set by the
#: pool initializer so the (potentially large) training matrix crosses
#: the process boundary once per worker instead of once per task.
_GRID_CONTEXT = {}


def _grid_search_init(estimator_factory, X, y, n_splits, seed):
    _GRID_CONTEXT.update(estimator_factory=estimator_factory, X=X, y=y,
                         n_splits=n_splits, seed=seed)


def _grid_search_task(group):
    """Score configurations that differ only in ``C`` (ascending).

    Per fold, a fit whose estimator reports ``c_bound_ is False`` is
    bitwise the fit at every larger ``C`` (see
    :attr:`repro.learn.smo.SMOResult.c_bound`), so its score is reused
    for the rest of the group instead of refitting; any other fit is
    followed by a cold fit at the next ``C``.  Estimators without the
    flag are always refit.  Returns ``(mean scores, fits reused)``.
    """
    ctx = _GRID_CONTEXT
    X = np.asarray(ctx["X"])
    y = np.asarray(ctx["y"])
    estimators = [ctx["estimator_factory"](**params) for params in group]
    fold_scores = [[] for _ in group]
    reused = 0
    for train_idx, test_idx in KFold(ctx["n_splits"], ctx["seed"]).split(
            X.shape[0]):
        unbound_score = None
        for estimator, scores in zip(estimators, fold_scores):
            if unbound_score is None:
                model = estimator.clone()
                model.fit(X[train_idx], y[train_idx])
                score = model.score(X[test_idx], y[test_idx])
                if getattr(model, "c_bound_", True) is False:
                    unbound_score = score
            else:
                score = unbound_score
                reused += 1
            scores.append(score)
    return [float(np.mean(np.asarray(s))) for s in fold_scores], reused


def grid_search(estimator_factory, param_grid, X, y, n_splits=3, seed=0,
                n_jobs=1):
    """Exhaustive hyperparameter search by cross-validated accuracy.

    Parameters
    ----------
    estimator_factory:
        Callable ``(**params) -> estimator``; typically
        :class:`repro.learn.svm.SVC` itself.  Estimators built from
        params that differ only in ``C`` must differ only in their
        penalty (the fit reuse below relies on it).
    param_grid:
        Dict mapping parameter name to a list of candidate values.
    X, y:
        Training data.
    n_splits, seed:
        Cross-validation configuration.
    n_jobs:
        Score configurations across this many worker processes
        (``-1`` = all CPUs).  The unit of work is a group of
        configurations sharing every parameter but ``C``, scored along
        ascending ``C`` so a fit that ``C`` never bound is reused
        (bitwise) for the larger values; every group is deterministic,
        so the parallel search returns exactly the serial result.  The
        factory and data must be picklable for ``n_jobs > 1``.

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
    # Group by the positions of every non-C value (values themselves
    # need not be hashable), each group in ascending C.
    groups = {}
    for k, positions in enumerate(itertools.product(
            *(range(len(param_grid[n])) for n in names))):
        key = tuple(p for n, p in zip(names, positions) if n != "C")
        groups.setdefault(key, []).append(k)
    units = [sorted(members, key=lambda k: float(configs[k]["C"]))
             if "C" in param_grid else members
             for members in groups.values()]
    from repro.runtime.parallel import parallel_map

    outcomes = parallel_map(
        _grid_search_task, [[configs[k] for k in unit] for unit in units],
        n_jobs=n_jobs, initializer=_grid_search_init,
        initargs=(estimator_factory, X, y, n_splits, seed))
    scores = [None] * len(configs)
    reused = 0
    for unit, (unit_scores, unit_reused) in zip(units, outcomes):
        for k, score in zip(unit, unit_scores):
            scores[k] = score
        reused += unit_reused
    get_telemetry().counter("repro_learn_grid_fits_reused_total", reused)
    results = list(zip(configs, scores))
    best_params, best_score = None, -np.inf
    for params, score in results:
        if score > best_score:
            best_params, best_score = params, score
    return best_params, best_score, results
