"""Model selection utilities: splits, k-fold CV and grid search.

:func:`grid_search` works through its (configuration group, fold)
chains one ``C`` level at a time: the level's fits are one lockstep SMO
stack for :class:`~repro.learn.svm.SVC` estimators (see
:func:`repro.learn.smo.solve_smo_stack`), and a fit that ``C`` never
bound is reused, bitwise, for the rest of its chain.
"""

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


def _grid_search_task(chains):
    """Score ``(configs, fold)`` chains along ascending ``C``.

    A chain is the configurations of one group (every parameter but
    ``C`` shared, ascending ``C``) on one fold.  The chains still open
    at a ``C`` level are fit together -- through the estimator's
    ``fit_stack`` when it has one (:meth:`repro.learn.svm.SVC.fit_stack`
    solves the level's QPs in lockstep), else one ``fit`` at a time --
    and scored on their folds.  A fit whose estimator reports
    ``c_bound_ is False`` is bitwise the fit at every larger ``C`` (see
    :attr:`repro.learn.smo.SMOResult.c_bound`), so its score is reused
    for the rest of its chain; any other fit is followed by a cold fit
    at the next ``C``.  Estimators without the flag are always refit.
    Returns ``(per-chain scores, fits reused)``.
    """
    ctx = _GRID_CONTEXT
    X = np.asarray(ctx["X"])
    y = np.asarray(ctx["y"])
    folds = list(KFold(ctx["n_splits"], ctx["seed"]).split(X.shape[0]))
    factory = ctx["estimator_factory"]
    scores = [[] for _ in chains]
    reused = 0
    level = 0
    open_chains = list(range(len(chains)))
    while open_chains:
        models = [factory(**chains[c][0][level]).clone()
                  for c in open_chains]
        train = [folds[chains[c][1]][0] for c in open_chains]
        Xs = [X[idx] for idx in train]
        ys = [y[idx] for idx in train]
        fit_stack = getattr(models[0], "fit_stack", None)
        if fit_stack is not None:
            fit_stack(models, Xs, ys)
        else:
            for model, X_fold, y_fold in zip(models, Xs, ys):
                model.fit(X_fold, y_fold)
        still_open = []
        for c, model in zip(open_chains, models):
            test_idx = folds[chains[c][1]][1]
            score = model.score(X[test_idx], y[test_idx])
            left = len(chains[c][0]) - level - 1
            scores[c].append(score)
            if getattr(model, "c_bound_", True) is False:
                scores[c].extend([score] * left)
                reused += left
            elif left:
                still_open.append(c)
        open_chains = still_open
        level += 1
    return scores, reused


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
        Score across this many worker processes (``-1`` = all CPUs).
        The unit of work is a chain: the configurations sharing every
        parameter but ``C``, on one fold, scored along ascending ``C``
        so a fit that ``C`` never bound is reused (bitwise) for the
        larger values.  One ``C`` level of every open chain is fit at
        once, as one lockstep SMO stack for :class:`SVC` estimators.
        Each stacked fit is bitwise its fit alone, so splitting the
        chains into ``n_jobs`` chunks returns exactly the serial
        result.  The factory and data must be picklable for
        ``n_jobs > 1``.

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
    from repro.runtime.parallel import parallel_map, resolve_n_jobs

    chains = [([configs[k] for k in unit], fold)
              for unit in units for fold in range(n_splits)]
    n_chunks = max(1, min(resolve_n_jobs(n_jobs), len(chains)))
    bounds = [len(chains) * c // n_chunks for c in range(n_chunks + 1)]
    outcomes = parallel_map(
        _grid_search_task,
        [chains[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
        n_jobs=n_jobs, initializer=_grid_search_init,
        initargs=(estimator_factory, X, y, n_splits, seed))
    chain_scores = [s for chunk, _ in outcomes for s in chunk]
    scores = [None] * len(configs)
    for u, unit in enumerate(units):
        for level, k in enumerate(unit):
            scores[k] = float(np.mean(np.asarray(
                [chain_scores[u * n_splits + fold][level]
                 for fold in range(n_splits)])))
    get_telemetry().counter("repro_learn_grid_fits_reused_total",
                            sum(reused for _, reused in outcomes))
    results = list(zip(configs, scores))
    best_params, best_score = None, -np.inf
    for params, score in results:
        if score > best_score:
            best_params, best_score = params, score
    return best_params, best_score, results
