"""Model selection tests: k-fold, grid search.

Every :func:`repro.learn.grid_search` score must equal cold
per-configuration cross-validation (:func:`repro.learn.cross_val_score`)
whether the fits run stacked, one at a time or through a duck-typed
estimator.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LearningError
from repro.learn import SVC, KFold, cross_val_score, grid_search
from repro.telemetry import Telemetry, set_telemetry


def _blobs(n=80, seed=0):
    rng = np.random.default_rng(seed)
    X1 = rng.normal([2, 0], 0.6, (n // 2, 2))
    X2 = rng.normal([-2, 0], 0.6, (n // 2, 2))
    return np.vstack([X1, X2]), np.r_[np.ones(n // 2), -np.ones(n // 2)]


class TestKFold:
    @given(n=st.integers(10, 60), k=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_folds_partition_the_data(self, n, k):
        folds = list(KFold(n_splits=k, seed=0).split(n))
        assert len(folds) == k
        all_test = np.concatenate([te for _, te in folds])
        assert sorted(all_test.tolist()) == list(range(n))
        for train_idx, test_idx in folds:
            assert set(train_idx) & set(test_idx) == set()
            assert len(train_idx) + len(test_idx) == n

    def test_too_few_samples(self):
        with pytest.raises(LearningError):
            list(KFold(5).split(3))

    def test_invalid_split_count(self):
        with pytest.raises(LearningError):
            KFold(1)


class TestCrossValAndGrid:
    def test_cross_val_high_on_separable(self):
        X, y = _blobs()
        scores = cross_val_score(SVC(), X, y, n_splits=4)
        assert scores.shape == (4,)
        assert scores.mean() > 0.95

    def test_grid_search_returns_best(self):
        X, y = _blobs(seed=2)
        best, score, results = grid_search(
            SVC, {"C": [0.01, 10.0], "gamma": [1.0]}, X, y, n_splits=3)
        assert best["C"] in (0.01, 10.0)
        assert len(results) == 2
        assert score == max(r for _, r in results)

    def test_grid_search_empty_grid_rejected(self):
        with pytest.raises(LearningError):
            grid_search(SVC, {}, np.zeros((4, 1)), np.ones(4))


def _overlap_blobs(n, spread, seed):
    rng = np.random.default_rng(seed)
    X1 = rng.normal([1.0, 0.0], spread, (n // 2, 2))
    X2 = rng.normal([-1.0, 0.0], spread, (n - n // 2, 2))
    return (np.vstack([X1, X2]),
            np.r_[np.ones(n // 2), -np.ones(n - n // 2)])


#: name -> (blobs args, grid).  "unbound": separable, so no fit at
#: C >= 10 is held by its box; "binding" and "mixed": overlapping,
#: over a small and a wide range of C.  "unbound" lists its C values
#: unsorted: results follow grid order.
PROBLEMS = {
    "unbound": ((60, 0.3, 0), {"C": [500.0, 10.0, 50.0],
                               "gamma": [0.5, 2.0]}),
    "binding": ((60, 1.2, 1), {"C": [1.0, 10.0], "gamma": [0.5, 2.0]}),
    "mixed": ((60, 1.2, 1), {"C": [10.0, 50.0, 500.0],
                             "gamma": [0.5, 2.0]}),
}


def _cold_reference(grid, X, y):
    """The search by cold CV per config, in grid order."""
    names = sorted(grid)
    results = []
    for c in grid["C"]:
        for gamma in grid["gamma"]:
            params = dict(zip(names, (c, gamma)))
            results.append((params, float(np.mean(cross_val_score(
                SVC(**params), X, y, n_splits=3, seed=0)))))
    best_params, best_score = None, -np.inf
    for params, score in results:
        if score > best_score:
            best_params, best_score = params, score
    return best_params, best_score, results


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_grid_search_equals_cold_reference(problem):
    blobs, grid = PROBLEMS[problem]
    X, y = _overlap_blobs(*blobs)
    got = grid_search(SVC, grid, X, y, n_splits=3)
    assert got == _cold_reference(grid, X, y)


class Wrapped:
    """A duck-typed estimator: clone, fit and score only (no
    fit_stack), so the search fits it one at a time."""

    def __init__(self, **params):
        self.params = params

    def clone(self):
        return Wrapped(**self.params)

    def fit(self, X, y):
        self.model = SVC(**self.params).fit(X, y)
        return self

    def score(self, X, y):
        return self.model.score(X, y)


def _single_class_fold_problem():
    """Blobs whose positives are exactly fold 0's test rows, so fold 0
    trains on negatives only (SVC's constant path)."""
    X, _ = _overlap_blobs(60, 1.0, 3)
    test_idx = next(KFold(3, 0).split(len(X)))[1]
    y = -np.ones(len(X))
    y[test_idx] = 1.0
    return X, y


def test_single_class_fold_equals_cold_reference():
    X, y = _single_class_fold_problem()
    for train_idx, _ in KFold(3, 0).split(len(y)):
        if np.unique(y[train_idx]).size == 1:
            break
    else:
        raise AssertionError("no single-class training fold")
    grid = {"C": [1.0, 10.0], "gamma": [0.5, 2.0]}
    got = grid_search(SVC, grid, X, y, n_splits=3)
    assert got == _cold_reference(grid, X, y)


def test_duck_typed_estimator_equals_cold_reference():
    blobs, grid = PROBLEMS["mixed"]
    X, y = _overlap_blobs(*blobs)
    got = grid_search(Wrapped, grid, X, y, n_splits=3)
    assert got == _cold_reference(grid, X, y)


class AloneSVC(SVC):
    """An SVC whose own ``fit`` makes ``fit_stack`` fit it alone."""

    def fit(self, X, y, alpha_init=None):
        return super().fit(X, y, alpha_init=alpha_init)

    def clone(self):
        return AloneSVC(**self.get_params())


def _learn_counters(fn):
    """Run ``fn`` under a fresh registry; (result, SMO counters)."""
    tel = Telemetry(run_id="counts")
    previous = set_telemetry(tel)
    try:
        out = fn()
    finally:
        set_telemetry(previous)
    counts = {}
    for c in tel.snapshot()["counters"]:
        if c["name"].startswith("repro_learn_smo_"):
            counts[c["name"]] = counts.get(c["name"], 0) + c["value"]
    return out, counts


def test_stacked_search_counts_each_problem():
    """Solves and iterations count per problem, as the one-at-a-time
    search counts them; only the lockstep steps fall.  Telemetry on or
    off, the search returns the same result."""
    blobs, grid = PROBLEMS["mixed"]
    X, y = _overlap_blobs(*blobs)
    search = lambda factory: grid_search(factory, grid, X, y)  # noqa: E731
    stacked, counts = _learn_counters(lambda: search(SVC))
    alone, alone_counts = _learn_counters(lambda: search(AloneSVC))
    assert stacked == alone == search(SVC)
    # Every (config, fold) pair is one solve.
    assert counts["repro_learn_smo_solves_total"] == 3 * 3 * 2
    for name in ("repro_learn_smo_solves_total",
                 "repro_learn_smo_iterations_total"):
        assert counts[name] == alone_counts[name] > 0
    # One at a time, every solve steps once per iteration.
    assert (alone_counts["repro_learn_smo_lockstep_steps_total"]
            == alone_counts["repro_learn_smo_iterations_total"])
    assert (counts["repro_learn_smo_lockstep_steps_total"]
            < counts["repro_learn_smo_iterations_total"])
