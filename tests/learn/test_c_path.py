"""C-path sharing: a fit that C never bound is the fit at any larger C.

:attr:`repro.learn.smo.SMOResult.c_bound` is False only when the
penalty never influenced the run; :func:`repro.learn.model_selection.
grid_search` relies on that to reuse fits along ascending ``C``.  These
tests check the contract at the solver and that the search returns
exactly what cold per-configuration cross-validation returns.
"""

import numpy as np
import pytest

from repro.learn import SVC, cross_val_score, grid_search
from repro.learn.kernels import kernel_function
from repro.learn.model_selection import KFold
from repro.learn.smo import repair_alpha, solve_smo
from repro.telemetry import Telemetry, set_telemetry


def _blobs(n, spread, seed):
    rng = np.random.default_rng(seed)
    X1 = rng.normal([1.0, 0.0], spread, (n // 2, 2))
    X2 = rng.normal([-1.0, 0.0], spread, (n - n // 2, 2))
    return (np.vstack([X1, X2]),
            np.r_[np.ones(n // 2), -np.ones(n - n // 2)])


#: name -> (blobs args, grid).  "unbound": separable, every fit at
#: C >= 10 is C-free.  "binding": overlapping, every fit is C-bound.
#: "mixed": overlapping at larger C, some folds bound and some not.
PROBLEMS = {
    "unbound": ((60, 0.3, 0), {"C": [500.0, 10.0, 50.0],
                               "gamma": [0.5, 2.0]}),
    "binding": ((60, 1.2, 1), {"C": [1.0, 10.0], "gamma": [0.5, 2.0]}),
    "mixed": ((60, 1.2, 1), {"C": [10.0, 50.0, 500.0],
                             "gamma": [0.5, 2.0]}),
}


def _cold_reference(grid, X, y):
    """The search without sharing: cold CV per config, in grid order."""
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


def _reused(fn):
    """Run ``fn`` under a fresh registry; return (result, fits reused)."""
    tel = Telemetry(run_id="c-path")
    previous = set_telemetry(tel)
    try:
        out = fn()
    finally:
        set_telemetry(previous)
    reused = sum(c["value"] for c in tel.snapshot()["counters"]
                 if c["name"] == "repro_learn_grid_fits_reused_total")
    return out, reused


class CountingSVC(SVC):
    """SVC recording every fit's ``c_bound_`` (a spy for reuse)."""

    fits = []

    def fit(self, X, y, alpha_init=None):
        super().fit(X, y, alpha_init=alpha_init)
        CountingSVC.fits.append(self.c_bound_)
        return self

    def clone(self):
        return CountingSVC(**self.get_params())


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_grid_search_equals_cold_reference(problem, n_jobs):
    blobs, grid = PROBLEMS[problem]
    X, y = _blobs(*blobs)
    got, reused = _reused(
        lambda: grid_search(SVC, grid, X, y, n_splits=3, n_jobs=n_jobs))
    assert got == _cold_reference(grid, X, y)
    total = 3 * len(grid["C"]) * len(grid["gamma"])
    if problem == "binding":
        assert reused == 0
    else:
        assert 0 < reused < total


def _unbound_fits():
    """``(kernel, X, y, C)`` candidates: the whole separable problem at
    C = 10 (unbound), then every fold fit of the grid problems."""
    X, y = _blobs(60, 0.3, 0)
    yield kernel_function("rbf", gamma=0.5), X, y, 10.0
    for blobs, grid in PROBLEMS.values():
        X, y = _blobs(*blobs)
        for gamma in grid["gamma"]:
            kernel = kernel_function("rbf", gamma=gamma)
            for train_idx, _ in KFold(3, 0).split(len(y)):
                for c in grid["C"]:
                    yield kernel, X[train_idx], y[train_idx], c


def test_unbound_solution_is_bitwise_the_larger_c_solution():
    unbound = 0
    for k, (kernel, X, y, c) in enumerate(_unbound_fits()):
        small = solve_smo(kernel, X, y, c)
        assert k > 0 or small.c_bound is False
        if small.c_bound:
            continue
        unbound += 1
        large = solve_smo(kernel, X, y, 10.0 * c)
        assert large.alpha.tobytes() == small.alpha.tobytes()
        assert large.bias.hex() == small.bias.hex()
        assert (large.iterations, large.converged, large.c_bound) == (
            small.iterations, small.converged, False)
    assert unbound > 1


def test_bound_solution_depends_on_c():
    """The flag is not vacuous: a bound run really changes with C."""
    X, y = _blobs(60, 1.2, 1)
    kernel = kernel_function("rbf", gamma=0.5)
    small = solve_smo(kernel, X, y, 1.0)
    assert small.c_bound is True
    assert not np.array_equal(small.alpha,
                              solve_smo(kernel, X, y, 10.0).alpha)


def test_second_order_pair_clipped_by_c_is_c_bound():
    """WSS2's ``j`` need not be ``argmax F``; a step C clips is C-bound.

    The warm start (repaired to ``a_0 = 44507.7``) makes ``i = 1``, and
    ``argmax F`` over ``I_low`` is index 0.  ``x_3`` duplicates ``x_1``,
    so ``eta_13`` floors at 1e-12 and WSS2 takes ``j = 3`` instead.  Its
    step is cut at ``H = C + a_3 - a_1``, and the rounding leaves
    ``a_1`` an ulp below ``C``: only the clip itself can flag the run.
    """
    X = np.array([[-1.2], [0.2], [0.1], [0.2]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    C = 1e5
    seed = np.array([96102.9, 84522.2, 81671.1, 47358.8])
    kernel = kernel_function("rbf", gamma=1.0)
    repaired = repair_alpha(seed, y, C)
    K = kernel(X, X)
    F = K @ (repaired * y) - y
    # Every alpha is strictly inside (0, C): all four indices are in
    # both I_up and I_low.
    assert (int(np.argmin(F)), int(np.argmax(F))) == (1, 0)
    step = solve_smo(kernel, X, y, C, alpha_init=seed, max_iter=1)
    moved = np.flatnonzero(step.alpha != repaired).tolist()
    assert moved == [1, 3]
    assert step.alpha[3] == (C + seed[3]) - seed[1]
    assert np.all(step.alpha < C)
    assert step.c_bound is True


def test_bound_fits_are_never_reused():
    blobs, grid = PROBLEMS["binding"]
    X, y = _blobs(*blobs)
    CountingSVC.fits = []
    _, reused = _reused(lambda: grid_search(CountingSVC, grid, X, y))
    assert reused == 0
    assert CountingSVC.fits == [True] * (3 * 4)


def test_only_unbound_fits_are_reused():
    blobs, grid = PROBLEMS["mixed"]
    X, y = _blobs(*blobs)
    CountingSVC.fits = []
    _, reused = _reused(lambda: grid_search(CountingSVC, grid, X, y))
    # Per (gamma, fold) chain along ascending C, fits stop at the first
    # unbound one and the rest of the chain is reused.
    chains = 0
    expected_reused = 0
    for gamma in grid["gamma"]:
        for train_idx, _ in KFold(3, 0).split(len(y)):
            for k, c in enumerate(sorted(grid["C"])):
                model = SVC(C=c, gamma=gamma).fit(X[train_idx],
                                                  y[train_idx])
                if not model.c_bound_:
                    expected_reused += len(grid["C"]) - k - 1
                    break
            chains += 1
    assert reused == expected_reused > 0
    assert len(CountingSVC.fits) + reused == chains * len(grid["C"])


def test_estimators_without_the_flag_are_always_refit():
    class Plain(SVC):
        def fit(self, X, y, alpha_init=None):
            super().fit(X, y, alpha_init=alpha_init)
            del self.c_bound_
            return self

        def clone(self):
            return Plain(**self.get_params())

    blobs, grid = PROBLEMS["unbound"]
    X, y = _blobs(*blobs)
    got, reused = _reused(lambda: grid_search(Plain, grid, X, y))
    assert reused == 0
    assert got == _cold_reference(grid, X, y)


class Wrapped:
    """A duck-typed estimator: clone, fit and score only (no c_bound_,
    no fit_stack), so the search fits it one at a time."""

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
    X, _ = _blobs(60, 1.0, 3)
    test_idx = next(KFold(3, 0).split(len(X)))[1]
    y = -np.ones(len(X))
    y[test_idx] = 1.0
    return X, y


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_single_class_fold_equals_cold_reference(n_jobs):
    X, y = _single_class_fold_problem()
    for train_idx, _ in KFold(3, 0).split(len(y)):
        if np.unique(y[train_idx]).size == 1:
            break
    else:
        raise AssertionError("no single-class training fold")
    grid = {"C": [1.0, 10.0], "gamma": [0.5, 2.0]}
    got = grid_search(SVC, grid, X, y, n_splits=3, n_jobs=n_jobs)
    assert got == _cold_reference(grid, X, y)


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_duck_typed_estimator_equals_cold_reference(n_jobs):
    blobs, grid = PROBLEMS["mixed"]
    X, y = _blobs(*blobs)
    got, reused = _reused(
        lambda: grid_search(Wrapped, grid, X, y, n_splits=3, n_jobs=n_jobs))
    assert reused == 0
    assert got == _cold_reference(grid, X, y)


def test_spy_reuse_is_the_same_at_any_n_jobs():
    """CountingSVC keeps its own fit (the per-estimator protocol) in
    worker processes too: results and reuse match the serial search."""
    blobs, grid = PROBLEMS["mixed"]
    X, y = _blobs(*blobs)
    serial = _reused(lambda: grid_search(CountingSVC, grid, X, y))
    assert _reused(lambda: grid_search(CountingSVC, grid, X, y,
                                       n_jobs=2)) == serial
    assert serial[0] == _cold_reference(grid, X, y)


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
    X, y = _blobs(*blobs)
    search = lambda factory: grid_search(factory, grid, X, y)  # noqa: E731
    stacked, counts = _learn_counters(lambda: search(SVC))
    alone, alone_counts = _learn_counters(lambda: search(CountingSVC))
    assert stacked == alone == search(SVC)
    for name in ("repro_learn_smo_solves_total",
                 "repro_learn_smo_iterations_total"):
        assert counts[name] == alone_counts[name] > 0
    # One at a time, every solve steps once per iteration.
    assert (alone_counts["repro_learn_smo_lockstep_steps_total"]
            == alone_counts["repro_learn_smo_iterations_total"])
    assert (counts["repro_learn_smo_lockstep_steps_total"]
            < counts["repro_learn_smo_iterations_total"])
