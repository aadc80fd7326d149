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
from repro.learn.smo import solve_smo
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


def test_unbound_solution_is_bitwise_the_larger_c_solution():
    X, y = _blobs(60, 0.3, 0)
    kernel = kernel_function("rbf", gamma=0.5)
    small = solve_smo(kernel, X, y, 10.0)
    assert small.c_bound is False
    large = solve_smo(kernel, X, y, 100.0)
    assert large.alpha.tobytes() == small.alpha.tobytes()
    assert large.bias.hex() == small.bias.hex()
    assert (large.iterations, large.converged, large.c_bound) == (
        small.iterations, small.converged, False)


def test_bound_solution_depends_on_c():
    """The flag is not vacuous: a bound run really changes with C."""
    X, y = _blobs(60, 1.2, 1)
    kernel = kernel_function("rbf", gamma=0.5)
    small = solve_smo(kernel, X, y, 1.0)
    assert small.c_bound is True
    assert not np.array_equal(small.alpha,
                              solve_smo(kernel, X, y, 10.0).alpha)


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
