"""Lockstep stacks: every stacked problem is bitwise its solve alone.

:func:`repro.learn.smo.solve_smo_stack` runs B problems through one
WSS2 loop, padded to the largest.  The golden records of
``test_smo_golden.py`` pin each problem's single solve, so a stack of
all of them, mixed sizes, kernels, ``C``, caps and warm starts
together, must reproduce every record.  A property test checks random
stacks against :func:`solve_smo`, and the stack byte budget is checked
with tracemalloc through :meth:`repro.learn.svm.SVC.fit_stack`.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.learn import SVC
from repro.learn import smo as smo_module
from repro.learn.columns import KernelColumnCache
from repro.learn.kernels import kernel_function
from repro.learn.smo import SMOProblem, solve_smo, solve_smo_stack, \
    split_stack
from repro.telemetry import Telemetry, set_telemetry
from tests.learn.test_smo_golden import CASES, GOLDEN, _blobs, _record


def _dense(n, spread, seed, C, kernel="rbf", gamma=1.0, **kw):
    X, y = _blobs(n, spread, seed)
    return SMOProblem(kernel_function(kernel, gamma=gamma), X, y, C, **kw)


def _gram(n, spread, seed, C, kernel, gamma):
    X, y = _blobs(n, spread, seed)
    K = kernel_function(kernel, gamma=gamma)(X, X)
    return SMOProblem(None, X, y, C, gram=K)


def _column_gram(n, spread, seed, C, gamma):
    """The column-cache route's problem on a Gram of its column bits
    (block fetches differ from the full product in the last ulp)."""
    X, y = _blobs(n, spread, seed)
    cache = KernelColumnCache(X, kernel_function("rbf", gamma=gamma),
                              1 << 20)
    K = np.array([cache.column(i) for i in range(n)])
    return SMOProblem(None, X, y, C, gram=K)


def _warm_from_smaller_c():
    X, y = _blobs(90, 0.9, 4)
    kernel = kernel_function("rbf", gamma=1.0)
    seed = solve_smo(kernel, X, y, 1.0).alpha
    return SMOProblem(kernel, X, y, 3.0, alpha_init=seed)


def _warm_repaired():
    X, y = _blobs(70, 0.8, 5)
    seed = np.random.default_rng(11).uniform(0.0, 3.0, len(y))
    return SMOProblem(kernel_function("rbf", gamma=0.5), X, y, 2.0,
                      alpha_init=seed)


def _degenerate_box():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0])
    C = 1e6
    return SMOProblem(kernel_function("rbf", gamma=1.0), X, y, C,
                      alpha_init=np.array([2e-12, C, C]))


#: :data:`CASES` as stack problems, argument for argument.
PROBLEMS = {
    "dense_separable": lambda: _dense(80, 0.4, 0, 10.0),
    "dense_overlap_c1": lambda: _dense(120, 1.0, 1, 1.0),
    "dense_overlap_c50": lambda: _dense(120, 1.0, 1, 50.0),
    "dense_linear_c05": lambda: _dense(100, 0.9, 2, 0.5, kernel="linear"),
    "dense_capped": lambda: _dense(150, 1.1, 3, 20.0, max_iter=40),
    "gram_rbf": lambda: _gram(110, 0.9, 6, 5.0, "rbf", 2.0),
    "gram_poly": lambda: _gram(60, 0.7, 7, 1.0, "poly", 0.5),
    "cache_roomy": lambda: _column_gram(90, 0.9, 8, 10.0, 1.0),
    "cache_tight": lambda: _column_gram(90, 0.9, 8, 10.0, 1.0),
    "columns_rbf": lambda: _column_gram(100, 0.6, 9, 100.0, 0.8),
    "warm_from_smaller_c": _warm_from_smaller_c,
    "warm_repaired": _warm_repaired,
    "degenerate_box": _degenerate_box,
}


def _same(got, want):
    assert got.alpha.tobytes() == want.alpha.tobytes()
    assert float(got.bias).hex() == float(want.bias).hex()
    assert (got.iterations, got.converged, got.c_bound) == (
        want.iterations, want.converged, want.c_bound)


def test_problems_mirror_the_golden_cases():
    assert sorted(PROBLEMS) == sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("budget", [None, 0])
def test_golden_cases_in_one_stack(budget, monkeypatch):
    """All cases, 3 to 150 rows, in one padded stack; budget 0 leaves
    one eta memo slot per problem, so rows keep evicting each other."""
    if budget is not None:
        monkeypatch.setattr(smo_module, "ETA_CACHE_BYTES", budget)
    names = sorted(PROBLEMS)
    results, steps = solve_smo_stack([PROBLEMS[k]() for k in names])
    for name, result in zip(names, results):
        assert _record(result) == GOLDEN[name], name
    # The stack runs as long as its longest member, not their sum (a
    # member that stops on a break spends one more step).
    assert max(GOLDEN[k][2] for k in names) <= steps
    assert steps <= max(GOLDEN[k][2] for k in names) + 1


def test_stack_order_does_not_matter():
    names = sorted(PROBLEMS)[::-1]
    results, _ = solve_smo_stack([PROBLEMS[k]() for k in names])
    for name, result in zip(names, results):
        assert _record(result) == GOLDEN[name], name


def test_empty_and_single_stacks():
    assert solve_smo_stack([]) == ([], 0)
    (result,), steps = solve_smo_stack([PROBLEMS["dense_separable"]()])
    assert _record(result) == GOLDEN["dense_separable"]
    assert steps == GOLDEN["dense_separable"][2]


def _random_problem(rng, seed):
    n = int(rng.integers(6, 40))
    X, y = _blobs(n, float(rng.uniform(0.3, 1.5)), seed)
    C = float(10.0 ** rng.uniform(-1.0, 2.5))
    kernel = kernel_function(("rbf", "linear", "poly")[seed % 3],
                             gamma=float(rng.uniform(0.2, 3.0)))
    alpha_init = rng.uniform(0.0, 2.0 * C, n) if seed % 2 else None
    return SMOProblem(kernel, X, y, C, alpha_init=alpha_init)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), size=st.integers(0, 5),
       cap=st.integers(0, 30))
def test_random_stacks_match_single_solves(seed, size, cap):
    """Each stack holds a max_iter-capped member and a degenerate-box
    member besides random cold and warm problems."""
    rng = np.random.default_rng(seed)
    problems = [_random_problem(rng, seed + k) for k in range(size)]
    capped = _random_problem(rng, seed + size)
    capped.max_iter = cap
    problems.insert(int(rng.integers(0, size + 1)), capped)
    problems.insert(int(rng.integers(0, size + 2)), _degenerate_box())
    results, _ = solve_smo_stack(problems)
    for p, got in zip(problems, results):
        _same(got, solve_smo(p.kernel, p.X, p.y, p.C, max_iter=p.max_iter,
                             gram=p.gram, alpha_init=p.alpha_init))
    assert results[problems.index(capped)].iterations <= cap


def test_split_stack_keeps_order_and_budget(monkeypatch):
    per = 8 * 50 * (50 + 50)
    monkeypatch.setattr(smo_module, "STACK_BYTES", 3 * per)
    assert split_stack([50] * 7) == [[0, 1, 2], [3, 4, 5], [6]]
    # Padding counts: a wide problem makes its stack wide.
    assert split_stack([10, 50, 10, 10]) == [[0, 1, 2], [3]]
    # A problem over the budget alone is a stack of one.
    assert split_stack([50, 400, 50]) == [[0], [1], [2]]
    assert split_stack([]) == []


class _Events(list):
    """A telemetry sink that keeps every event."""

    emit = list.append


def _stack_spans(fn):
    """Run ``fn`` under a fresh registry; its ``train.svc_stack`` attrs."""
    events = _Events()
    previous = set_telemetry(Telemetry(run_id="stack", sink=events))
    try:
        fn()
    finally:
        set_telemetry(previous)
    return [e["attrs"] for e in events
            if e["event"] == "span" and e["name"] == "train.svc_stack"]


def test_level_over_budget_is_split_within_it(monkeypatch):
    """Six 200-row fits at a budget of two: three stacks, each fit
    bitwise its own ``fit``, and a peak far below one whole stack."""
    n, count = 200, 6
    per = 8 * n * (n + smo_module._eta_slots(n))
    budget = 2 * per
    monkeypatch.setattr(smo_module, "STACK_BYTES", budget)
    data = [_blobs(n, 1.0, seed) for seed in range(count)]
    models = [SVC(C=10.0, gamma=g) for g in (0.5, 1.0, 2.0) * 2]
    SVC().fit(*data[0])  # one-time allocations outside the measurement
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        spans = _stack_spans(lambda: SVC.fit_stack(
            models, [X for X, _ in data], [y for _, y in data]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [s["problems"] for s in spans] == [2, 2, 2]
    # Besides the stack, one Gram matrix under construction holds at
    # most three n x n arrays.
    assert peak - start <= budget + 3 * 8 * n * n
    assert peak - start < count * per
    for model, (X, y) in zip(models, data):
        alone = model.clone().fit(X, y)
        assert model.alpha_.tobytes() == alone.alpha_.tobytes()
        assert model.intercept_.hex() == alone.intercept_.hex()
        assert model.n_iter_ == alone.n_iter_
