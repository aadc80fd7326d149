"""Golden SMO solutions: every route pinned bit for bit.

Each case is a seeded problem solved by :func:`repro.learn.smo.solve_smo`;
the pinned record is ``sha256(alpha.tobytes())``, ``bias.hex()``, the
iteration count and the convergence flag.  Any change to the solver's
floating-point operations or their order moves at least one record, so
a solver optimization that claims bit-identity is checked here, not
assumed.  The oracle is :func:`_reference_solve`, a plain-numpy form of
the solver's second-order (WSS2) loop; a first-order form of the same
loop checks that both rules solve the same QP.

The cases cover the dense, precomputed-``gram`` and column-cache routes
(the cache at three budgets and two kernel widths), warm starts
(feasible and repaired seeds), problems where the box bound ``C`` binds
and where it does not, an iteration-capped run and a degenerate-box
stop.

To print the records of the current solver (e.g. after a deliberate
numerical change), run ``python tests/learn/test_smo_golden.py``.
"""

import contextlib
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.learn import smo as smo_module
from repro.learn.kernels import kernel_function
from repro.learn.smo import solve_smo


def _blobs(n, spread, seed):
    rng = np.random.default_rng(seed)
    X1 = rng.normal([1.0, 0.0], spread, (n // 2, 2))
    X2 = rng.normal([-1.0, 0.0], spread, (n - n // 2, 2))
    y = np.r_[np.ones(n // 2), -np.ones(n - n // 2)]
    return np.vstack([X1, X2]), y


@contextlib.contextmanager
def _column_cache(limit, cache_bytes):
    """Force problems above ``limit`` rows onto the column-cache route,
    with a cache of ``cache_bytes``."""
    saved = smo_module.PRECOMPUTE_LIMIT, smo_module.CACHE_BYTES
    smo_module.PRECOMPUTE_LIMIT = limit
    smo_module.CACHE_BYTES = cache_bytes
    try:
        yield
    finally:
        smo_module.PRECOMPUTE_LIMIT, smo_module.CACHE_BYTES = saved


def _dense(n, spread, seed, C, kernel="rbf", gamma=1.0, **kw):
    X, y = _blobs(n, spread, seed)
    return solve_smo(kernel_function(kernel, gamma=gamma), X, y, C, **kw)


def _gram(n, spread, seed, C, kernel, gamma):
    X, y = _blobs(n, spread, seed)
    k = kernel_function(kernel, gamma=gamma)
    return solve_smo(None, X, y, C, gram=k(X, X))


def _cache(n, spread, seed, C, n_columns, gamma=1.0):
    X, y = _blobs(n, spread, seed)
    with _column_cache(10, 8 * n * n_columns):
        return solve_smo(kernel_function("rbf", gamma=gamma), X, y, C)


def _warm_from_smaller_c():
    X, y = _blobs(90, 0.9, 4)
    kernel = kernel_function("rbf", gamma=1.0)
    seed = solve_smo(kernel, X, y, 1.0).alpha
    return solve_smo(kernel, X, y, 3.0, alpha_init=seed)


def _warm_repaired():
    X, y = _blobs(70, 0.8, 5)
    rng = np.random.default_rng(11)
    seed = rng.uniform(0.0, 3.0, len(y))  # infeasible: box and equality
    return solve_smo(kernel_function("rbf", gamma=0.5), X, y, 2.0,
                     alpha_init=seed)


def _degenerate_box():
    """A warm start whose selected pair has an empty box.

    At ``C = 1e6`` the upper bound ``C + a_j - a_i`` of the pair
    (alpha ``C`` on the negative point, ``2e-12`` on a positive one)
    rounds to zero, so the solver stops on the degenerate-box branch
    before its first update.
    """
    X = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0])
    C = 1e6
    return solve_smo(kernel_function("rbf", gamma=1.0), X, y, C,
                     alpha_init=np.array([2e-12, C, C]))


CASES = {
    "dense_separable": lambda: _dense(80, 0.4, 0, 10.0),
    "dense_overlap_c1": lambda: _dense(120, 1.0, 1, 1.0),
    "dense_overlap_c50": lambda: _dense(120, 1.0, 1, 50.0),
    "dense_linear_c05": lambda: _dense(100, 0.9, 2, 0.5, kernel="linear"),
    "dense_capped": lambda: _dense(150, 1.1, 3, 20.0, max_iter=40),
    "gram_rbf": lambda: _gram(110, 0.9, 6, 5.0, "rbf", 2.0),
    "gram_poly": lambda: _gram(60, 0.7, 7, 1.0, "poly", 0.5),
    "cache_roomy": lambda: _cache(90, 0.9, 8, 10.0, 512),
    "cache_tight": lambda: _cache(90, 0.9, 8, 10.0, 4),
    "columns_rbf": lambda: _cache(100, 0.6, 9, 100.0, 8, gamma=0.8),
    "warm_from_smaller_c": _warm_from_smaller_c,
    "warm_repaired": _warm_repaired,
    "degenerate_box": _degenerate_box,
}


def _record(result):
    """``(sha256(alpha), bias.hex(), iterations, converged)``."""
    return (hashlib.sha256(result.alpha.tobytes()).hexdigest(),
            float(result.bias).hex(), int(result.iterations),
            bool(result.converged))


GOLDEN = {
    "cache_roomy": (
        "b64ede0739c4257761e79f3f3c6f62524c6d2513c7e09195ab4190aa6b5cfb59",
        "0x1.1a662ee2ab875p-10", 168, True),
    "cache_tight": (
        "b64ede0739c4257761e79f3f3c6f62524c6d2513c7e09195ab4190aa6b5cfb59",
        "0x1.1a662ee2ab875p-10", 168, True),
    "columns_rbf": (
        "5f6ec101331a6a9ed5a3621e882615979155cb5884c8038ff6dd6d620479f19b",
        "-0x1.522cdc6c3a180p+0", 196, True),
    "degenerate_box": (
        "7a5aff4a50a07c85968639568645a33318a55a2f76216251cfaafd8a5b879afb",
        "-0x0.0p+0", 0, False),
    "dense_capped": (
        "cdcfdea74e61ac64197686e0edeb22d7e2e58cfbafcb0168a4154c8ba4eaa887",
        "-0x1.0aca519d9ade0p-4", 40, False),
    "dense_linear_c05": (
        "9d9645b9cba11233931cfc2b4199e65074dec31ddf9a106e1272f9b6c9487067",
        "-0x1.fcf3b568782bcp-3", 41, True),
    "dense_overlap_c1": (
        "b463ac7b619ea3cbf4ecfccfd181415224429cd96a5494d306500c944b41f167",
        "-0x1.f128056e4cc9ep-4", 117, True),
    "dense_overlap_c50": (
        "bd3e6fecd0cb8cd469ec5ae82ae16f011e6c359c92ae18cce8fc378fc7d4a6f8",
        "-0x1.f18fd10cd7150p-5", 416, True),
    "dense_separable": (
        "21244f146639aa4a32aa3ab0f3d692ea691c441e1be0acc548b2f9d648cb42f0",
        "0x1.8ac78ae6217fcp-7", 24, True),
    "gram_poly": (
        "36fe1a40c2a7a91ed3e659a2713c766bfaecef7809a62811baf75dae98fd2b66",
        "0x1.a9790c433730fp-3", 27, True),
    "gram_rbf": (
        "6bec920fbdb15352aeb6b37d64ac2b689d8b7cafc76ddc057b50160010c833a6",
        "-0x1.d2d009b7b3c5bp-4", 253, True),
    "warm_from_smaller_c": (
        "6ef1d5e8ea7c05a101ab756ecaff2a000a4e75a6ee98ec7e62364a2fc284a693",
        "0x1.c2f77f03ac264p-4", 244, True),
    "warm_repaired": (
        "b55ae6ca5dcc8e7ac4ace01cb935463e55c0515fb7fa030e597d4fc1613b0b70",
        "0x1.865cf370efc88p-5", 78, True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_solution_is_bitwise_pinned(name):
    assert _record(CASES[name]()) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("budget", [0, 3600])
def test_eta_memo_budget_is_invisible(name, budget, monkeypatch):
    """A memo too small for every row only recomputes rows: budget 0
    leaves one slot, and 3600 bytes leave 3 to 5 slots on the blob
    cases, so rows keep evicting each other."""
    monkeypatch.setattr(smo_module, "ETA_CACHE_BYTES", budget)
    assert _record(CASES[name]()) == GOLDEN[name]


def test_eta_memo_stays_within_its_budget(monkeypatch):
    """The memo allocates at most ``ETA_CACHE_BYTES``, however large
    the problem; an unbounded memo would take another Gram matrix."""
    n, rows = 400, 16
    X, y = _blobs(n, 1.0, 1)
    K = kernel_function("rbf", gamma=1.0)(X, X)
    monkeypatch.setattr(smo_module, "ETA_CACHE_BYTES", 8 * n * rows)
    tracemalloc.start()
    try:
        solve_smo(None, X, y, 1.0, gram=K, max_iter=50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Besides the memo, the solver holds about 24 vectors of n floats
    # (buffers, the diagonal and the Python-float mirrors).
    assert peak <= 8 * n * (rows + 32) < K.nbytes


def test_cases_cover_every_stop():
    """The golden set keeps a capped run and a degenerate-box stop."""
    assert GOLDEN["dense_capped"][2:] == (40, False)
    assert GOLDEN["degenerate_box"][2:] == (0, False)


def _reference_solve(K, y, C, tol=1e-3, max_iter=None, alpha_init=None,
                     first_order=False):
    """The straightforward numpy form of the solver's loop.

    Same operations in the same order as :func:`solve_smo` on a Gram
    matrix, written without any of its interpreter-overhead cuts
    (masked copies for the pair selection, numpy scalars for the step,
    full mask recomputation, no eta-row memo); the solver must match
    it bit for bit.  ``i`` minimizes ``F`` over ``I_up``; ``j``
    maximizes ``(F_t - F_i)**2 / eta_it`` over ``t`` in ``I_low`` with
    ``F_t > F_i`` (Fan, Chen & Lin 2005, WSS2).  ``first_order=True``
    instead takes ``j = argmax F`` over ``I_low`` (the maximal violating
    pair of Keerthi et al.), the rule the solver used before WSS2.
    """
    n = len(y)
    max_iter = max(2000, 200 * n) if max_iter is None else max_iter
    alpha = np.zeros(n)
    if alpha_init is not None:
        repaired = smo_module.repair_alpha(alpha_init, y, C)
        if repaired is not None:
            alpha = repaired
    F = -y.copy()
    if np.any(alpha):
        F = np.zeros(n)
        for k in np.flatnonzero(alpha):
            F += (alpha[k] * y[k]) * K[int(k)]
        F -= y
    d = np.diagonal(K)

    def masks():
        up = ((y > 0) & (alpha < C - 1e-12)) | ((y < 0) & (alpha > 1e-12))
        low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < C - 1e-12))
        return up, low

    iterations, converged = 0, False
    while iterations < max_iter:
        up, low = masks()
        if not up.any() or not low.any():
            converged = True
            break
        i = int(np.argmin(np.where(up, F, np.inf)))
        b_low = np.max(np.where(low, F, -np.inf))
        if b_low - F[i] <= 2.0 * tol:
            converged = True
            break
        if first_order:
            j = int(np.argmax(np.where(low, F, -np.inf)))
            eta = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        else:
            eta_row = np.maximum((K[i, i] + d) - 2.0 * K[i], 1e-12)
            diff = F - F[i]
            gain = np.where(low & (diff > 0), diff * diff / eta_row,
                            -np.inf)
            j = int(np.argmax(gain))
            eta = eta_row[j]
        s = y[i] * y[j]
        if s > 0:
            L = max(0.0, alpha[i] + alpha[j] - C)
            H = min(C, alpha[i] + alpha[j])
        else:
            L = max(0.0, alpha[j] - alpha[i])
            H = min(C, C + alpha[j] - alpha[i])
        if H - L < 1e-14:
            break
        aj = min(max(alpha[j] + y[j] * (F[i] - F[j]) / eta, L), H)
        ai = alpha[i] + s * (alpha[j] - aj)
        dai, daj = ai - alpha[i], aj - alpha[j]
        if abs(daj) < 1e-14:
            break
        alpha[i], alpha[j] = ai, aj
        F += dai * y[i] * K[i] + daj * y[j] * K[j]
        iterations += 1
    up, low = masks()
    ends = []
    if up.any():
        ends.append(float(np.min(np.where(up, F, np.inf))))
    if low.any():
        ends.append(float(np.max(np.where(low, F, -np.inf))))
    bias = -sum(ends) / len(ends) if ends else 0.0
    return smo_module.SMOResult(alpha, bias, iterations, converged)


def _random_problem(seed):
    """Random problems, cold and warm, across C regimes and kernels."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(20, 90))
    X, y = _blobs(n, float(rng.uniform(0.3, 1.5)), seed)
    C = float(10.0 ** rng.uniform(-1.0, 3.0))
    kernel = ("rbf", "linear", "poly")[seed % 3]
    K = kernel_function(kernel, gamma=float(rng.uniform(0.2, 3.0)))(X, X)
    seed_alpha = (rng.uniform(0.0, 2.0 * C, n) if seed % 2 else None)
    return kernel, K, y, C, seed_alpha


@pytest.mark.parametrize("seed", range(12))
def test_solver_matches_reference_loop(seed):
    _, K, y, C, seed_alpha = _random_problem(seed)
    got = solve_smo(None, K, y, C, gram=K, alpha_init=seed_alpha)
    want = _reference_solve(K, y, C, alpha_init=seed_alpha)
    assert _record(got) == _record(want)


#: The converged blob cases' problems: ``(n, spread, seed, C, kernel,
#: gamma)`` as in :data:`CASES`, solved on ``kernel(X, X)``.
BLOB_PROBLEMS = [
    (80, 0.4, 0, 10.0, "rbf", 1.0),
    (120, 1.0, 1, 1.0, "rbf", 1.0),
    (120, 1.0, 1, 50.0, "rbf", 1.0),
    (100, 0.9, 2, 0.5, "linear", 1.0),
    (110, 0.9, 6, 5.0, "rbf", 2.0),
    (60, 0.7, 7, 1.0, "poly", 0.5),
    (90, 0.9, 8, 10.0, "rbf", 1.0),
    (100, 0.6, 9, 100.0, "rbf", 0.8),
]

#: Dual objectives of the two rules agree to this relative tolerance.
#: Both stop at a KKT gap <= 2 * tol = 2e-3; the largest relative gap
#: between their objectives over these problems is 7e-6 (random seed
#: 10, a linear kernel at ``C`` about 470).
DUAL_RTOL = 1e-4

#: An iteration cap both rules converge under on every problem here.
#: The default cap stops three random problems early: the cubic
#: kernels of seeds 5 and 8 (diagonals spanning up to eight decades)
#: and the linear kernel of seed 10 at ``C`` about 470.
QP_MAX_ITER = 200_000


def _qp_problems():
    for seed in range(12):
        yield _random_problem(seed)
    for n, spread, seed, C, kernel, gamma in BLOB_PROBLEMS:
        X, y = _blobs(n, spread, seed)
        yield kernel, kernel_function(kernel, gamma=gamma)(X, X), y, C, None


def _kkt_gap(K, y, C, alpha):
    F = K @ (alpha * y) - y
    up = ((y > 0) & (alpha < C - 1e-12)) | ((y < 0) & (alpha > 1e-12))
    low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < C - 1e-12))
    return np.max(F[low]) - np.min(F[up])


def _dual(K, y, alpha):
    v = alpha * y
    return np.sum(alpha) - 0.5 * v @ K @ v


def test_second_order_solves_the_same_qp():
    """WSS2 and the first-order rule reach the same optimum.

    WSS2 takes fewer iterations in total on the RBF and linear
    problems (the kernels the compaction flow fits).  On the cubic
    problems it does not: seeds 5 and 8 take 13,749 and 107,955
    iterations against the first-order rule's 8,470 and 79,605, so the
    polynomial total is only checked for convergence.
    """
    totals = {}
    for kernel, K, y, C, seed_alpha in _qp_problems():
        second = solve_smo(None, K, y, C, gram=K, alpha_init=seed_alpha,
                           max_iter=QP_MAX_ITER)
        first = _reference_solve(K, y, C, alpha_init=seed_alpha,
                                 max_iter=QP_MAX_ITER, first_order=True)
        for result in (second, first):
            assert result.converged
            # F recomputed in one product differs from the solver's
            # incremental F in the last bits only.
            assert _kkt_gap(K, y, C, result.alpha) <= 2e-3 + 1e-9
            assert abs(result.alpha @ y) <= 1e-9
            # The step's rounding can leave alpha an ulp outside the
            # box; the solver's membership tests allow 1e-12.
            assert np.all((result.alpha >= -1e-12)
                          & (result.alpha <= C + 1e-12))
        w2, w1 = _dual(K, y, second.alpha), _dual(K, y, first.alpha)
        assert abs(w2 - w1) <= DUAL_RTOL * max(1.0, abs(w1))
        pair = totals.setdefault(kernel, [0, 0])
        pair[0] += second.iterations
        pair[1] += first.iterations
    assert totals["rbf"][0] < totals["rbf"][1]
    assert totals["linear"][0] < totals["linear"][1]
    # Not a gap in the test: WSS2 is expected to need more iterations
    # than the first-order rule on the cubic problems (see above), so
    # totals["poly"] is deliberately not compared.


if __name__ == "__main__":
    for case in sorted(CASES):
        sha, bias, iterations, converged = _record(CASES[case]())
        print('    "{}": (\n        "{}",\n        "{}", {}, {}),'.format(
            case, sha, bias, iterations, converged))
