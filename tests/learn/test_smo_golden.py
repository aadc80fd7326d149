"""Golden SMO solutions: every route pinned bit for bit.

Each case is a seeded problem solved by :func:`repro.learn.smo.solve_smo`;
the pinned record is ``sha256(alpha.tobytes())``, ``bias.hex()``, the
iteration count and the convergence flag.  Any change to the solver's
floating-point operations or their order moves at least one record, so
a solver optimization that claims bit-identity is checked here, not
assumed.

The cases cover the dense, precomputed-``gram``, internal column-cache
and external ``columns=`` routes, warm starts (feasible and repaired
seeds), problems where the box bound ``C`` binds and where it does not,
an iteration-capped run and a degenerate-box stop.

To print the records of the current solver (e.g. after a deliberate
numerical change), run ``python tests/learn/test_smo_golden.py``.
"""

import contextlib
import hashlib

import numpy as np
import pytest

from repro.learn import smo as smo_module
from repro.learn.columns import KernelColumnCache
from repro.learn.kernels import kernel_function
from repro.learn.smo import solve_smo


def _blobs(n, spread, seed):
    rng = np.random.default_rng(seed)
    X1 = rng.normal([1.0, 0.0], spread, (n // 2, 2))
    X2 = rng.normal([-1.0, 0.0], spread, (n - n // 2, 2))
    y = np.r_[np.ones(n // 2), -np.ones(n - n // 2)]
    return np.vstack([X1, X2]), y


@contextlib.contextmanager
def _precompute_limit(limit):
    """Force problems above ``limit`` rows onto the column routes."""
    saved = smo_module.PRECOMPUTE_LIMIT
    smo_module.PRECOMPUTE_LIMIT = limit
    try:
        yield
    finally:
        smo_module.PRECOMPUTE_LIMIT = saved


def _dense(n, spread, seed, C, kernel="rbf", gamma=1.0, **kw):
    X, y = _blobs(n, spread, seed)
    return solve_smo(kernel_function(kernel, gamma=gamma), X, y, C, **kw)


def _gram(n, spread, seed, C, kernel, gamma):
    X, y = _blobs(n, spread, seed)
    k = kernel_function(kernel, gamma=gamma)
    return solve_smo(None, X, y, C, gram=k(X, X))


def _cache(n, spread, seed, C, cache_columns):
    X, y = _blobs(n, spread, seed)
    with _precompute_limit(10):
        return solve_smo(kernel_function("rbf", gamma=1.0), X, y, C,
                         cache_columns=cache_columns)


def _columns(n, spread, seed, C, gamma):
    X, y = _blobs(n, spread, seed)
    provider = KernelColumnCache(X, max_bytes=1 << 16).provider(gamma)
    with _precompute_limit(10):
        return solve_smo(kernel_function("rbf", gamma=gamma), X, y, C,
                         columns=provider)


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
    """A warm start whose maximal violating pair has an empty box.

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
    "columns_rbf": lambda: _columns(100, 0.6, 9, 100.0, 0.8),
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
        "41a0aa6ad2b898b8c3d986e867149a4da00f219d51ce08eb1d8168058b2d6cd7",
        "0x1.7f28828c9c876p-10", 528, True),
    "cache_tight": (
        "41a0aa6ad2b898b8c3d986e867149a4da00f219d51ce08eb1d8168058b2d6cd7",
        "0x1.7f28828c9c876p-10", 528, True),
    "columns_rbf": (
        "049013d4196be61c1c95ef0940169db39f32b2144544d114980df4a0eb995791",
        "-0x1.51f7a17d516f5p+0", 406, True),
    "degenerate_box": (
        "7a5aff4a50a07c85968639568645a33318a55a2f76216251cfaafd8a5b879afb",
        "-0x0.0p+0", 0, False),
    "dense_capped": (
        "9feeb83a607df1bef61dabb82ef87a96992938ce9802b9c792411b2f5f4289ea",
        "-0x1.921336909e010p-3", 40, False),
    "dense_linear_c05": (
        "35fb319c1aa9b4149bae58865a968a1819268b737b70be0683e36f9da6523760",
        "-0x1.0335cf057b400p-2", 115, True),
    "dense_overlap_c1": (
        "283d58ec84d261f6b0c1ee93e3b4caea2ce8bdd7ffc73ba4f6edb1019c8f0b5e",
        "-0x1.f13918973d77ep-4", 303, True),
    "dense_overlap_c50": (
        "da27631abbfa258f8fc85640daef5d6424bea11de50cc9fd77a442c71e41d64a",
        "-0x1.efdba32254088p-5", 2239, True),
    "dense_separable": (
        "93e0b7fd4b057efe5278cd80f0b3863a4ef34586bfacd93b03e26cac8ec145c7",
        "0x1.7ff3d26417eb0p-7", 34, True),
    "gram_poly": (
        "c0de193c0ba1a80b22404e437daa84b23a1d34e0f2da049148e683cd86b4ead1",
        "0x1.a827fcce1c6e8p-3", 35, True),
    "gram_rbf": (
        "2d548f0d9e76e55e06f2d4ebf19475840d1928bfedd78b1e05da4945b488df89",
        "-0x1.d27e1424bd3fep-4", 496, True),
    "warm_from_smaller_c": (
        "94c651983821145d8dd831dc07c46d6ca148db505510193e33c5d90ed89598cd",
        "0x1.c2eaa84ee821dp-4", 273, True),
    "warm_repaired": (
        "0bed859a49ef13e9cd0d661e41436e2dbf52b6577841226ff2c2be2844461bc1",
        "0x1.8689ef143e7e4p-5", 88, True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_solution_is_bitwise_pinned(name):
    assert _record(CASES[name]()) == GOLDEN[name]


def test_cases_cover_every_stop():
    """The golden set keeps a capped run and a degenerate-box stop."""
    assert GOLDEN["dense_capped"][2:] == (40, False)
    assert GOLDEN["degenerate_box"][2:] == (0, False)


def _reference_solve(K, y, C, tol=1e-3, max_iter=None, alpha_init=None):
    """The straightforward numpy-scalar form of the solver's loop.

    Same operations in the same order as :func:`solve_smo` on a Gram
    matrix, written without any of its interpreter-overhead cuts
    (masked copies for the pair selection, numpy scalars for the step,
    full mask recomputation); the solver must match it bit for bit.
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
        j = int(np.argmax(np.where(low, F, -np.inf)))
        if F[j] - F[i] <= 2.0 * tol:
            converged = True
            break
        eta = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
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


@pytest.mark.parametrize("seed", range(12))
def test_solver_matches_reference_loop(seed):
    """Random problems, cold and warm, across C regimes and kernels."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(20, 90))
    X, y = _blobs(n, float(rng.uniform(0.3, 1.5)), seed)
    C = float(10.0 ** rng.uniform(-1.0, 3.0))
    kernel = ("rbf", "linear", "poly")[seed % 3]
    K = kernel_function(kernel, gamma=float(rng.uniform(0.2, 3.0)))(X, X)
    seed_alpha = (rng.uniform(0.0, 2.0 * C, n) if seed % 2 else None)
    got = solve_smo(None, X, y, C, gram=K, alpha_init=seed_alpha)
    want = _reference_solve(K, y, C, alpha_init=seed_alpha)
    assert _record(got) == _record(want)


if __name__ == "__main__":
    for case in sorted(CASES):
        sha, bias, iterations, converged = _record(CASES[case]())
        print('    "{}": (\n        "{}",\n        "{}", {}, {}),'.format(
            case, sha, bias, iterations, converged))
