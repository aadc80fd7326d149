"""SMO kernel-column-cache path tests (large-problem mode).

Above the precompute limit the solver serves columns from its own
:class:`repro.learn.columns.KernelColumnCache`, sized by
:data:`repro.learn.smo.CACHE_BYTES`.
"""

import numpy as np

from repro.learn import SVC
from repro.learn.kernels import kernel_function
from repro.learn import smo as smo_module
from repro.learn.columns import KernelColumnCache
from repro.learn.smo import solve_smo


def _blobs(n=80, seed=0):
    rng = np.random.default_rng(seed)
    X1 = rng.normal([2, 0], 0.6, (n // 2, 2))
    X2 = rng.normal([-2, 0], 0.6, (n // 2, 2))
    return np.vstack([X1, X2]), np.r_[np.ones(n // 2), -np.ones(n // 2)]


def _solver_cache(kernel, X, max_columns, block):
    """A cache like the solver's, with room for ``max_columns``."""
    return KernelColumnCache(X, kernel, 8 * len(X) * max_columns,
                             block_columns=block)


class TestColumnCache:
    def test_columns_match_block_gemm(self):
        """Cached columns are bitwise the distinct-buffer GEMM columns.

        (Not compared against ``kernel(X, X)``: the same-buffer product
        takes BLAS's syrk path, whose bits legitimately differ from the
        block GEMM fetches -- that is exactly why column sources only
        serve problems above the precompute limit.)
        """
        X, _ = _blobs(20)
        kernel = kernel_function("rbf", gamma=1.0)
        cache = _solver_cache(kernel, X, max_columns=64, block=4)
        for i in (0, 5, 19):
            i0 = (i // 4) * 4
            expect = kernel(X, X[i0:i0 + 4].copy())[:, i - i0]
            assert np.array_equal(cache.column(i), expect)

    def test_block_size_invariance(self):
        """Any partial block width yields bitwise identical columns.

        Widths below ``n`` all go through general GEMM; a block
        spanning the whole matrix would hand BLAS the original buffer
        back (the syrk special case), which never happens in practice
        because the solver caches only problems above the precompute
        limit, far wider than a block.
        """
        X, _ = _blobs(30, seed=1)
        kernel = kernel_function("rbf", gamma=0.5)
        caches = [_solver_cache(kernel, X, max_columns=64, block=b)
                  for b in (2, 4, 7, 16)]
        for i in range(len(X)):
            cols = [c.column(i) for c in caches]
            for col in cols[1:]:
                assert np.array_equal(col, cols[0])

    def test_eviction_keeps_results_correct(self):
        X, _ = _blobs(30)
        kernel = kernel_function("rbf", gamma=0.5)
        cache = _solver_cache(kernel, X, max_columns=8, block=4)
        reference = [np.array(cache.column(i)) for i in range(len(X))]
        # Touch more blocks than the cache holds, then re-read: the
        # refetched columns must be bitwise stable.
        for i in range(len(X)):
            assert np.array_equal(cache.column(i), reference[i])
        assert cache.n_cached_blocks <= cache.max_blocks == 2


class TestCacheModeEquivalence:
    def test_same_solution_as_precomputed(self, monkeypatch):
        """Forcing the column-cache path reproduces the dense result."""
        X, y = _blobs(100, seed=3)
        kernel = kernel_function("rbf", gamma=1.0)
        dense = solve_smo(kernel, X, y, C=10.0)
        monkeypatch.setattr(smo_module, "PRECOMPUTE_LIMIT", 10)
        monkeypatch.setattr(smo_module, "CACHE_BYTES", 8 * len(X) * 16)
        cached = solve_smo(kernel, X, y, C=10.0)
        # Same decision function on the training points.
        K = kernel(X, X)
        f_dense = K @ (dense.alpha * y) + dense.bias
        f_cached = K @ (cached.alpha * y) + cached.bias
        assert np.array_equal(np.sign(f_dense), np.sign(f_cached))

    def test_cache_bound_does_not_change_solution(self, monkeypatch):
        """Eviction pressure never changes a single bit of the result."""
        X, y = _blobs(90, seed=7)
        kernel = kernel_function("rbf", gamma=1.0)
        monkeypatch.setattr(smo_module, "PRECOMPUTE_LIMIT", 10)
        roomy = solve_smo(kernel, X, y, C=10.0)
        monkeypatch.setattr(smo_module, "CACHE_BYTES", 8 * len(X) * 4)
        tight = solve_smo(kernel, X, y, C=10.0)
        assert np.array_equal(roomy.alpha, tight.alpha)
        assert roomy.bias == tight.bias

    def test_svc_accuracy_unchanged_in_cache_mode(self, monkeypatch):
        X, y = _blobs(120, seed=5)
        monkeypatch.setattr(smo_module, "PRECOMPUTE_LIMIT", 10)
        model = SVC(C=10.0, gamma=1.0).fit(X, y)
        assert model.score(X, y) == 1.0
