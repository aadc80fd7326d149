"""KernelColumnCache: the shared, bounded kernel-column source."""

import numpy as np
import pytest

from repro.errors import LearningError
from repro.learn.columns import KernelColumnCache
from repro.learn import smo as smo_module
from repro.learn.kernels import kernel_function
from repro.learn.smo import solve_smo


def _points(n=50, d=3, seed=0):
    return np.random.default_rng(seed).normal(0.0, 1.0, (n, d))


class TestContract:
    def test_columns_match_internal_cache_bitwise(self):
        """A gamma provider must serve the *same bytes* as the provider
        ``solve_smo`` builds from its own kernel callable -- that
        equality is what makes out-of-core fits bit-identical to in-RAM
        fits."""
        X = _points()
        gamma = 0.7
        external = KernelColumnCache(X, max_bytes=1 << 20)
        internal = KernelColumnCache(X, max_bytes=8 * len(X) * 512)
        provider = external.provider(gamma)
        solver_side = internal.provider(kernel_function("rbf", gamma=gamma))
        for i in range(len(X)):
            assert np.array_equal(provider.column(i),
                                  solver_side.column(i))

    def test_out_of_core_fit_matches_in_ram_bitwise(self, monkeypatch):
        """Above the precompute limit, ``columns=`` and the solver's own
        cache give the same alphas, bias and iteration count."""
        rng = np.random.default_rng(3)
        X = _points(n=80, d=2, seed=3)
        y = np.where(X[:, 0] + 0.5 * rng.normal(size=80) > 0, 1.0, -1.0)
        kernel = kernel_function("rbf", gamma=0.7)
        monkeypatch.setattr(smo_module, "PRECOMPUTE_LIMIT", 10)
        in_ram = solve_smo(kernel, X, y, 10.0, cache_columns=8)
        out_of_core = solve_smo(
            kernel, X, y, 10.0,
            columns=KernelColumnCache(X, max_bytes=1 << 12).provider(0.7))
        assert np.array_equal(in_ram.alpha, out_of_core.alpha)
        assert in_ram.bias == out_of_core.bias
        assert in_ram.iterations == out_of_core.iterations

    def test_block_width_is_invisible(self):
        X = _points(seed=1)
        a = KernelColumnCache(X, max_bytes=1 << 20, block_columns=4)
        b = KernelColumnCache(X, max_bytes=1 << 20, block_columns=13)
        for i in range(len(X)):
            assert np.array_equal(a.column(0.5, i), b.column(0.5, i))

    def test_multiple_gammas_coexist(self):
        X = _points()
        cache = KernelColumnCache(X, max_bytes=1 << 20)
        k1 = kernel_function("rbf", gamma=0.3)(X, X[0:4].copy())[:, 2]
        k2 = kernel_function("rbf", gamma=3.0)(X, X[0:4].copy())[:, 2]
        # Served per (gamma, block): distinct entries, correct bytes.
        assert np.array_equal(
            KernelColumnCache(X, max_bytes=1 << 20,
                              block_columns=4).column(0.3, 2), k1)
        assert np.array_equal(cache.provider(3.0).column(2),
                              kernel_function("rbf", gamma=3.0)(
                                  X, X[0:64].copy())[:, 2])
        assert not np.array_equal(k1, k2)

    def test_matches(self):
        X = _points()
        cache = KernelColumnCache(X, max_bytes=1 << 20)
        assert cache.matches(X)
        assert cache.matches(X.copy())
        assert not cache.matches(X[:-1])
        assert not cache.matches(X + 1e-9)


class TestBounds:
    def test_lru_eviction_respects_budget(self):
        X = _points(n=64)
        block = 8
        # Budget for exactly 3 blocks.
        budget = 3 * 8 * len(X) * block
        cache = KernelColumnCache(X, max_bytes=budget,
                                  block_columns=block)
        for i in range(len(X)):
            cache.column(1.0, i)
        assert cache.n_cached_blocks <= cache.max_blocks == 3
        # Evicted blocks refetch to the same bytes.
        reference = kernel_function("rbf", gamma=1.0)(
            X, X[0:block].copy())[:, 0]
        assert np.array_equal(cache.column(1.0, 0), reference)

    def test_hit_refreshes_recency(self):
        """Eviction drops the least recently *used* block."""
        X = _points(n=32)
        cache = KernelColumnCache(X, max_bytes=2 * 8 * len(X) * 8,
                                  block_columns=8)
        cache.column(1.0, 0)    # block 0
        cache.column(1.0, 8)    # block 8
        cache.column(1.0, 1)    # hit: block 0 is now the newest
        cache.column(1.0, 16)   # evicts block 8, not block 0
        fetches = cache.n_fetches
        cache.column(1.0, 2)
        assert cache.n_fetches == fetches
        cache.column(1.0, 9)
        assert cache.n_fetches == fetches + 1

    def test_hit_and_fetch_stats(self):
        X = _points(n=20)
        cache = KernelColumnCache(X, max_bytes=1 << 20, block_columns=8)
        cache.column(1.0, 0)
        assert (cache.n_fetches, cache.n_hits) == (1, 0)
        cache.column(1.0, 5)  # same block
        assert (cache.n_fetches, cache.n_hits) == (1, 1)
        cache.column(1.0, 15)  # new block
        assert (cache.n_fetches, cache.n_hits) == (2, 1)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(LearningError):
            KernelColumnCache(np.zeros(5))
        with pytest.raises(LearningError):
            KernelColumnCache(np.zeros((0, 3)))
