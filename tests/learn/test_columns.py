"""KernelColumnCache: the solver's bounded kernel-column cache."""

import numpy as np
import pytest

from repro.errors import LearningError
from repro.learn.columns import KernelColumnCache
from repro.learn.kernels import kernel_function


def _points(n=50, d=3, seed=0):
    return np.random.default_rng(seed).normal(0.0, 1.0, (n, d))


def _rbf(gamma):
    return kernel_function("rbf", gamma=gamma)


class TestContract:
    def test_block_width_is_invisible(self):
        X = _points(seed=1)
        a = KernelColumnCache(X, _rbf(0.5), 1 << 20, block_columns=4)
        b = KernelColumnCache(X, _rbf(0.5), 1 << 20, block_columns=13)
        for i in range(len(X)):
            assert np.array_equal(a.column(i), b.column(i))

    @pytest.mark.parametrize("n,block", [(50, 4), (50, 13), (9, 4)])
    def test_diagonal_is_bitwise_the_column_entries(self, n, block):
        """The solver's diagonal reads the very bytes column fetches do,
        so WSS2 selects from the bits the steps use.  ``n = 9`` at
        width 4 leaves a width-1 trailing block, which fetches widen
        backward.  With 40 features, many entries of
        ``diag(kernel(X, X))`` (the syrk product) differ from these in
        the last ulp.  The budget holds two blocks, so most columns are
        computed afresh rather than read from blocks the diagonal pass
        left in the LRU.
        """
        X = _points(n=n, d=40, seed=2)
        for kernel in (_rbf(0.5), kernel_function("linear")):
            cache = KernelColumnCache(X, kernel, 1, block_columns=block)
            diag = cache.diagonal()
            for t in range(n):
                assert diag[t].tobytes() == cache.column(t)[t].tobytes()

    def test_diagonal_blocks_fill_the_lru_within_budget(self):
        X = _points(n=50)
        roomy = KernelColumnCache(X, _rbf(0.5), 1 << 20, block_columns=8)
        roomy.diagonal()
        assert (roomy.n_fetches, roomy.n_cached_blocks) == (7, 7)
        for i in range(len(X)):
            roomy.column(i)
        assert (roomy.n_fetches, roomy.n_hits) == (7, 50)
        # A second diagonal pass computes nothing.
        roomy.diagonal()
        assert roomy.n_fetches == 7

        tight = KernelColumnCache(X, _rbf(0.5), 3 * 8 * len(X) * 8,
                                  block_columns=8)
        tight.diagonal()
        assert tight.n_cached_blocks == tight.max_blocks == 3
        assert tight.n_fetches == 7


class TestBounds:
    def test_lru_eviction_respects_budget(self):
        X = _points(n=64)
        block = 8
        # Budget for exactly 3 blocks.
        budget = 3 * 8 * len(X) * block
        cache = KernelColumnCache(X, _rbf(1.0), budget,
                                  block_columns=block)
        for i in range(len(X)):
            cache.column(i)
        assert cache.n_cached_blocks <= cache.max_blocks == 3
        # Evicted blocks refetch to the same bytes.
        reference = _rbf(1.0)(X, X[0:block].copy())[:, 0]
        assert np.array_equal(cache.column(0), reference)

    def test_hit_refreshes_recency(self):
        """Eviction drops the least recently *used* block."""
        X = _points(n=32)
        cache = KernelColumnCache(X, _rbf(1.0), 2 * 8 * len(X) * 8,
                                  block_columns=8)
        cache.column(0)    # block 0
        cache.column(8)    # block 8
        cache.column(1)    # hit: block 0 is now the newest
        cache.column(16)   # evicts block 8, not block 0
        fetches = cache.n_fetches
        cache.column(2)
        assert cache.n_fetches == fetches
        cache.column(9)
        assert cache.n_fetches == fetches + 1

    def test_hit_and_fetch_stats(self):
        X = _points(n=20)
        cache = KernelColumnCache(X, _rbf(1.0), 1 << 20, block_columns=8)
        cache.column(0)
        assert (cache.n_fetches, cache.n_hits) == (1, 0)
        cache.column(5)  # same block
        assert (cache.n_fetches, cache.n_hits) == (1, 1)
        cache.column(15)  # new block
        assert (cache.n_fetches, cache.n_hits) == (2, 1)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(LearningError):
            KernelColumnCache(np.zeros(5), _rbf(1.0), 1 << 20)
        with pytest.raises(LearningError):
            KernelColumnCache(np.zeros((0, 3)), _rbf(1.0), 1 << 20)
        with pytest.raises(LearningError):
            KernelColumnCache(_points(n=8), _rbf(1.0), 1 << 20).column(8)
