"""Bounded kernel-column sources for out-of-core SVM fits.

:class:`KernelColumnCache` is the fit-side counterpart of the chunked
scoring in :meth:`repro.learn.svm.SVC.decision_function`: instead of a
quadratic Gram matrix, training keeps only a byte-bounded LRU set of
kernel column *blocks* over one shared feature matrix.  Attach it to a
model with :meth:`SVC.set_train_columns` (or the bank-level
:meth:`OneVsRestSVCBank.set_train_columns`), and every fit sharing the
same ``X`` -- the guard-banded strict/loose pair, all one-vs-rest
members -- draws columns from the same cache.

Bit-identity contract
---------------------

A column block is computed as ``kernel(X, X[i0:i1])`` with block width
>= 2.  Such blocks go through the general BLAS GEMM kernel, whose
columns are bitwise identical for any block width and alignment; the
row-sum and element-wise stages of the RBF pipeline are chunk-invariant
as well.  The same class also serves :func:`repro.learn.smo.solve_smo`'s
own large-problem route (through :meth:`KernelColumnCache.provider`
with the solver's kernel callable), so an in-RAM fit above the
precompute limit and an out-of-core fit draw the very same column
bytes -- out-of-core fits reproduce in-RAM large-problem fits exactly,
alphas included.  Problems at or below
:data:`repro.learn.smo.PRECOMPUTE_LIMIT` ignore the attached source and
precompute the Gram matrix as always (the full-matrix product takes
BLAS's symmetric-rank-k path, which differs from GEMM in the last ulp,
so mixing the two would break identity).

The solver's second-order pair selection needs the whole kernel
diagonal before its first step.  :meth:`ColumnProvider.diagonal`
computes every block once, with the shapes column fetches use, and
reads the block diagonals, so ``diagonal()[t]`` is bitwise
``column(t)[t]`` and the contract above extends to the pair choice.
That pass costs the kernel work of one full Gram matrix, once per
kernel and cache.  Its blocks fill the LRU while it has room, so with
a budget for the whole matrix no column is computed twice.  The
diagonals themselves (``n`` floats per kernel) are kept outside the
byte budget.
"""

from collections import OrderedDict

import numpy as np

from repro.errors import LearningError
from repro.learn.kernels import kernel_function

#: Default cache budget: 256 MiB of kernel blocks.
DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024

#: Columns fetched per kernel evaluation.
BLOCK_COLUMNS = 64


class ColumnProvider:
    """Per-kernel handle served to :func:`repro.learn.smo.solve_smo`."""

    def __init__(self, cache, key, kernel):
        self._cache = cache
        self._key = key
        self._kernel = kernel

    def column(self, i):
        """Kernel column ``i`` (a read-only view into a cached block)."""
        return self._cache._column(self._key, self._kernel, i)

    def diagonal(self):
        """The kernel diagonal, ``diagonal()[t]`` bitwise ``column(t)[t]``."""
        return self._cache._diagonal(self._key, self._kernel)


class KernelColumnCache:
    """Byte-bounded LRU cache of kernel column blocks over one X.

    Parameters
    ----------
    X:
        The shared ``(n, k)`` training feature matrix (e.g. the thin
        normalized matrix assembled by
        :meth:`repro.data.store.ShardedSpecDataset.normalized_values`).
    max_bytes:
        Budget for cached blocks; at least two blocks are always kept
        so the SMO working pair never thrashes.
    block_columns:
        Columns per fetch (>= 2).
    """

    def __init__(self, X, max_bytes=DEFAULT_BUDGET_BYTES,
                 block_columns=BLOCK_COLUMNS):
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise LearningError(
                "KernelColumnCache needs a non-empty 2-D matrix")
        self._X = X
        n = X.shape[0]
        self._block = max(2, min(int(block_columns), max(2, n)))
        per_block = 8 * n * self._block
        self._max_blocks = max(2, int(max_bytes) // max(1, per_block))
        #: ``(kernel key, first column) -> block``, oldest first.
        self._blocks = OrderedDict()
        #: ``kernel key -> diagonal`` (n floats each, never evicted and
        #: not counted against ``max_bytes``).
        self._diagonals = {}
        #: Fetch statistics (plain ints: the column fetch is the SMO hot
        #: path, so callers aggregate them once per solve).
        self.n_fetches = 0
        self.n_hits = 0

    @property
    def X(self):
        return self._X

    @property
    def n_samples(self):
        return self._X.shape[0]

    @property
    def max_blocks(self):
        return self._max_blocks

    @property
    def n_cached_blocks(self):
        return len(self._blocks)

    def matches(self, X):
        """Whether ``X`` is exactly the cached feature matrix."""
        X = np.asarray(X)
        return X.shape == self._X.shape and np.array_equal(X, self._X)

    def provider(self, kernel):
        """A ``column(i)`` source for one kernel.

        ``kernel`` is either an RBF width (blocks keyed by the float
        value, so every provider of one gamma shares them) or any
        kernel callable ``(A, B) -> Gram`` such as the one
        :func:`repro.learn.smo.solve_smo` holds (blocks keyed by the
        callable).
        """
        if callable(kernel):
            return ColumnProvider(self, kernel, kernel)
        gamma = float(kernel)
        return ColumnProvider(self, gamma,
                              kernel_function("rbf", gamma=gamma))

    def column(self, gamma, i):
        """RBF kernel column ``i`` at width ``gamma``."""
        return self.provider(gamma).column(i)

    def _block_range(self, i):
        n = self._X.shape[0]
        i0 = (i // self._block) * self._block
        i1 = min(n, i0 + self._block)
        if i1 - i0 < 2:
            # Never fetch a width-1 trailing block (GEMV bits differ
            # from GEMM); widen it backward instead.
            i0 = max(0, i1 - 2)
        return i0, i1

    def _column(self, key, kernel, i):
        i = int(i)
        if not 0 <= i < self._X.shape[0]:
            raise LearningError("column index {} out of range".format(i))
        i0, i1 = self._block_range(i)
        key = (key, i0)
        block = self._blocks.get(key)
        if block is None:
            block = kernel(self._X, self._X[i0:i1])
            if len(self._blocks) >= self._max_blocks:
                self._blocks.popitem(last=False)
            self._blocks[key] = block
            self.n_fetches += 1
        else:
            self._blocks.move_to_end(key)
            self.n_hits += 1
        return block[:, i - i0]

    def _diagonal(self, key, kernel):
        diag = self._diagonals.get(key)
        if diag is not None:
            return diag
        # Each block is computed once, with exactly the shapes column
        # fetches use; while the LRU has room the block enters it under
        # the key a column fetch would use, so those fetches hit.
        n = self._X.shape[0]
        diag = np.empty(n)
        t = 0
        while t < n:
            i0, i1 = self._block_range(t)
            block_key = (key, i0)
            block = self._blocks.get(block_key)
            if block is None:
                block = kernel(self._X, self._X[i0:i1])
                self.n_fetches += 1
                if len(self._blocks) < self._max_blocks:
                    self._blocks[block_key] = block
            rows = np.arange(t, i1)
            diag[t:i1] = block[rows, rows - i0]
            t = i1
        diag.flags.writeable = False
        self._diagonals[key] = diag
        return diag
