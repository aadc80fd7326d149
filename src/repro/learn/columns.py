"""The bounded kernel-column cache of large SVM fits.

Above :data:`repro.learn.smo.PRECOMPUTE_LIMIT` rows,
:func:`repro.learn.smo.solve_smo` keeps no quadratic Gram matrix: it
builds one :class:`KernelColumnCache` over its training matrix and
kernel, sized by :data:`repro.learn.smo.CACHE_BYTES`, and draws kernel
columns from a byte-bounded LRU set of column *blocks* (LIBSVM's
kernel cache, Chang & Lin 2011).  The cache lives for one solve.

Bit-identity contract
---------------------

A column block is computed as ``kernel(X, X[i0:i1])`` with block width
>= 2.  Such blocks go through the general BLAS GEMM kernel, whose
columns are bitwise identical for any block width and alignment; the
row-sum and element-wise stages of the RBF pipeline are chunk-invariant
as well.  So the budget never changes a bit of a fit, only which blocks
are kept, and a fit on the thin feature matrix of a shard store
(:meth:`repro.data.store.ShardedSpecDataset.normalized_values`) is
bitwise the in-RAM fit on the same rows.  Problems at or below the
precompute limit precompute the Gram matrix instead (the full-matrix
product takes BLAS's symmetric-rank-k path, which differs from GEMM in
the last ulp, so mixing the two would break identity).

The solver's second-order pair selection needs the whole kernel
diagonal before its first step.  :meth:`KernelColumnCache.diagonal`
computes every block once, with the shapes column fetches use, and
reads the block diagonals, so ``diagonal()[t]`` is bitwise
``column(t)[t]`` and the contract above extends to the pair choice.
That pass costs the kernel work of one full Gram matrix.  Its blocks
fill the LRU while it has room, so with a budget for the whole matrix
no column is computed twice.  The diagonal itself (``n`` floats) is
kept outside the byte budget.
"""

from collections import OrderedDict

import numpy as np

from repro.errors import LearningError

#: Columns fetched per kernel evaluation.
BLOCK_COLUMNS = 64


class KernelColumnCache:
    """Byte-bounded LRU cache of kernel column blocks over one X.

    Parameters
    ----------
    X:
        The ``(n, k)`` training feature matrix.
    kernel:
        Kernel callable ``(A, B) -> Gram`` (see
        :func:`repro.learn.kernels.kernel_function`).
    max_bytes:
        Budget for cached blocks; at least two blocks are always kept
        so the SMO working pair never thrashes.
    block_columns:
        Columns per fetch (>= 2).
    """

    def __init__(self, X, kernel, max_bytes, block_columns=BLOCK_COLUMNS):
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise LearningError(
                "KernelColumnCache needs a non-empty 2-D matrix")
        self._X = X
        self._kernel = kernel
        n = X.shape[0]
        self._block = max(2, min(int(block_columns), max(2, n)))
        per_block = 8 * n * self._block
        self._max_blocks = max(2, int(max_bytes) // max(1, per_block))
        #: ``first column -> block``, oldest first.
        self._blocks = OrderedDict()
        #: The kernel diagonal (n floats, not counted against
        #: ``max_bytes``), once :meth:`diagonal` has run.
        self._diagonal = None
        #: Fetch statistics (plain ints: the column fetch is the SMO hot
        #: path, so callers aggregate them once per solve).
        self.n_fetches = 0
        self.n_hits = 0

    @property
    def max_blocks(self):
        return self._max_blocks

    @property
    def n_cached_blocks(self):
        return len(self._blocks)

    def _block_range(self, i):
        n = self._X.shape[0]
        i0 = (i // self._block) * self._block
        i1 = min(n, i0 + self._block)
        if i1 - i0 < 2:
            # Never fetch a width-1 trailing block (GEMV bits differ
            # from GEMM); widen it backward instead.
            i0 = max(0, i1 - 2)
        return i0, i1

    def column(self, i):
        """Kernel column ``i`` (a read-only view into a cached block)."""
        i = int(i)
        if not 0 <= i < self._X.shape[0]:
            raise LearningError("column index {} out of range".format(i))
        i0, i1 = self._block_range(i)
        block = self._blocks.get(i0)
        if block is None:
            block = self._kernel(self._X, self._X[i0:i1])
            if len(self._blocks) >= self._max_blocks:
                self._blocks.popitem(last=False)
            self._blocks[i0] = block
            self.n_fetches += 1
        else:
            self._blocks.move_to_end(i0)
            self.n_hits += 1
        return block[:, i - i0]

    def diagonal(self):
        """The kernel diagonal, ``diagonal()[t]`` bitwise ``column(t)[t]``."""
        if self._diagonal is not None:
            return self._diagonal
        # Each block is computed once, with exactly the shapes column
        # fetches use; while the LRU has room the block enters it under
        # the key a column fetch would use, so those fetches hit.
        n = self._X.shape[0]
        diag = np.empty(n)
        t = 0
        while t < n:
            i0, i1 = self._block_range(t)
            block = self._blocks.get(i0)
            if block is None:
                block = self._kernel(self._X, self._X[i0:i1])
                self.n_fetches += 1
                if len(self._blocks) < self._max_blocks:
                    self._blocks[i0] = block
            rows = np.arange(t, i1)
            diag[t:i1] = block[rows, rows - i0]
            t = i1
        diag.flags.writeable = False
        self._diagonal = diag
        return diag
