"""Cache-aware Gram-matrix computation keyed by the active feature subset.

The greedy loop of :class:`repro.core.compaction.TestCompactor` fits a
guard-banded SVM pair for every candidate elimination.  All of those
fits train on *column subsets of the same normalized measurement
matrix*, and the RBF kernel's squared distances decompose per column::

    d2_S(i, k) = sum_{j in S} (Z[i, j] - Z[k, j])**2

so the pairwise-distance matrix of any feature subset ``S`` is a sum
of per-column distance matrices that can be computed once and shared:

* the strict and loose guard-band models of one candidate train on the
  same subset -> the same Gram matrix (one build, two fits);
* the final refit after the greedy loop repeats the last accepted
  candidate -> a pure cache hit;
* speculative parallel evaluation may revisit a candidate after a
  mispredicted branch -> another hit.

The computation route (subtract a small complement from the cached
full-set matrix, else evaluate the subset directly) and the
column-accumulation order depend only on the subset itself -- never on
what the cache happens to hold -- so the same subset yields the
*bit-identical* matrix in every process.  That property lets
:class:`repro.core.compaction.TestCompactor` guarantee serial and
parallel runs produce identical results.

Memory is explicitly budgeted: per-column matrices, composed subset
matrices and exponentiated Gram matrices are all ``(n, n)`` float64,
so the cache tracks its footprint and evicts least-recently-used
entries (derived matrices first, per-column building blocks last)
rather than growing without bound on paper-scale populations.
"""

from collections import OrderedDict

import numpy as np

from repro.errors import CompactionError
from repro.learn.kernels import squared_distances

#: Default memory budget for one cache instance (bytes).
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Complements up to this size are composed by subtracting per-column
#: matrices from the full-set distances; larger ones fall back to one
#: BLAS evaluation of the subset columns.  The greedy loop's candidate
#: subsets drop only ``|eliminated| + 1`` columns, so its hottest early
#: stages always take the cheap subtraction route.
SUBTRACT_LIMIT = 3


class SubsetGramView:
    """Lightweight handle binding a :class:`GramCache` to one subset.

    Instances satisfy the provider protocol expected by
    :meth:`repro.learn.svm.SVC.set_train_gram_view`: ``n`` is the
    training-row count and ``gram(gamma)`` returns the RBF Gram matrix
    of the subset's normalized training columns.
    """

    def __init__(self, cache, names):
        self._cache = cache
        self._names = tuple(names)

    @property
    def n(self):
        """Number of training rows the Gram matrix covers."""
        return self._cache.n

    @property
    def names(self):
        """The feature subset this view serves."""
        return self._names

    def matches(self, X):
        """Whether ``X`` is exactly the subset's normalized columns.

        The cheap O(n*k) comparison that keeps a stale view (same
        shape, different data) from silently serving a wrong Gram.
        """
        return self._cache.matches(self._names, X)

    def distances(self):
        """Pairwise squared distances of the subset's columns."""
        return self._cache.distances(self._names)

    def gram(self, gamma):
        """RBF Gram matrix ``exp(-gamma * d2)`` for the subset."""
        return self._cache.gram(self._names, gamma)

    def __repr__(self):
        return "SubsetGramView({} features over {} rows)".format(
            len(self._names), self.n)


class GramCache:
    """Shared per-column distance store with subset-level Gram reuse.

    Parameters
    ----------
    values_normalized:
        The full normalized measurement matrix ``(n, m)`` (every
        specification still a column); training subsets must be column
        selections of exactly this matrix.
    names:
        Column names, in matrix order.
    max_bytes:
        Soft memory budget across everything the cache stores.
    """

    def __init__(self, values_normalized, names, max_bytes=DEFAULT_MAX_BYTES):
        Z = np.asarray(values_normalized, dtype=float)
        if Z.ndim != 2:
            raise CompactionError("expected a 2-D normalized matrix")
        names = tuple(names)
        if len(names) != Z.shape[1]:
            raise CompactionError(
                "{} names for {} columns".format(len(names), Z.shape[1]))
        self._Z = Z
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}
        self.max_bytes = int(max_bytes)
        self._matrix_bytes = Z.shape[0] * Z.shape[0] * 8
        # All three stores are LRU (most recently used at the end).
        self._columns = OrderedDict()   # name -> per-column distances
        self._subsets = OrderedDict()   # canonical names -> summed distances
        self._grams = OrderedDict()     # (canonical names, gamma) -> Gram
        self._full = None               # full-set distances (pinned)
        self.stats = {
            "column_builds": 0,
            "distance_hits": 0, "distance_misses": 0,
            "gram_hits": 0, "gram_misses": 0,
            "evictions": 0,
        }

    @classmethod
    def from_dataset(cls, dataset, **kwargs):
        """Build a cache for a :class:`~repro.process.dataset.SpecDataset`."""
        return cls(dataset.normalized_values(), dataset.names, **kwargs)

    # -- bookkeeping ------------------------------------------------------
    @property
    def n(self):
        """Number of rows (device instances) covered."""
        return self._Z.shape[0]

    @property
    def names(self):
        """All column names the cache can serve subsets of."""
        return self._names

    @property
    def nbytes(self):
        """Current cached-matrix footprint in bytes."""
        entries = (len(self._columns) + len(self._subsets)
                   + len(self._grams) + (1 if self._full is not None else 0))
        return entries * self._matrix_bytes

    def _canonical(self, names):
        """Subset key in dataset column order (composition order too)."""
        try:
            idx = sorted(self._index[name] for name in set(names))
        except KeyError as exc:
            raise CompactionError(
                "unknown specification {!r} for this cache".format(
                    exc.args[0]))
        if len(idx) != len(tuple(names)):
            raise CompactionError("duplicate specification in subset")
        if not idx:
            raise CompactionError("empty feature subset")
        return tuple(self._names[i] for i in idx)

    def _reserve(self, extra_matrices=1):
        """Evict LRU entries until ``extra_matrices`` more would fit.

        Derived matrices (Grams, then subset sums) go first; per-column
        building blocks are the cheapest to miss, so they go last.
        """
        budget = self.max_bytes - extra_matrices * self._matrix_bytes
        for store in (self._grams, self._subsets, self._columns):
            while self.nbytes > budget and store:
                store.popitem(last=False)
                self.stats["evictions"] += 1
        # A budget smaller than one matrix cannot be honored; the cache
        # then holds just the entry being built (degraded, not broken).

    def _touch(self, store, key):
        store.move_to_end(key)
        return store[key]

    # -- distance / Gram computation -------------------------------------
    def _column(self, name):
        """Per-column pairwise squared distances (cached)."""
        if name in self._columns:
            return self._touch(self._columns, name)
        z = self._Z[:, self._index[name]]
        diff = z[:, None] - z[None, :]
        col = diff * diff
        self.stats["column_builds"] += 1
        self._reserve()
        self._columns[name] = col
        return col

    def _full_distances(self):
        """Full-set pairwise squared distances (built once, pinned)."""
        if self._full is None:
            self._reserve()
            self._full = squared_distances(self._Z, self._Z)
        return self._full

    def distances(self, names):
        """Pairwise squared-distance matrix for a feature subset.

        The computation route depends only on the subset's size --
        small complements are subtracted column-by-column (canonical
        order) from the cached full-set matrix, anything else is one
        direct BLAS evaluation -- so the result is bit-identical no
        matter which process computes it or what the cache already
        holds.
        """
        key = self._canonical(names)
        if key in self._subsets:
            self.stats["distance_hits"] += 1
            return self._touch(self._subsets, key)
        self.stats["distance_misses"] += 1
        complement = [n for n in self._names if n not in set(key)]
        if not complement:
            total = self._full_distances()
        elif len(complement) <= SUBTRACT_LIMIT:
            total = self._full_distances().copy()
            for name in complement:
                total -= self._column(name)
            # Exact cancellation can leave tiny negative residues.
            np.maximum(total, 0.0, out=total)
        else:
            idx = [self._index[n] for n in key]
            Xs = self._Z[:, idx]
            total = squared_distances(Xs, Xs)
        self._reserve()
        self._subsets[key] = total
        return total

    def gram(self, names, gamma):
        """RBF Gram matrix ``exp(-gamma * d2)`` for a feature subset."""
        gamma = float(gamma)
        if gamma <= 0:
            raise CompactionError("gamma must be positive")
        key = (self._canonical(names), gamma)
        if key in self._grams:
            self.stats["gram_hits"] += 1
            return self._touch(self._grams, key)
        self.stats["gram_misses"] += 1
        K = np.exp(-gamma * self.distances(names))
        self._reserve()
        self._grams[key] = K
        return K

    def matches(self, names, X):
        """Whether ``X`` equals the named normalized columns exactly.

        Compared in the given name order (the order a caller's
        feature matrix uses), not the canonical cache order.
        """
        names = tuple(names)
        try:
            idx = [self._index[n] for n in names]
        except KeyError:
            return False
        X = np.asarray(X)
        if X.shape != (self.n, len(idx)):
            return False
        return bool(np.array_equal(X, self._Z[:, idx]))

    def view(self, names):
        """A :class:`SubsetGramView` for ``names`` (validated now)."""
        self._canonical(names)
        return SubsetGramView(self, names)

    def __repr__(self):
        return ("GramCache({} rows, {} columns, {:.1f} MiB cached, "
                "{} evictions)").format(
                    self.n, len(self._names),
                    self.nbytes / (1024.0 * 1024.0),
                    self.stats["evictions"])
