"""Out-of-core training entry points over sharded datasets.

These helpers wire a :class:`~repro.data.store.ShardedSpecDataset`
into the learn layer with a bounded working set:

* the thin ``(n, k)`` normalized feature matrix is assembled shard
  panel by shard panel (linear in the population, tiny next to the
  quadratic Gram a naive fit would build);
* labels -- plain, guard-shifted, or grade bins -- stream shard by
  shard;
* kernel columns come from one shared
  :class:`~repro.learn.columns.KernelColumnCache`, whose byte budget
  caps the only super-linear structure of the whole fit.

Everything is bit-identical to the in-RAM path on the concatenated
values: alphas, biases, decisions.  ``tests/data/test_training.py``
asserts this across shard sizes and worker counts.
"""

import numpy as np

from repro.core.guardband import GuardBandedClassifier
from repro.errors import LearningError
from repro.learn.columns import DEFAULT_BUDGET_BYTES, KernelColumnCache
from repro.learn.ovr import OneVsRestSVCBank


def fit_guard_banded(dataset, feature_names, delta=0.05,
                     model_factory=None, warm_start=True,
                     column_budget=DEFAULT_BUDGET_BYTES):
    """Fit the paper's strict/loose guard-banded pair out-of-core.

    ``dataset`` is a :class:`~repro.data.store.ShardedSpecDataset`
    (an in-RAM :class:`~repro.process.dataset.SpecDataset` works too
    and produces bit-identical models).  Returns the fitted
    :class:`~repro.core.guardband.GuardBandedClassifier`.
    """
    classifier = GuardBandedClassifier(
        feature_names, delta=delta, model_factory=model_factory,
        warm_start=warm_start, column_budget=column_budget)
    return classifier.fit(dataset)


def fit_ovr_bank(X, y, classes=None, model_factory=None,
                 warm_start=True, column_budget=DEFAULT_BUDGET_BYTES):
    """Fit a one-vs-rest SVC bank with a bounded column working set.

    ``X`` is the shared feature matrix (e.g. from
    ``dataset.normalized_values(kept_names)``), ``y`` the per-row
    class labels.  ``classes`` defaults to the sorted distinct labels.
    All member fits above the SMO precompute limit draw kernel columns
    from one shared :class:`~repro.learn.columns.KernelColumnCache`
    sized by ``column_budget`` bytes; the cache is dropped once the
    bank is fitted.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if classes is None:
        classes = sorted(np.unique(y).tolist())
    if len(classes) < 2:
        raise LearningError(
            "a one-vs-rest bank needs at least 2 classes; got "
            "{!r}".format(list(classes)))
    bank = OneVsRestSVCBank(classes, model_factory=model_factory,
                            warm_start=warm_start)
    if column_budget is not None:
        bank.set_train_columns(
            KernelColumnCache(X, max_bytes=column_budget))
    return bank.fit(X, y).set_train_columns(None)
