"""Two-model guard-banded classification (paper Sections 3.3 and 4.2).

After compaction the tester still *measures* the kept specifications,
so those are checked directly against their acceptability ranges.  The
eliminated specifications are covered by a statistical model that
predicts, from the kept measurements, whether they would have passed.
Paper Fig. 3: the new acceptance region is the intersection of the
kept-range box with the model-derived region.  Starting from the
complete test set therefore has *zero* initial yield loss and defect
escape -- the model only enters once tests are eliminated.

Pass/fail analysis has a hard discontinuity at the range boundary, so
a tiny model error near the boundary causes misclassification
(Section 4.2).  The remedy is a **guard band**: both the direct range
check and the model are instantiated twice, against ranges perturbed
*inward* (strict) and *outward* (loose) by a preset fraction ``delta``
of each range.  Devices on which the two instances agree are accepted
or rejected with high confidence; disagreement places the device in
the guard-band region, where it can be retested (see
:mod:`repro.tester.program`) or binned by application quality needs.
"""

import numpy as np

from repro.core.metrics import GUARD
from repro.core.specs import BAD, GOOD
from repro.errors import CompactionError
from repro.learn.svm import SVC


def default_model_factory():
    """A reasonable fixed SVC configuration (no per-problem tuning)."""
    return SVC(C=50.0, kernel="rbf", gamma="scale")


#: Hyperparameter grid explored by the auto-tuned factory.  The RBF
#: width needed to resolve the pass/fail boundary depends strongly on
#: how many tests remain in the feature set, so a per-fit search beats
#: any fixed setting.
AUTO_TUNE_GRID = {
    "C": [50.0, 500.0],
    "gamma": ["scale", 2.0, 8.0, 32.0],
}


class AutoTunedSVCFactory:
    """Callable factory that cross-validates an SVC grid before fitting.

    The grid search runs once, on the labels of the first ``tune`` call
    (the compaction flow tunes on the strict guard-band labels); both
    guard-band models then share the winning hyperparameters, keeping
    the pair consistent.
    """

    def __init__(self, param_grid=None, n_splits=3, seed=0,
                 max_tune_samples=1500, n_jobs=1):
        self.param_grid = dict(param_grid or AUTO_TUNE_GRID)
        self.n_splits = int(n_splits)
        self.seed = seed
        self.max_tune_samples = int(max_tune_samples)
        #: Worker processes for the grid search (the dominant cost of
        #: a compaction run); results are identical at any value.
        #: Leave at 1 inside an already-parallel engine run -- nesting
        #: pools oversubscribes the machine.
        self.n_jobs = int(n_jobs)
        self.best_params_ = None

    def tune(self, X, y):
        """Pick hyperparameters by k-fold accuracy on ``(X, y)``.

        Tuning runs on a random subsample of at most
        ``max_tune_samples`` rows -- hyperparameter selection needs far
        fewer points than the final fit, and the subsample keeps the
        grid search fast on paper-scale (5000-instance) training sets.
        """
        from repro.learn.model_selection import grid_search

        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if np.unique(y).size < 2 or len(y) < 3 * self.n_splits:
            self.best_params_ = {}
            return self
        if len(y) > self.max_tune_samples:
            rng = np.random.default_rng(self.seed)
            idx = rng.choice(len(y), self.max_tune_samples, replace=False)
            X, y = X[idx], y[idx]
            if np.unique(y).size < 2:
                self.best_params_ = {}
                return self
        self.best_params_, _, _ = grid_search(
            SVC, self.param_grid, X, y, n_splits=self.n_splits,
            seed=self.seed, n_jobs=self.n_jobs)
        return self

    def __call__(self):
        # Tuned params (a grid may search "kernel" too) override the
        # RBF default.
        return SVC(**{"kernel": "rbf", **(self.best_params_ or {})})


class _ConstantGood:
    """Degenerate model used when no specification is eliminated."""

    def fit(self, X, y):
        return self

    def predict(self, X):
        return np.ones(np.asarray(X).shape[0], dtype=int)


class GuardBandedClassifier:
    """Pass/fail predictor for a compacted specification test set.

    Parameters
    ----------
    feature_names:
        The specifications still *measured* (the compacted test set);
        their normalized values are both directly range-checked and
        fed to the model.
    delta:
        Guard-band half-width as a fraction of each acceptability
        range (paper: a few percent).  ``delta=0`` collapses the guard
        band: every device gets a confident good/bad prediction.
    model_factory:
        Zero-argument callable producing an unfitted classifier with
        ``fit``/``predict`` (defaults to :func:`default_model_factory`).
    kernel_cache:
        Optional :class:`repro.runtime.kernel_cache.GramCache` built
        from the *same* training dataset; the strict/loose model pair
        then shares one precomputed Gram matrix per fit instead of
        evaluating the kernel twice.  Models that do not understand
        Gram views (no ``set_train_gram_view``) are unaffected.
    warm_start:
        When True, the loose model's SMO run is seeded from the strict
        model's dual solution.  The two label vectors differ only on
        guard-band devices, so the seed is near-optimal and the second
        fit converges in a fraction of the iterations.
    column_budget:
        Optional byte budget for out-of-core fits.  When set, the
        strict/loose pair shares one bounded
        :class:`~repro.learn.columns.KernelColumnCache` over the
        training features instead of materializing quadratic Gram
        matrices -- the fit path for shard-store populations far above
        the SMO precompute limit.  Fits are bit-identical with or
        without a budget; only the working set changes.

    The classifier is trained from a *full*
    :class:`~repro.process.dataset.SpecDataset` (all specifications
    measured) because the model's training labels are the pass/fail of
    the *eliminated* specifications; prediction then uses only the
    ``feature_names`` columns, as on the real tester.  A sharded
    :class:`~repro.data.store.ShardedSpecDataset` works as well: its
    label computations stream shard by shard (the ``shifted_labels``
    protocol below), so only the thin ``(n, len(feature_names))``
    feature matrix is ever materialized.
    """

    def __init__(self, feature_names, delta=0.05, model_factory=None,
                 kernel_cache=None, warm_start=False,
                 column_budget=None):
        self.feature_names = tuple(feature_names)
        if not self.feature_names:
            raise CompactionError(
                "guard-banded classifier needs at least one feature")
        if isinstance(delta, dict):
            if any(d < 0 for d in delta.values()):
                raise CompactionError(
                    "guard-band deltas must be non-negative")
            self.delta = dict(delta)
        else:
            if delta < 0:
                raise CompactionError(
                    "guard-band delta must be non-negative")
            self.delta = float(delta)
        # Default: cross-validated hyperparameter selection per fit.
        self.model_factory = model_factory or AutoTunedSVCFactory()
        self.kernel_cache = kernel_cache
        self.warm_start = bool(warm_start)
        self.column_budget = (None if column_budget is None
                              else int(column_budget))
        self._column_cache = None

    def _delta_for(self, names):
        """Per-spec delta array for the given specification names."""
        if isinstance(self.delta, dict):
            missing = set(names) - set(self.delta)
            if missing:
                raise CompactionError(
                    "no guard-band delta for spec(s): {}".format(
                        sorted(missing)))
            return np.array([self.delta[n] for n in names])
        return np.full(len(names), self.delta)

    # -- training ---------------------------------------------------------
    def fit(self, train_dataset):
        """Train the strict/loose model pair from a full dataset."""
        missing = set(self.feature_names) - set(train_dataset.names)
        if missing:
            raise CompactionError(
                "training dataset lacks feature(s): {}".format(
                    sorted(missing)))
        specs = train_dataset.specifications
        self._feature_specs = specs.subset(self.feature_names)
        self.eliminated_names = tuple(
            n for n in specs.names if n not in set(self.feature_names))

        X = train_dataset.normalized_values(self.feature_names)
        self._feature_deltas = self._delta_for(self.feature_names)
        self._no_guard = not np.any(self._feature_deltas)
        if not self.eliminated_names:
            self._strict = _ConstantGood()
            self._loose = self._strict
            return self

        if self.column_budget is not None:
            from repro.learn.columns import KernelColumnCache

            self._column_cache = KernelColumnCache(
                X, max_bytes=self.column_budget)
        elim_specs = specs.subset(self.eliminated_names)
        elim_deltas = self._delta_for(self.eliminated_names)
        # Sharded datasets compute shifted labels shard by shard (the
        # element-wise comparisons are chunk-invariant, so the labels
        # are bitwise those of the materialized computation); in-RAM
        # datasets materialize the eliminated columns once.
        streamed = hasattr(train_dataset, "shifted_labels")
        if not streamed:
            elim_values = train_dataset.project(
                self.eliminated_names).values

        def shifted(deltas):
            if streamed:
                return train_dataset.shifted_labels(
                    self.eliminated_names, deltas)
            if deltas is None:
                return elim_specs.labels(elim_values)
            return elim_specs.shifted(deltas).labels(elim_values)

        self._no_guard = self._no_guard and not np.any(elim_deltas)
        if self._no_guard:
            y = shifted(None)
            if hasattr(self.model_factory, "tune"):
                self.model_factory.tune(X, y)
            self._strict = self._new_model().fit(X, y)
            self._loose = self._strict
        else:
            # Strict model: eliminated ranges shrunk inward, so
            # boundary devices are labeled bad.
            y_strict = shifted(elim_deltas)
            # Loose model: eliminated ranges widened outward.
            y_loose = shifted(-elim_deltas)
            if hasattr(self.model_factory, "tune"):
                self.model_factory.tune(X, y_strict)
            self._strict = self._new_model().fit(X, y_strict)
            self._loose = self._fit_loose(X, y_loose)
        return self

    def _new_model(self):
        """Build one model, attached to the shared Gram view if possible."""
        model = self.model_factory()
        if (self.kernel_cache is not None
                and hasattr(model, "set_train_gram_view")):
            model.set_train_gram_view(
                self.kernel_cache.view(self.feature_names))
        cache = getattr(self, "_column_cache", None)
        if cache is not None and hasattr(model, "set_train_columns"):
            model.set_train_columns(cache)
        return model

    def _fit_loose(self, X, y_loose):
        """Fit the loose model, warm-started from the strict solution."""
        model = self._new_model()
        alpha0 = getattr(self._strict, "alpha_", None)
        if self.warm_start and alpha0 is not None:
            try:
                return model.fit(X, y_loose, alpha_init=alpha0)
            except TypeError:
                pass  # model's fit() has no warm-start support
        return model.fit(X, y_loose)

    def _check_fitted(self):
        if not hasattr(self, "_strict"):
            raise CompactionError("GuardBandedClassifier is not fitted")

    def release_kernel_cache(self):
        """Drop cache references (prediction never needs them).

        A fitted classifier otherwise pins the whole per-run
        :class:`~repro.runtime.kernel_cache.GramCache` (hundreds of
        MB at paper scale) through ``kernel_cache`` and the models'
        Gram views.  :meth:`TestCompactor.run
        <repro.core.compaction.TestCompactor.run>` calls this on the
        model it returns.
        """
        self.kernel_cache = None
        self._column_cache = None
        for model in (getattr(self, "_strict", None),
                      getattr(self, "_loose", None)):
            if model is not None and hasattr(model, "set_train_gram_view"):
                model.set_train_gram_view(None)
            if model is not None and hasattr(model, "set_train_columns"):
                model.set_train_columns(None)
        return self

    # The cache must never ride along on pickles either -- a model
    # crossing a process boundary would otherwise serialize every
    # cached (n, n) matrix of its worker.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["kernel_cache"] = None
        state["_column_cache"] = None
        return state

    # -- prediction ---------------------------------------------------------
    def _box_pass(self, X_normalized, deltas):
        """Direct range check of the kept specifications.

        In normalized coordinates the acceptability window is [0, 1];
        a guard shift of ``deltas`` (per-column array) moves the bounds
        to ``[delta, 1 - delta]`` (strict) or ``[-delta, 1 + delta]``
        (loose, by passing negated deltas).
        """
        return np.all((X_normalized >= deltas)
                      & (X_normalized <= 1.0 - deltas), axis=1)

    def predict_features(self, X_normalized):
        """Predict from already-normalized feature rows.

        Returns an array over {+1 good, -1 bad, 0 guard band}.  A
        device is confidently good only when both the strict and loose
        instances accept it (kept ranges *and* model); confidently bad
        when both reject; in the guard band otherwise.
        """
        self._check_fitted()
        X_normalized = np.asarray(X_normalized, dtype=float)
        if X_normalized.ndim == 1:
            X_normalized = X_normalized[None, :]
        strict_good = (self._box_pass(X_normalized, self._feature_deltas)
                       & (self._strict.predict(X_normalized) == GOOD))
        if self._loose is self._strict and self._no_guard:
            return np.where(strict_good, GOOD, BAD)
        loose_good = (self._box_pass(X_normalized, -self._feature_deltas)
                      & (self._loose.predict(X_normalized) == GOOD))
        out = np.full(X_normalized.shape[0], GUARD, dtype=int)
        out[strict_good & loose_good] = GOOD
        out[~strict_good & ~loose_good] = BAD
        return out

    def predict_dataset(self, dataset):
        """Predict for a dataset that contains the feature columns."""
        X = dataset.normalized_values(self.feature_names)
        return self.predict_features(X)

    def predict_measurements(self, values):
        """Predict from raw (unnormalized) measurements of the features.

        ``values`` is ``(n, len(feature_names))`` in specification
        units and ordered like ``feature_names`` -- the view a tester
        has after applying the compacted test set.
        """
        self._check_fitted()
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[None, :]
        X = self._feature_specs.normalize(values)
        return self.predict_features(X)

    def confident_fraction(self, dataset):
        """Share of instances not falling in the guard band."""
        pred = self.predict_dataset(dataset)
        return float(np.mean(pred != GUARD))

    def __repr__(self):
        delta = (self.delta if not isinstance(self.delta, dict)
                 else "per-spec")
        return ("GuardBandedClassifier({} features, {} eliminated, "
                "delta={})").format(
                    len(self.feature_names),
                    len(getattr(self, "eliminated_names", ())),
                    delta)


def distribution_guard_deltas(dataset, target_fraction=0.05,
                              min_delta=0.005, max_delta=0.2):
    """Distribution-based guard-band widths (paper future work).

    Instead of a fixed percentage of every acceptability range, choose
    each specification's guard half-width from the *device
    distribution*: ``delta_j`` is the ``target_fraction`` quantile of
    the population's normalized distance to the nearer range boundary
    of specification ``j``.  Each guard band then covers a comparable
    share of the population regardless of how tightly the distribution
    hugs that specification's limits.

    Parameters
    ----------
    dataset:
        Training :class:`~repro.process.dataset.SpecDataset`.
    target_fraction:
        Approximate fraction of devices each per-spec guard band should
        contain.
    min_delta, max_delta:
        Clamps keeping the widths usable (a spec nobody comes close to
        failing would otherwise get a degenerate zero-width band).

    Returns
    -------
    dict
        Specification name -> guard half-width (fraction of range),
        suitable for the ``delta`` argument of
        :class:`GuardBandedClassifier` /
        :class:`~repro.core.compaction.TestCompactor`.
    """
    if not 0.0 < target_fraction < 1.0:
        raise CompactionError("target_fraction must be inside (0, 1)")
    Z = dataset.normalized_values()
    distance = np.minimum(np.abs(Z), np.abs(Z - 1.0))
    deltas = np.quantile(distance, target_fraction, axis=0)
    deltas = np.clip(deltas, min_delta, max_delta)
    return {name: float(d) for name, d in zip(dataset.names, deltas)}


class MarginGuardClassifier:
    """Single-model guard band from the SVM decision margin (ablation).

    An alternative to the paper's two-model construction: train *one*
    classifier on the unshifted labels and flag as guard-band any
    device whose decision value lies within ``+/- margin`` of the
    separating surface (the kept specifications still get the same
    two-sided box guard as :class:`GuardBandedClassifier`).

    The margin can be given directly or calibrated so a target fraction
    of the training population lands in the model's guard zone --
    letting the ablation compare the two schemes at the same retest
    budget.  See ``benchmarks/bench_ablation_margin_guard.py``.
    """

    def __init__(self, feature_names, delta=0.05, margin=None,
                 target_guard_fraction=None, model_factory=None):
        self.feature_names = tuple(feature_names)
        if not self.feature_names:
            raise CompactionError(
                "margin-guard classifier needs at least one feature")
        if delta < 0:
            raise CompactionError("guard-band delta must be non-negative")
        if (margin is None) == (target_guard_fraction is None):
            raise CompactionError(
                "give exactly one of margin / target_guard_fraction")
        if margin is not None and margin < 0:
            raise CompactionError("margin must be non-negative")
        if target_guard_fraction is not None and not (
                0.0 < target_guard_fraction < 1.0):
            raise CompactionError(
                "target_guard_fraction must be inside (0, 1)")
        self.delta = float(delta)
        self.margin = margin
        self.target_guard_fraction = target_guard_fraction
        self.model_factory = model_factory or AutoTunedSVCFactory()

    def fit(self, train_dataset):
        """Train the single model and calibrate the margin."""
        specs = train_dataset.specifications
        missing = set(self.feature_names) - set(specs.names)
        if missing:
            raise CompactionError(
                "training dataset lacks feature(s): {}".format(
                    sorted(missing)))
        self._feature_specs = specs.subset(self.feature_names)
        self.eliminated_names = tuple(
            n for n in specs.names if n not in set(self.feature_names))
        X = train_dataset.normalized_values(self.feature_names)
        if not self.eliminated_names:
            self._model = _ConstantGood()
            self.margin_ = 0.0
            return self
        elim_specs = specs.subset(self.eliminated_names)
        y = elim_specs.labels(
            train_dataset.project(self.eliminated_names).values)
        if hasattr(self.model_factory, "tune"):
            self.model_factory.tune(X, y)
        self._model = self.model_factory().fit(X, y)
        if self.margin is not None:
            self.margin_ = float(self.margin)
        else:
            scores = np.abs(self._model.decision_function(X))
            scores = scores[np.isfinite(scores)]
            if scores.size == 0:
                self.margin_ = 0.0
            else:
                self.margin_ = float(
                    np.quantile(scores, self.target_guard_fraction))
        return self

    def predict_features(self, X_normalized):
        """Predict from normalized feature rows (+1 / -1 / 0 guard)."""
        if not hasattr(self, "_model"):
            raise CompactionError("MarginGuardClassifier is not fitted")
        X_normalized = np.asarray(X_normalized, dtype=float)
        if X_normalized.ndim == 1:
            X_normalized = X_normalized[None, :]
        d = self.delta
        box_strict = np.all((X_normalized >= d)
                            & (X_normalized <= 1.0 - d), axis=1)
        box_loose = np.all((X_normalized >= -d)
                           & (X_normalized <= 1.0 + d), axis=1)
        if isinstance(self._model, _ConstantGood):
            f = np.full(X_normalized.shape[0], np.inf)
        else:
            f = self._model.decision_function(X_normalized)
        strict_good = box_strict & (f >= self.margin_)
        loose_good = box_loose & (f >= -self.margin_)
        out = np.full(X_normalized.shape[0], GUARD, dtype=int)
        out[strict_good & loose_good] = GOOD
        out[~strict_good & ~loose_good] = BAD
        return out

    def predict_dataset(self, dataset):
        """Predict for a dataset containing the feature columns."""
        return self.predict_features(
            dataset.normalized_values(self.feature_names))

    def __repr__(self):
        return ("MarginGuardClassifier({} features, delta={:g}, "
                "margin={})").format(
                    len(self.feature_names), self.delta,
                    getattr(self, "margin_", self.margin))
