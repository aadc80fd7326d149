"""The greedy specification-test-set pruning loop (paper Fig. 2).

Starting from the complete specification-based test set (hence zero
initial yield loss / defect escape), each test ``t_r`` is examined in
turn:

1. remove ``t_r``'s measurement from the feature set;
2. train a guard-banded SVM pair that predicts the device's overall
   pass/fail from the remaining measurements;
3. evaluate the prediction error ``e_p`` (yield loss + defect escape)
   on held-out test data;
4. if ``e_p <= e_T`` (the user tolerance), the test is *redundant* and
   stays eliminated; otherwise it is moved back into the compacted set.

The output is the compacted test set plus the statistical model that
replaces the eliminated tests during production test.

Each candidate's strict/loose guard-band pair shares one Gram matrix
for the length of its fit (see
:class:`~repro.core.guardband.GuardBandedClassifier`); the loop seeds
each loose fit from its strict sibling's dual solution and reuses the
last accepted candidate's model as the final one.  With ``n_jobs > 1``
upcoming candidates are evaluated speculatively in worker processes,
along both branches of each pending decision; the loop still consumes
the decisions in examination order, so the result is bitwise the
serial one.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.core.guardband import (
    AutoTunedSVCFactory,
    GuardBandedClassifier,
    checked_delta,
)
from repro.core.metrics import ClassificationReport, evaluate_predictions
from repro.core.ordering import FunctionalOrder, OrderingStrategy
from repro.errors import CompactionError

# repro.runtime imports repro.process, which imports repro.core, so
# this module imports from repro.runtime inside its functions.


@dataclass(frozen=True)
class CompactionStep:
    """The outcome of examining one candidate test."""

    #: Name of the test examined for elimination.
    test_name: str
    #: True when the test was found redundant and permanently removed.
    eliminated: bool
    #: Evaluation of the candidate model on the held-out data.
    report: ClassificationReport
    #: Tests eliminated so far (including this one when ``eliminated``).
    eliminated_so_far: tuple


@dataclass
class CompactionResult:
    """Everything the compaction run produced."""

    #: Names of the tests that must still be applied.
    kept: tuple
    #: Names of the eliminated (redundant) tests.
    eliminated: tuple
    #: Final guard-banded model predicting pass/fail from ``kept``.
    model: GuardBandedClassifier
    #: Final model's evaluation on the held-out data.
    final_report: ClassificationReport
    #: Per-candidate history in examination order.
    steps: list = field(default_factory=list)
    #: The examination order used.
    order: tuple = ()
    #: Tolerance e_T the run was configured with.
    tolerance: float = 0.0
    #: Run counters: worker count, candidates examined, final-refit
    #: reuse and the speculation counts (``n_jobs > 1``).
    stats: dict = field(default_factory=dict)

    def summary(self):
        """Multi-line human-readable summary."""
        lines = [
            "Specification test compaction (tolerance e_T = {:.2%})".format(
                self.tolerance),
            "  eliminated ({}): {}".format(
                len(self.eliminated), ", ".join(self.eliminated) or "-"),
            "  kept       ({}): {}".format(
                len(self.kept), ", ".join(self.kept)),
            "  final: {}".format(self.final_report.summary()),
        ]
        return "\n".join(lines)

    def history_table(self):
        """Fig. 5 style rows: per examined test, the candidate metrics.

        Returns a list of dicts with keys ``test``, ``eliminated``,
        ``yield_loss_pct``, ``defect_escape_pct``, ``guard_pct``
        (cumulative model metrics at that step).
        """
        rows = []
        for step in self.steps:
            rows.append({
                "test": step.test_name,
                "eliminated": step.eliminated,
                "yield_loss_pct": 100.0 * step.report.yield_loss_rate,
                "defect_escape_pct": 100.0 * step.report.defect_escape_rate,
                "guard_pct": 100.0 * step.report.guard_rate,
            })
        return rows


class GridCompactedModel:
    """Fits a base model on a grid-compacted training set."""

    def __init__(self, base_model, grid):
        self._model = base_model
        self._grid = grid

    def fit(self, X, y):
        Xc, yc, _ = self._grid.compact(X, y)
        self._model.fit(Xc, yc)
        return self

    def predict(self, X):
        return self._model.predict(X)


class GridCompactedFactory:
    """Factory wrapper inserting grid compaction before every fit.

    A plain module-level class (rather than a closure) so a configured
    compactor can be shipped to the pool workers of a parallel run.
    """

    def __init__(self, base, grid):
        self._base = base
        self._grid = grid

    def tune(self, X, y):
        if hasattr(self._base, "tune"):
            Xc, yc, _ = self._grid.compact(X, y)
            self._base.tune(Xc, yc)
        return self

    def __call__(self):
        return GridCompactedModel(self._base(), self._grid)


class TestCompactor:
    """Configurable greedy test-set compactor.

    Parameters
    ----------
    tolerance:
        Error tolerance ``e_T`` as a fraction of all test devices
        (paper: "until the prediction error exceeds a user-defined
        tolerance").
    guard_band:
        Guard-band half-width as a fraction of each acceptability
        range (paper Section 4.2; 5 % for the op-amp example).
    order:
        An :class:`~repro.core.ordering.OrderingStrategy`, an explicit
        sequence of test names, or ``None`` for the dataset's natural
        (functional) order.
    model_factory:
        Zero-argument callable building the underlying classifier
        (default: the RBF :class:`~repro.learn.svm.SVC` used throughout
        the reproduction).
    grid_compactor:
        Optional :class:`~repro.core.grid.GridCompactor` applied to the
        training features before each model fit (paper Section 4.3).
        Grid compaction rewrites the training rows, so such fits do
        not share a Gram.
    count_guard_as_error:
        When True, guard-band devices count toward ``e_p`` (a stricter
        acceptance criterion than the paper's, which retests them).
    min_kept:
        Never eliminate below this many measured tests (default 1; the
        model needs at least one feature).
    n_jobs:
        Worker processes for speculative candidate evaluation and
        :meth:`run_many` batches.  ``1`` (the default) runs serially
        in-process, ``-1`` uses every CPU.  The result is bitwise the
        same at any value.
    """

    def __init__(self, tolerance=0.01, guard_band=0.05, order=None,
                 model_factory=None, grid_compactor=None,
                 count_guard_as_error=False, min_kept=1, n_jobs=1):
        if not tolerance >= 0:
            raise CompactionError("tolerance must be non-negative")
        if min_kept < 1:
            raise CompactionError("min_kept must be at least 1")
        self.tolerance = float(tolerance)
        # Scalar fraction, or a per-spec dict as produced by
        # repro.core.guardband.distribution_guard_deltas.
        self.guard_band = checked_delta(guard_band)
        self.order = order
        # None selects a fresh cross-validated AutoTunedSVCFactory per
        # model fit (hyperparameters re-tuned as the feature set shrinks).
        self.model_factory = model_factory
        self.grid_compactor = grid_compactor
        self.count_guard_as_error = bool(count_guard_as_error)
        self.min_kept = int(min_kept)
        from repro.runtime.parallel import resolve_n_jobs

        self.n_jobs = resolve_n_jobs(n_jobs)

    # -- internals -------------------------------------------------------
    def _resolve_order(self, dataset):
        if self.order is None:
            return tuple(dataset.names)
        if isinstance(self.order, OrderingStrategy):
            return self.order.order(dataset)
        return FunctionalOrder(self.order).order(dataset)

    def _fit_model(self, train, feature_names):
        base = self.model_factory or AutoTunedSVCFactory()
        model = GuardBandedClassifier(
            feature_names, delta=self.guard_band,
            model_factory=self._wrapped_factory(base))
        model.fit(train)
        return model

    def _wrapped_factory(self, base):
        """Insert optional grid compaction in front of every model fit."""
        if self.grid_compactor is None:
            return base
        return GridCompactedFactory(base, self.grid_compactor)

    def _candidate_error(self, report):
        error = report.error_rate
        if self.count_guard_as_error:
            error += report.guard_rate
        return error

    def evaluate_subset(self, train, test, eliminated):
        """Fit and evaluate a model for one fixed eliminated set.

        Returns ``(model, report)``.  This is the building block used
        both by the greedy loop and by block eliminations such as the
        MEMS temperature experiment (paper Table 3).
        """
        eliminated = tuple(eliminated)
        kept = [n for n in train.names if n not in set(eliminated)]
        if len(kept) < self.min_kept:
            raise CompactionError(
                "elimination of {} would leave fewer than {} tests".format(
                    eliminated, self.min_kept))
        model = self._fit_model(train, kept)
        predictions = model.predict_dataset(test)
        report = evaluate_predictions(test.labels, predictions)
        return model, report

    # -- the greedy loop ----------------------------------------------------
    def _greedy_loop(self, order, max_eliminable, evaluate):
        """Examine each test in ``order``; eliminate while tolerable.

        ``evaluate(eliminated, i)`` returns ``(model, report)`` for the
        candidate ``eliminated + (order[i],)``.  Returns
        ``(eliminated, steps, last_fit)`` where ``last_fit`` is
        ``(model, report)`` of the most recent accepted candidate
        (``None`` when nothing was eliminated).
        """
        eliminated = ()
        steps = []
        last_fit = None
        for i, test_name in enumerate(order):
            if len(eliminated) >= max_eliminable:
                break
            model, report = evaluate(eliminated, i)
            accept = self._candidate_error(report) <= self.tolerance
            if accept:
                eliminated += (test_name,)
                last_fit = (model, report)
            steps.append(CompactionStep(
                test_name=test_name,
                eliminated=accept,
                report=report,
                eliminated_so_far=eliminated))
        return eliminated, steps, last_fit

    def run(self, train, test):
        """Execute the paper's Fig. 2 flow.

        Parameters
        ----------
        train:
            Training :class:`~repro.process.dataset.SpecDataset` (full
            specification measurements).
        test:
            Held-out dataset used to estimate the prediction error of
            each candidate model.

        Returns
        -------
        CompactionResult
        """
        if train.specifications != test.specifications:
            raise CompactionError(
                "train and test datasets must share specifications")
        order = self._resolve_order(train)
        max_eliminable = len(train.names) - self.min_kept
        stats = {"n_jobs": self.n_jobs}
        if self.n_jobs > 1:
            from repro.runtime.parallel import make_pool

            with make_pool(self.n_jobs, initializer=_init_candidate_worker,
                           initargs=(self, train, test)) as pool:
                speculator = _Speculator(pool, order, 2 * self.n_jobs,
                                         max_eliminable)
                eliminated, steps, last_fit = self._greedy_loop(
                    order, max_eliminable, speculator)
                speculator.discard(eliminated, len(order))
            stats["speculation"] = speculator.stats
        else:
            eliminated, steps, last_fit = self._greedy_loop(
                order, max_eliminable,
                lambda elim, i: self.evaluate_subset(
                    train, test, elim + (order[i],)))
        stats["candidates_examined"] = len(steps)
        # The last accepted candidate was fitted on exactly the final
        # eliminated set; reuse it.  Without one nothing was eliminated,
        # and the final model is the constant-good stub, which fits
        # nothing.
        stats["final_refit_reused"] = last_fit is not None
        if last_fit is None:
            last_fit = self.evaluate_subset(train, test, eliminated)
        model, final_report = last_fit
        return CompactionResult(
            kept=tuple(n for n in train.names if n not in set(eliminated)),
            eliminated=eliminated,
            model=model,
            final_report=final_report,
            steps=steps,
            order=order,
            tolerance=self.tolerance,
            stats=stats,
        )

    # -- batch API ---------------------------------------------------------
    def run_many(self, pairs):
        """Compact many independent ``(train, test)`` pairs.

        With ``n_jobs > 1`` the pairs fan out across one process pool
        whose workers compact serially; results are bitwise a serial
        loop's and come back in input order.  This is the bulk entry
        point for Monte-Carlo lots and tolerance sweeps.
        """
        pairs = list(pairs)
        if any(len(pair) != 2 for pair in pairs):
            raise CompactionError("run_many expects (train, test) pairs")
        if self.n_jobs <= 1 or len(pairs) <= 1:
            return [self.run(train, test) for train, test in pairs]
        from repro.runtime.parallel import make_pool

        with make_pool(min(self.n_jobs, len(pairs)),
                       initializer=_init_pair_worker,
                       initargs=(self,)) as pool:
            return list(pool.map(_run_pair, pairs))


def speculation_plan(eliminated, next_index, order, limit, max_eliminable):
    """Candidate subsets worth evaluating from the current loop state.

    Walks the accept/reject decision tree breadth-first from the state
    ``(eliminated, next_index)``: the certain head candidate first,
    then both possible next candidates, and so on.  Nearer decisions
    are listed first, so feeding the first ``limit`` entries to a pool
    keeps every worker busy on the work most likely to be needed.
    States the greedy loop can never reach (elimination floor hit,
    order exhausted) produce no candidates.

    Returns a list of candidate tuples; the head candidate, when the
    loop still has one to examine, is always first.
    """
    plan = []
    seen = set()
    queue = deque([(tuple(eliminated), next_index)])
    while queue and len(plan) < limit:
        state_elim, i = queue.popleft()
        if i >= len(order) or len(state_elim) >= max_eliminable:
            continue
        candidate = state_elim + (order[i],)
        if candidate not in seen:
            seen.add(candidate)
            plan.append(candidate)
        queue.append((state_elim, i + 1))   # branch: candidate rejected
        queue.append((candidate, i + 1))    # branch: candidate accepted
    return plan


class _Speculator:
    """The greedy loop's ``evaluate`` for ``n_jobs > 1``.

    Before waiting on the head candidate it submits the nearest
    entries of :func:`speculation_plan` (up to ``window`` in flight),
    so whichever way each decision goes the next evaluation is
    usually running already; candidates on the branch not taken are
    cancelled.  Every evaluation is a pure function of its candidate
    and the loop consumes them in examination order, so the run is
    bitwise the serial one.
    """

    def __init__(self, pool, order, window, max_eliminable):
        self.pool = pool
        self.order = order
        self.window = window
        self.max_eliminable = max_eliminable
        self.positions = {name: i for i, name in enumerate(order)}
        self.pending = {}  # candidate tuple -> Future
        self.stats = {"submitted": 0, "consumed": 0, "discarded": 0}

    def __call__(self, eliminated, i):
        self.discard(eliminated, i)
        head = eliminated + (self.order[i],)
        for candidate in speculation_plan(eliminated, i, self.order,
                                          self.window, self.max_eliminable):
            # The head decision gates all progress; everything else
            # only fills the window.
            if candidate not in self.pending and (
                    candidate == head or len(self.pending) < self.window):
                self.pending[candidate] = self.pool.submit(
                    _eval_candidate, candidate)
                self.stats["submitted"] += 1
        self.stats["consumed"] += 1
        return self.pending.pop(head).result()

    def discard(self, eliminated, i):
        """Cancel what the loop can no longer ask for from state
        ``(eliminated, i)``: candidates extend the realized eliminated
        set by tests at strictly increasing, not yet examined positions.
        """
        k = len(eliminated)
        for candidate in list(self.pending):
            positions = [self.positions[name] for name in candidate[k:]]
            if (candidate[:k] != eliminated or not positions
                    or positions[0] < i
                    or any(b <= a for a, b in zip(positions, positions[1:]))):
                self.pending.pop(candidate).cancel()
                self.stats["discarded"] += 1


#: Per-process state for pool workers (set by the initializers below).
_WORKER = {}


def _init_candidate_worker(compactor, train, test):
    """Pool initializer for speculative candidate evaluation."""
    _WORKER.update(compactor=compactor, train=train, test=test)


def _eval_candidate(candidate):
    """Evaluate one candidate elimination inside a pool worker."""
    return _WORKER["compactor"].evaluate_subset(
        _WORKER["train"], _WORKER["test"], candidate)


def _init_pair_worker(compactor):
    """Pool initializer for :meth:`TestCompactor.run_many` workers."""
    compactor.n_jobs = 1  # this process's own copy runs pairs serially
    _WORKER["compactor"] = compactor


def _run_pair(pair):
    """Compact one ``(train, test)`` pair inside a pool worker."""
    return _WORKER["compactor"].run(*pair)
