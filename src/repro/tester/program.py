"""Production test-program simulation with guard-band retest.

Models how a compacted test set actually runs on automatic test
equipment:

1. the tester applies only the *kept* specification tests;
2. the measurements index the :class:`~repro.tester.lookup.LookupTable`
   (or query the live model);
3. devices with the guard-band attribute are handled per the retest
   policy (paper Section 4.2: "devices can be further tested to answer
   the question", or binned good/bad/lower-grade outright);
4. per-device cost is accounted with a
   :class:`~repro.core.costmodel.TestCostModel`.

The simulation consumes a ground-truth-labeled
:class:`~repro.process.dataset.SpecDataset`, so the resulting yield
loss and defect escape are exact.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import GUARD, ClassificationReport, evaluate_predictions
from repro.core.specs import BAD, GOOD
from repro.errors import CompactionError

#: Guard-band devices get the complete specification test set applied.
RETEST_FULL = "full_retest"
#: Guard-band devices are shipped without retest (cheapest, most escapes).
RETEST_ACCEPT = "accept"
#: Guard-band devices are scrapped without retest (no escapes from guard).
RETEST_REJECT = "reject"

_POLICIES = (RETEST_FULL, RETEST_ACCEPT, RETEST_REJECT)


def check_retest_policy(policy):
    """Validate a retest-policy name; returns it unchanged."""
    if policy not in _POLICIES:
        raise CompactionError(
            "retest policy must be one of {}".format(_POLICIES))
    return policy


def apply_retest_policy(first_pass, true_labels, policy):
    """Resolve guard-band devices into final dispositions.

    Vectorized core of the retest flow, shared by :class:`TestProgram`
    and the streaming :class:`repro.floor.engine.TestFloor`.  With
    ``full_retest`` the guard devices receive the complete test set, so
    their disposition equals the ground truth; ``accept``/``reject``
    bin them good/bad outright.

    Returns ``(decisions, n_retested)``.
    """
    check_retest_policy(policy)
    first_pass = np.asarray(first_pass)
    decisions = first_pass.copy()
    guard_mask = first_pass == GUARD
    n_guard = int(np.count_nonzero(guard_mask))
    if policy == RETEST_FULL:
        decisions[guard_mask] = np.asarray(true_labels)[guard_mask]
    elif policy == RETEST_ACCEPT:
        decisions[guard_mask] = GOOD
    else:
        decisions[guard_mask] = BAD
    return decisions, (n_guard if policy == RETEST_FULL else 0)


def unit_costs(cost_model, kept):
    """Per-device ``(compacted, full)`` test costs for :func:`policy_cost`.

    ``None`` when there is no cost model.  Callers compute this once
    per program and reuse it for every population they cost.
    """
    if cost_model is None:
        return None
    return cost_model.cost(kept), cost_model.full_cost()


def policy_cost(costs, n_devices, n_retested, policy):
    """Population test cost under a retest policy.

    Every device pays the compacted set; with ``full_retest`` each
    retested (guard-band) device additionally pays the complete test
    set.  ``costs`` is the :func:`unit_costs` pair.  Returns
    ``(total_cost, full_cost)`` — the second being the cost of testing
    the same population with the full specification set (the paper's
    baseline).  ``costs=None`` yields ``(0.0, 0.0)``.
    """
    if costs is None:
        return 0.0, 0.0
    per_device, full_per_device = costs
    total = per_device * n_devices
    if policy == RETEST_FULL:
        total += full_per_device * n_retested
    return total, full_per_device * n_devices


@dataclass
class TestOutcome:
    """Result of running a test program over a device population."""

    #: Final dispositions after retest (+1 ship, -1 scrap).
    decisions: np.ndarray
    #: First-pass predictions (+1/-1/0) before the retest policy.
    first_pass: np.ndarray
    #: Final-classification report (after retest resolution).
    report: ClassificationReport
    #: Number of devices sent through the retest flow.
    n_retested: int
    #: Total test cost for the population (cost-model units).
    total_cost: float
    #: Cost of testing the same population with the full test set.
    full_cost: float
    #: Per-device bin indices into ``bin_names`` (``None`` when the
    #: program carries no tolerance profile).
    bins: object = None
    #: Profile bin assignment of the full measurements (no
    #: disposition override; ``None`` without a profile).
    truth_bins: object = None
    #: Bin names, in profile order (empty without a profile).
    bin_names: tuple = ()
    #: Shipped devices routed through the grade (bin) retest flow.
    n_bin_retested: int = 0

    def bin_counts(self):
        """``{bin_name: count}`` histogram (``None`` without a profile)."""
        if self.bins is None:
            return None
        from repro.rules.binning import bin_histogram

        return bin_histogram(self.bins, self.bin_names)

    @property
    def cost_per_device(self):
        """Average cost per device under the compacted program."""
        return self.total_cost / len(self.decisions)

    @property
    def cost_reduction(self):
        """Fractional saving vs applying the complete test set."""
        if self.full_cost <= 0:
            return 0.0
        return 1.0 - self.total_cost / self.full_cost

    def summary(self):
        """One-line outcome summary."""
        return ("shipped {}  scrapped {}  retested {}  "
                "YL {:.2%}  DE {:.2%}  cost/device {:.3g} "
                "({:.1%} saved)").format(
                    int(np.sum(self.decisions == GOOD)),
                    int(np.sum(self.decisions == BAD)),
                    self.n_retested,
                    self.report.yield_loss_rate,
                    self.report.defect_escape_rate,
                    self.cost_per_device,
                    self.cost_reduction)


class TestProgram:
    """A deployable compacted test program.

    Parameters
    ----------
    classifier:
        Either a fitted
        :class:`~repro.core.guardband.GuardBandedClassifier` or a
        :class:`~repro.tester.lookup.LookupTable`.
    cost_model:
        A :class:`~repro.core.costmodel.TestCostModel` covering every
        specification test (kept and eliminated).
    retest_policy:
        ``"full_retest"`` (default), ``"accept"`` or ``"reject"``.
    profile:
        Optional :class:`~repro.rules.engine.ToleranceProfile`; when
        given, :meth:`run` additionally assigns every device a bin.
        Binning *refines* the binary disposition -- it never changes a
        ship/scrap decision (see :mod:`repro.rules.binning`).
    bank:
        Optional fitted :class:`~repro.learn.ovr.OneVsRestSVCBank`
        grading shipped devices from the kept measurements (classes
        must be grade bin names of ``profile``).
    boundary_margin:
        Bank top-2 margin below which a shipped device is routed
        through the grade retest (full-measurement grade); counted in
        :attr:`TestOutcome.n_bin_retested`.
    """

    def __init__(self, classifier, cost_model=None,
                 retest_policy=RETEST_FULL, profile=None, bank=None,
                 boundary_margin=0.0):
        check_retest_policy(retest_policy)
        self.classifier = classifier
        self.cost_model = cost_model
        self.retest_policy = retest_policy
        self.profile = profile
        self.bank = bank
        self.boundary_margin = float(boundary_margin)
        self.kept = tuple(classifier.feature_names)

    def _first_pass(self, dataset):
        values = dataset.project(self.kept).values
        if hasattr(self.classifier, "classify"):       # LookupTable
            return np.asarray(self.classifier.classify(values))
        return self.classifier.predict_measurements(values)

    def run(self, dataset):
        """Run the program over a ground-truth-labeled population.

        Returns a :class:`TestOutcome`.  With the ``full_retest``
        policy, guard-band devices receive the complete specification
        test set, so their final disposition equals the ground truth
        (and their cost is the full test-set cost on top of the
        compacted pass).
        """
        first = self._first_pass(dataset)
        decisions, n_retested = apply_retest_policy(
            first, dataset.labels, self.retest_policy)
        report = evaluate_predictions(dataset.labels, decisions)
        total_cost, full_cost = policy_cost(
            unit_costs(self.cost_model, self.kept), len(dataset),
            n_retested, self.retest_policy)

        bins = truth_bins = None
        bin_names = ()
        n_bin_retested = 0
        if self.profile is not None:
            from repro.rules.binning import assign_bins

            bound = self.profile.bind(dataset.specifications)
            truth_bins = bound.assign(dataset.values)
            bins, n_bin_retested = assign_bins(
                bound, decisions, truth_bins,
                kept_norm=dataset.normalized_values(self.kept),
                bank=self.bank, boundary_margin=self.boundary_margin)
            bin_names = bound.bins

        return TestOutcome(
            decisions=decisions,
            first_pass=first,
            report=report,
            n_retested=n_retested,
            total_cost=total_cost,
            full_cost=full_cost,
            bins=bins,
            truth_bins=truth_bins,
            bin_names=bin_names,
            n_bin_retested=n_bin_retested,
        )
