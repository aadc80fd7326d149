"""Disposition-aware bin assignment: decisions + profile -> bins.

The bridge between the binary disposition path (ship/scrap, which this
module never alters) and the declarative bin profiles of
:mod:`repro.rules.engine`.  One vectorized function,
:func:`assign_bins`, runs inside the one disposition kernel,
:meth:`repro.floor.engine.TestFloor.dispose`, which serves offline
populations, streams and the HTTP service alike -- so none of them
can disagree on what a bin means.

Semantics
---------

Bins refine the *disposition*, they never contradict it:

* every scrapped device lands in the profile's default (fallback) bin,
  whatever its measurements say;
* every shipped device lands in a *grade* (non-default) bin.  The
  grade comes from the profile match of the full measurements; a
  shipped device whose measurements match no grade rule (a defect
  escape -- the floor believed it passed) is clamped to the **lowest**
  grade, because the floor shipped it and a shipped device cannot
  carry the scrap bin.

With the degenerate 2-bin profile
(:meth:`repro.rules.engine.ToleranceProfile.binary_default`) this
collapses to a pure relabeling of the decisions -- ``PASS`` iff
shipped, ``FAIL`` iff scrapped -- which is the structural guarantee
behind the binary-parity contract: adding bins cannot change, and
cannot even *express* a change to, the binary outcome.

When a trained one-vs-rest bank
(:class:`repro.learn.ovr.OneVsRestSVCBank`) is supplied, shipped
devices are graded from the *kept* measurements alone (the tester's
real view); devices whose top-two bank scores are closer than
``boundary_margin`` are boundary cases that get the full-measurement
grade instead -- the grade-retest flow -- and are counted in the
returned ``n_bin_retested``.
"""

from __future__ import annotations

import numpy as np

from repro.core.specs import GOOD
from repro.errors import RuleError


def grade_indices(bound) -> list:
    """Indices of the non-default (grade) bins of a bound profile."""
    default = bound.profile.bin_index(bound.profile.default_bin)
    return [i for i in range(len(bound.bins)) if i != default]


def assign_bins(bound, decisions, truth_bins, kept_norm=None, bank=None,
                boundary_margin=0.0):
    """Per-device bin indices consistent with the binary dispositions.

    Parameters
    ----------
    bound:
        The :class:`~repro.rules.engine.BoundProfile` in force.
    decisions:
        Final binary dispositions (+1 ship / -1 scrap) -- already
        resolved by the retest policy; never modified here.
    truth_bins:
        ``bound.assign(full_measurements)`` of the same devices.
    kept_norm:
        Normalized kept-measurement rows (the bank's feature view);
        required when ``bank`` is given.
    bank:
        Optional fitted :class:`~repro.learn.ovr.OneVsRestSVCBank`
        whose classes are grade *bin names* of the profile.
    boundary_margin:
        Bank top-2 score margin below which a shipped device's grade
        is taken from the full measurements instead (grade retest).

    Returns
    -------
    (bins, n_bin_retested)
        ``bins`` indexes into ``bound.bins``; ``n_bin_retested``
        counts the shipped devices routed through the grade retest.
    """
    decisions = np.asarray(decisions)
    truth_bins = np.asarray(truth_bins)
    default = bound.profile.bin_index(bound.profile.default_bin)
    grades = grade_indices(bound)
    if not grades:
        raise RuleError(
            "profile {!r} has no grade bin besides the default; it "
            "cannot bin shipped devices".format(bound.profile.name))

    # Full-measurement grades, with escapes clamped to the lowest
    # grade (shipped devices cannot carry the scrap bin).
    true_grade = np.where(truth_bins == default, grades[-1], truth_bins)

    shipped = decisions == GOOD
    n_bin_retested = 0
    if bank is None or not shipped.any():
        grade = true_grade
    else:
        if kept_norm is None:
            raise RuleError(
                "bank grading needs the normalized kept measurements")
        class_bins = np.array(
            [bound.profile.bin_index(c) for c in bank.classes])
        rows = np.asarray(kept_norm, dtype=float)[shipped]
        predicted = class_bins[bank.predict_index(rows)]
        if boundary_margin > 0.0:
            boundary = bank.margins(rows) < boundary_margin
            predicted = np.where(boundary, true_grade[shipped], predicted)
            n_bin_retested = int(np.count_nonzero(boundary))
        grade = true_grade.copy()
        grade[shipped] = predicted

    bins = np.where(shipped, grade, default)
    return bins, n_bin_retested


def bin_histogram(bins, names) -> dict:
    """``{bin_name: count}`` over an index array (all names present)."""
    bins = np.asarray(bins)
    return {name: int(np.count_nonzero(bins == i))
            for i, name in enumerate(names)}
