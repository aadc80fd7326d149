"""Yield loss / defect escape / guard-band accounting.

The paper's error measures (Section 5.1):

* **yield loss** -- the number of good devices the model predicted to
  be bad, as a percentage of all tested devices;
* **defect escape** -- the number of bad devices the model predicted to
  be good, likewise as a percentage;
* **predictions in guard band** -- devices on which the two guard-band
  models disagree; these are retested rather than counted as errors.

Predictions use the three-valued convention ``+1`` good, ``-1`` bad,
``0`` guard band.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.specs import BAD, GOOD
from repro.errors import CompactionError

#: Prediction value meaning "device lies in the guard-band region".
GUARD = 0


@dataclass(frozen=True)
class ClassificationReport:
    """Counts and rates of one model evaluation.

    All ``*_rate`` values are fractions of the total device count
    (multiply by 100 for the paper's percentage scale).
    """

    n_total: int
    n_good: int
    n_bad: int
    n_yield_loss: int
    n_defect_escape: int
    n_guard: int
    n_guard_good: int
    n_guard_bad: int

    @property
    def yield_loss_rate(self):
        """Good devices predicted bad, over all devices."""
        return self.n_yield_loss / self.n_total

    @property
    def defect_escape_rate(self):
        """Bad devices predicted good, over all devices."""
        return self.n_defect_escape / self.n_total

    @property
    def guard_rate(self):
        """Devices in the guard band, over all devices."""
        return self.n_guard / self.n_total

    @property
    def error_rate(self):
        """Prediction error e_p = yield loss + defect escape."""
        return (self.n_yield_loss + self.n_defect_escape) / self.n_total

    def summary(self):
        """One-line human-readable summary (paper percentage scale)."""
        return ("yield loss {:.2%}  defect escape {:.2%}  guard band {:.2%}"
                .format(self.yield_loss_rate, self.defect_escape_rate,
                        self.guard_rate))

    def __str__(self):
        return self.summary()


def evaluate_predictions(true_labels, predictions):
    """Build a :class:`ClassificationReport` from labels and predictions.

    Parameters
    ----------
    true_labels:
        Ground-truth labels in {+1, -1} from the *complete*
        specification set.
    predictions:
        Model predictions in {+1, -1, 0}; 0 marks the guard band.
    """
    true_labels = np.asarray(true_labels)
    predictions = np.asarray(predictions)
    if true_labels.shape != predictions.shape:
        raise CompactionError("labels/predictions shape mismatch")
    if true_labels.size == 0:
        raise CompactionError("cannot evaluate an empty set")
    if not np.all(np.isin(true_labels, (GOOD, BAD))):
        raise CompactionError("true labels must be +1/-1")
    if not np.all(np.isin(predictions, (GOOD, BAD, GUARD))):
        raise CompactionError("predictions must be +1/-1/0")

    good = true_labels == GOOD
    bad = ~good
    guard = predictions == GUARD
    return ClassificationReport(
        n_total=int(true_labels.size),
        n_good=int(np.sum(good)),
        n_bad=int(np.sum(bad)),
        n_yield_loss=int(np.sum(good & (predictions == BAD))),
        n_defect_escape=int(np.sum(bad & (predictions == GOOD))),
        n_guard=int(np.sum(guard)),
        n_guard_good=int(np.sum(guard & good)),
        n_guard_bad=int(np.sum(guard & bad)),
    )
