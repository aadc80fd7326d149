"""The :class:`SpecDataset` container: measurements and labels.

A dataset holds one row per simulated device instance and one column
per specification measurement, together with the
:class:`~repro.core.specs.SpecificationSet` that defines pass/fail.
Labels are always *derived* from the full measurement matrix (+1 good /
-1 bad), so projecting the dataset onto a subset of specifications
keeps the ground-truth labels of the complete test set -- exactly what
the compaction procedure needs.
"""

import numpy as np

from repro.core.specs import SpecificationSet
from repro.errors import DatasetError


class SpecDataset:
    """Measured specification values for a population of devices.

    Parameters
    ----------
    specifications:
        The :class:`~repro.core.specs.SpecificationSet` describing the
        columns.
    values:
        ``(n_instances, n_specs)`` measurement matrix in specification
        units.
    labels:
        Optional per-instance labels (+1/-1).  When omitted they are
        computed from ``values`` against the acceptability ranges --
        the standard path.  Passing labels explicitly supports the
        compaction loop, where features are projected onto a test
        subset but labels must keep reflecting the *complete*
        specification set.
    """

    def __init__(self, specifications, values, labels=None):
        if not isinstance(specifications, SpecificationSet):
            specifications = SpecificationSet(specifications)
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise DatasetError("values must be a 2-D matrix")
        if values.shape[1] != len(specifications):
            raise DatasetError(
                "values has {} columns but there are {} specifications"
                .format(values.shape[1], len(specifications)))
        if not np.all(np.isfinite(values)):
            raise DatasetError("values contain NaN or infinity")
        self.specifications = specifications
        self.values = values
        if labels is None:
            self.labels = specifications.labels(values)
        else:
            labels = np.asarray(labels)
            if labels.shape != (values.shape[0],):
                raise DatasetError("labels shape mismatch")
            if not np.all(np.isin(labels, (-1, 1))):
                raise DatasetError("labels must be +1 or -1")
            self.labels = labels.astype(int)

    # -- basic protocol -----------------------------------------------------
    def __len__(self):
        return self.values.shape[0]

    @property
    def n_specs(self):
        """Number of specification columns."""
        return self.values.shape[1]

    @property
    def names(self):
        """Specification names, in column order."""
        return self.specifications.names

    @property
    def yield_fraction(self):
        """Fraction of instances labeled good."""
        return float(np.mean(self.labels == 1))

    def __repr__(self):
        return "SpecDataset({} instances, {} specs, yield={:.1%})".format(
            len(self), self.n_specs, self.yield_fraction)

    # -- views ---------------------------------------------------------------
    def column(self, name):
        """Measurement vector of one specification."""
        return self.values[:, self.specifications.index(name)]

    def project(self, names):
        """Dataset restricted to the given specification columns.

        The labels are preserved from the *full* specification set, so
        an instance that fails only a projected-away specification
        remains labeled bad.  This is the feature view used when a test
        has been (tentatively) eliminated.
        """
        idx = [self.specifications.index(n) for n in names]
        return SpecDataset(self.specifications.subset(names),
                           self.values[:, idx], labels=self.labels)

    def normalized_values(self, names=None):
        """Range-normalized measurement matrix (paper Section 4.3)."""
        if names is None:
            return self.specifications.normalize(self.values)
        return self.project(names).normalized_values()

    def subset(self, indices):
        """Dataset restricted to the given instance rows.

        ``indices`` may be an integer index array or a boolean mask.
        """
        indices = np.asarray(indices)
        if indices.dtype != bool:
            indices = indices.astype(int)
        return SpecDataset(self.specifications, self.values[indices],
                           labels=self.labels[indices])

    def split(self, fraction, seed=0):
        """Random split into ``(first, second)`` datasets.

        ``fraction`` is the share of instances in the first part.
        """
        if not 0.0 < fraction < 1.0:
            raise DatasetError("split fraction must be inside (0, 1)")
        rng = np.random.default_rng(seed)
        n = len(self)
        order = rng.permutation(n)
        k = int(round(fraction * n))
        if k == 0 or k == n:
            raise DatasetError("split produces an empty part")
        return self.subset(order[:k]), self.subset(order[k:])
