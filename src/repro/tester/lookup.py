"""Grid lookup table replacing the SVM on the tester (Section 3.3).

The table divides the normalized space of the *kept* specifications
into a regular grid, queries the guard-banded classifier once per cell
center offline, and stores the three-valued attribute (+1 good,
-1 bad, 0 guard band) in a dense integer array.  At test time a device
measurement indexes the table in O(d) -- no kernel evaluations on the
tester.
"""

import numpy as np

from repro.errors import CompactionError

#: Ceiling on the table size (cells): the memory guard for the dense
#: table.
MAX_CELLS = 250_000
#: The normalized-space window covered by the grid.  One normalized
#: unit is the acceptability range; the margin covers the out-of-range
#: neighbourhood so marginal-bad devices index real cells.
GRID_LO = -0.3
GRID_HI = 1.3


class LookupTable:
    """A dense good/bad/guard lookup table over the kept-spec space.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.guardband.GuardBandedClassifier`.
    resolution:
        Cells per dimension; ``None`` picks the largest resolution
        whose total cell count stays below :data:`MAX_CELLS`.
    """

    def __init__(self, model, resolution=None):
        self.feature_names = model.feature_names
        d = len(self.feature_names)
        if resolution is None:
            resolution = int(np.floor(MAX_CELLS ** (1.0 / d)))
            resolution = max(resolution, 3)
        resolution = int(resolution)
        if resolution < 2:
            raise CompactionError("lookup resolution must be >= 2")
        if resolution ** d > MAX_CELLS:
            raise CompactionError(
                "lookup table would need {} cells (> {}); lower the "
                "resolution or keep fewer tests".format(
                    resolution ** d, MAX_CELLS))
        self.resolution = resolution
        self._model = model
        self._feature_specs = model._feature_specs
        self._edges = np.linspace(GRID_LO, GRID_HI, resolution + 1)
        self._build()

    def _centers_1d(self):
        return 0.5 * (self._edges[:-1] + self._edges[1:])

    def _build(self):
        d = len(self.feature_names)
        centers = self._centers_1d()
        mesh = np.meshgrid(*([centers] * d), indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        attributes = self._model.predict_features(points)
        self.table = attributes.astype(np.int8).reshape(
            (self.resolution,) * d)

    @property
    def n_cells(self):
        """Total number of grid cells."""
        return int(self.table.size)

    def cell_of(self, values):
        """Grid coordinates for raw measurements of the kept specs.

        Out-of-window values clip to the boundary cells, whose centers
        lie far outside every guard band and therefore carry the bad
        attribute.
        """
        values = np.asarray(values, dtype=float)
        one_dim = values.ndim == 1
        if one_dim:
            values = values[None, :]
        normalized = self._feature_specs.normalize(values)
        span = GRID_HI - GRID_LO
        idx = np.floor(
            (normalized - GRID_LO) / span * self.resolution).astype(int)
        np.clip(idx, 0, self.resolution - 1, out=idx)
        return idx[0] if one_dim else idx

    def classify(self, values):
        """Three-valued attribute for raw kept-spec measurements."""
        idx = self.cell_of(values)
        if idx.ndim == 1:
            return int(self.table[tuple(idx)])
        return self.table[tuple(idx.T)]

    def agreement_with_model(self, dataset):
        """Fraction of instances where table and live model agree.

        Quantifies the quantization loss of replacing the SVM pair by
        the grid (paper: "little additional cost").
        """
        values = dataset.project(self.feature_names).values
        table_pred = self.classify(values)
        model_pred = self._model.predict_measurements(values)
        return float(np.mean(table_pred == model_pred))

    def memory_bytes(self):
        """Size of the attribute array in bytes (int8 storage)."""
        return int(self.table.nbytes)

    def __repr__(self):
        return "LookupTable({} specs, resolution={}, {} cells)".format(
            len(self.feature_names), self.resolution, self.n_cells)
