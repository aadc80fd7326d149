"""Grid lookup-table tests (paper Section 3.3)."""

import numpy as np
import pytest

from repro.core.guardband import GuardBandedClassifier
from repro.core.metrics import GUARD
from repro.core.specs import BAD, GOOD
from repro.errors import CompactionError
from repro.learn import SVC
from repro.tester import LookupTable, lookup

from tests.synthetic import make_synthetic_dataset


def _fitted_model(n_kept=3, delta=0.05):
    train = make_synthetic_dataset(n=400, seed=1)
    model = GuardBandedClassifier(
        train.names[:n_kept], delta=delta,
        model_factory=lambda: SVC(C=50.0, gamma="scale"))
    model.fit(train)
    return model, train


class TestLookupTable:
    def test_resolution_chosen_from_budget(self, monkeypatch):
        model, _ = _fitted_model(n_kept=3)
        monkeypatch.setattr(lookup, "MAX_CELLS", 8000)
        lut = LookupTable(model)
        # floor(8000 ** (1/3)) up to floating-point representation.
        assert lut.resolution in (19, 20)
        assert lut.n_cells <= 8000

    def test_explicit_resolution_respected(self):
        model, _ = _fitted_model(n_kept=2)
        lut = LookupTable(model, resolution=16)
        assert lut.table.shape == (16, 16)

    def test_memory_guard(self):
        model, _ = _fitted_model(n_kept=3)
        with pytest.raises(CompactionError, match="cells"):
            LookupTable(model, resolution=100)

    def test_attributes_three_valued(self):
        model, _ = _fitted_model()
        lut = LookupTable(model, resolution=17)
        assert set(np.unique(lut.table)) <= {GOOD, BAD, GUARD}

    def test_high_agreement_with_live_model(self):
        model, train = _fitted_model(n_kept=3)
        lut = LookupTable(model, resolution=31)
        assert lut.agreement_with_model(train) > 0.9

    def test_far_out_of_range_classified_bad(self):
        model, train = _fitted_model()
        lut = LookupTable(model, resolution=17)
        crazy = np.full((1, len(lut.feature_names)), 1e9)
        assert lut.classify(crazy)[0] == BAD

    def test_classify_single_row(self):
        model, train = _fitted_model()
        lut = LookupTable(model, resolution=17)
        row = train.project(lut.feature_names).values[0]
        assert lut.classify(row) in (GOOD, BAD, GUARD)

    def test_cell_indices_clip_to_grid(self):
        model, _ = _fitted_model()
        lut = LookupTable(model, resolution=17)
        idx = lut.cell_of(np.full(len(lut.feature_names), -1e12))
        assert np.all(idx == 0)

    def test_memory_bytes_is_table_size(self):
        model, _ = _fitted_model(n_kept=2)
        lut = LookupTable(model, resolution=10)
        assert lut.memory_bytes() == 100  # int8 cells
