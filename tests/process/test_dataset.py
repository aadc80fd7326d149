"""SpecDataset container tests."""

import numpy as np
import pytest

from repro.core.specs import BAD, GOOD, Specification, SpecificationSet
from repro.errors import DatasetError
from repro.process.dataset import SpecDataset

from tests.synthetic import make_synthetic_dataset


def _specs():
    return SpecificationSet([
        Specification("a", "u", 0.5, 0.0, 1.0),
        Specification("b", "u", 5.0, 0.0, 10.0),
    ])


class TestConstruction:
    def test_labels_derived_from_ranges(self):
        ds = SpecDataset(_specs(), [[0.5, 5.0], [2.0, 5.0]])
        assert ds.labels.tolist() == [GOOD, BAD]
        assert ds.yield_fraction == 0.5

    def test_explicit_labels_preserved(self):
        ds = SpecDataset(_specs(), [[0.5, 5.0]], labels=[BAD])
        assert ds.labels.tolist() == [BAD]

    def test_shape_and_content_validation(self):
        with pytest.raises(DatasetError):
            SpecDataset(_specs(), [[1.0]])
        with pytest.raises(DatasetError):
            SpecDataset(_specs(), [[np.nan, 1.0]])
        with pytest.raises(DatasetError):
            SpecDataset(_specs(), [[1.0, 1.0]], labels=[5])
        with pytest.raises(DatasetError):
            SpecDataset(_specs(), np.zeros(4))


class TestViewsAndSplits:
    def test_project_keeps_full_labels(self):
        """A device failing a projected-away spec stays bad."""
        ds = SpecDataset(_specs(), [[0.5, 50.0]])  # fails "b" only
        proj = ds.project(["a"])
        assert proj.labels.tolist() == [BAD]
        assert proj.names == ("a",)
        assert proj.values.shape == (1, 1)

    def test_project_reorders_columns(self):
        ds = SpecDataset(_specs(), [[0.25, 7.5]])
        proj = ds.project(["b", "a"])
        assert proj.values[0].tolist() == [7.5, 0.25]

    def test_column_accessor(self):
        ds = SpecDataset(_specs(), [[0.25, 7.5], [0.5, 2.5]])
        assert ds.column("b").tolist() == [7.5, 2.5]

    def test_normalized_values(self):
        ds = SpecDataset(_specs(), [[0.5, 2.5]])
        z = ds.normalized_values()
        assert np.allclose(z, [[0.5, 0.25]])
        z_sub = ds.normalized_values(["b"])
        assert np.allclose(z_sub, [[0.25]])

    def test_split_partitions_instances(self):
        ds = make_synthetic_dataset(n=100)
        a, b = ds.split(0.7, seed=1)
        assert len(a) == 70 and len(b) == 30
        combined = np.vstack([a.values, b.values])
        assert sorted(map(tuple, combined)) == sorted(map(tuple, ds.values))

    def test_split_validation(self):
        ds = make_synthetic_dataset(n=10)
        with pytest.raises(DatasetError):
            ds.split(1.5)

    def test_subset_by_indices(self):
        ds = make_synthetic_dataset(n=20)
        sub = ds.subset([3, 5, 7])
        assert len(sub) == 3
        assert np.array_equal(sub.values[1], ds.values[5])
        assert sub.labels[1] == ds.labels[5]
