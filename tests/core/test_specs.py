"""Specification / SpecificationSet tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.specs import BAD, GOOD, Specification, SpecificationSet
from repro.errors import CompactionError


def _spec(name="s", low=0.0, high=10.0):
    return Specification(name, "u", (low + high) / 2, low, high)


class TestSpecification:
    def test_contains_scalar_and_array(self):
        s = _spec()
        assert s.contains(5.0) is True
        assert s.contains(-1.0) is False
        out = s.contains(np.array([0.0, 10.0, 10.1]))
        assert out.tolist() == [True, True, False]

    def test_bounds_inclusive(self):
        s = _spec(low=1.0, high=2.0)
        assert s.contains(1.0) and s.contains(2.0)

    @given(v=st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_normalized_pass_iff_in_unit_interval(self, v):
        s = _spec(low=-3.0, high=7.0)
        z = SpecificationSet([s]).normalize([[v]])[0, 0]
        assert bool(s.contains(v)) == bool(0.0 <= z <= 1.0)

    def test_shifted_shrinks_symmetrically(self):
        s = _spec(low=0.0, high=10.0).shifted(0.1)
        assert s.low == pytest.approx(1.0)
        assert s.high == pytest.approx(9.0)

    def test_shifted_negative_widens(self):
        s = _spec(low=0.0, high=10.0).shifted(-0.1)
        assert s.low == pytest.approx(-1.0)
        assert s.high == pytest.approx(11.0)

    def test_shifted_collapse_rejected(self):
        with pytest.raises(CompactionError, match="collapses"):
            _spec().shifted(0.5)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(CompactionError):
            Specification("x", "u", 0.0, 1.0, 1.0)
        with pytest.raises(CompactionError):
            Specification("", "u", 0.0, 0.0, 1.0)


class TestSpecificationSet:
    def _set(self):
        return SpecificationSet([
            _spec("a", 0.0, 1.0), _spec("b", -5.0, 5.0),
            _spec("c", 100.0, 200.0)])

    def test_container_protocol(self):
        specs = self._set()
        assert len(specs) == 3
        assert specs.names == ("a", "b", "c")
        assert "b" in specs
        assert specs["b"].low == -5.0
        assert specs[0].name == "a"
        assert specs.index("c") == 2

    def test_unknown_name_raises(self):
        specs = self._set()
        with pytest.raises(CompactionError, match="unknown"):
            specs["zz"]
        with pytest.raises(CompactionError, match="unknown"):
            specs.index("zz")

    def test_duplicate_names_rejected(self):
        with pytest.raises(CompactionError, match="duplicate"):
            SpecificationSet([_spec("a"), _spec("a")])

    def test_empty_rejected(self):
        with pytest.raises(CompactionError):
            SpecificationSet([])

    def test_subset_keeps_the_given_order(self):
        specs = self._set()
        sub = specs.subset(["c", "a"])
        assert sub.names == ("c", "a")

    def test_labels_good_iff_every_spec_passes(self):
        specs = self._set()
        values = np.array([
            [0.5, 0.0, 150.0],     # all pass
            [2.0, 0.0, 150.0],     # fails a
            [0.5, 0.0, 250.0],     # fails c
        ])
        assert specs.labels(values).tolist() == [GOOD, BAD, BAD]

    @given(values=st.lists(
        st.tuples(st.floats(-2, 3), st.floats(-10, 10),
                  st.floats(0, 300)),
        min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_labels_match_normalized_box(self, values):
        """Label is +1 exactly when all normalized values lie in [0,1]."""
        specs = self._set()
        V = np.array(values, dtype=float)
        labels = specs.labels(V)
        Z = specs.normalize(V)
        in_box = np.all((Z >= 0.0) & (Z <= 1.0), axis=1)
        assert np.array_equal(labels == GOOD, in_box)

    def test_shape_validation(self):
        specs = self._set()
        with pytest.raises(CompactionError, match="columns"):
            specs.labels(np.zeros((2, 2)))

    def test_shifted_applies_to_all(self):
        specs = self._set().shifted(0.1)
        assert specs["a"].low == pytest.approx(0.1)
        assert specs["c"].high == pytest.approx(190.0)

    def test_pickle_carries_no_bound_cache(self):
        import pickle

        warm = self._set()
        warm.labels(np.zeros((1, 3)))
        assert "_bounds" not in warm.__getstate__()
        assert pickle.dumps(warm) == pickle.dumps(self._set())
        restored = pickle.loads(pickle.dumps(warm))
        assert np.array_equal(restored.labels(np.zeros((1, 3))),
                              warm.labels(np.zeros((1, 3))))
