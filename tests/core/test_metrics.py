"""Yield-loss / defect-escape metric tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.metrics import GUARD, evaluate_predictions
from repro.core.specs import BAD, GOOD
from repro.errors import CompactionError


class TestEvaluatePredictions:
    def test_perfect_prediction(self):
        y = np.array([GOOD, BAD, GOOD])
        rep = evaluate_predictions(y, y)
        assert rep.error_rate == 0.0
        assert rep.yield_loss_rate == 0.0
        assert rep.defect_escape_rate == 0.0
        assert rep.guard_rate == 0.0

    def test_counts(self):
        y = np.array([GOOD, GOOD, BAD, BAD, GOOD, BAD])
        p = np.array([BAD, GOOD, GOOD, BAD, GUARD, GUARD])
        rep = evaluate_predictions(y, p)
        assert rep.n_total == 6
        assert rep.n_yield_loss == 1      # good predicted bad
        assert rep.n_defect_escape == 1   # bad predicted good
        assert rep.n_guard == 2
        assert rep.n_guard_good == 1
        assert rep.n_guard_bad == 1
        assert rep.yield_loss_rate == pytest.approx(1 / 6)
        assert rep.error_rate == pytest.approx(2 / 6)

    def test_guard_devices_not_errors(self):
        y = np.array([GOOD, BAD])
        p = np.array([GUARD, GUARD])
        rep = evaluate_predictions(y, p)
        assert rep.error_rate == 0.0
        assert rep.guard_rate == 1.0

    @given(n=st.integers(1, 200), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_identities_hold(self, n, seed):
        """YL + DE = error; YL <= good fraction; DE <= bad fraction."""
        rng = np.random.default_rng(seed)
        y = rng.choice([GOOD, BAD], n)
        p = rng.choice([GOOD, BAD, GUARD], n)
        rep = evaluate_predictions(y, p)
        assert rep.error_rate == pytest.approx(
            rep.yield_loss_rate + rep.defect_escape_rate)
        assert rep.n_yield_loss <= rep.n_good
        assert rep.n_defect_escape <= rep.n_bad
        assert rep.n_guard_good + rep.n_guard_bad == rep.n_guard
        assert rep.n_good + rep.n_bad == rep.n_total

    def test_summary_format(self):
        y = np.array([GOOD, BAD])
        rep = evaluate_predictions(y, np.array([GOOD, GOOD]))
        text = rep.summary()
        assert "yield loss" in text and "defect escape" in text

    def test_validation(self):
        with pytest.raises(CompactionError):
            evaluate_predictions(np.array([1]), np.array([1, 1]))
        with pytest.raises(CompactionError):
            evaluate_predictions(np.array([]), np.array([]))
        with pytest.raises(CompactionError):
            evaluate_predictions(np.array([2]), np.array([1]))
        with pytest.raises(CompactionError):
            evaluate_predictions(np.array([1]), np.array([5]))
