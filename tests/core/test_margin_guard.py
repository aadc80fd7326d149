"""Single-model margin-guard classifier tests (ablation device)."""

import numpy as np
import pytest

from repro.core.guardband import GuardBandedClassifier, \
    MarginGuardClassifier
from repro.core.metrics import GUARD
from repro.errors import CompactionError
from repro.learn import SVC

from tests.synthetic import make_synthetic_dataset


def _fixed_factory():
    return SVC(C=50.0, gamma="scale")


class TestMarginGuardClassifier:
    def test_requires_exactly_one_margin_spec(self):
        with pytest.raises(CompactionError, match="exactly one"):
            MarginGuardClassifier(["s0"])
        with pytest.raises(CompactionError, match="exactly one"):
            MarginGuardClassifier(["s0"], margin=0.1,
                                  target_guard_fraction=0.1)

    @pytest.mark.parametrize("kwargs", [
        dict(delta=float("nan"), margin=0.1),
        dict(delta=-0.1, margin=0.1),
        dict(delta=0.05, margin=float("nan")),
        dict(delta=0.05, margin=-0.1)])
    def test_nan_or_negative_delta_and_margin_rejected(self, kwargs):
        with pytest.raises(CompactionError, match="non-negative"):
            MarginGuardClassifier(["s0"], **kwargs)

    def test_zero_margin_zero_delta_never_guards(self, synthetic_train):
        model = MarginGuardClassifier(
            synthetic_train.names[:4], delta=0.0, margin=0.0,
            model_factory=_fixed_factory).fit(synthetic_train)
        pred = model.predict_dataset(synthetic_train)
        assert GUARD not in pred

    def test_wider_margin_more_guards(self, synthetic_train):
        rates = []
        for margin in (0.0, 0.5, 2.0):
            model = MarginGuardClassifier(
                synthetic_train.names[:4], delta=0.0, margin=margin,
                model_factory=_fixed_factory).fit(synthetic_train)
            pred = model.predict_dataset(synthetic_train)
            rates.append(np.mean(pred == GUARD))
        assert rates == sorted(rates)

    def test_target_fraction_calibrates_margin(self, synthetic_train):
        model = MarginGuardClassifier(
            synthetic_train.names[:4], delta=0.0,
            target_guard_fraction=0.2,
            model_factory=_fixed_factory).fit(synthetic_train)
        pred = model.predict_dataset(synthetic_train)
        guard_rate = np.mean(pred == GUARD)
        # Roughly the target on the training population itself.
        assert guard_rate == pytest.approx(0.2, abs=0.1)

    def test_confident_predictions_mostly_correct(self, synthetic_train,
                                                  synthetic_test):
        model = MarginGuardClassifier(
            synthetic_train.names[:5], delta=0.03,
            target_guard_fraction=0.1,
            model_factory=_fixed_factory).fit(synthetic_train)
        pred = model.predict_dataset(synthetic_test)
        confident = pred != GUARD
        errors = np.mean(pred[confident] != synthetic_test.labels[confident])
        assert errors < 0.05

    def test_no_elimination_degenerates_to_box(self, synthetic_train):
        model = MarginGuardClassifier(
            synthetic_train.names, delta=0.0, margin=0.0,
            model_factory=_fixed_factory).fit(synthetic_train)
        pred = model.predict_dataset(synthetic_train)
        assert np.array_equal(pred, synthetic_train.labels)

    def test_unfitted_raises(self):
        model = MarginGuardClassifier(["s0"], margin=0.1)
        with pytest.raises(CompactionError, match="not fitted"):
            model.predict_features(np.zeros((1, 1)))

    def test_comparable_to_two_model_scheme(self, synthetic_train,
                                            synthetic_test):
        """At a matched guard budget both schemes control errors."""
        two = GuardBandedClassifier(
            synthetic_train.names[:5], delta=0.05,
            model_factory=_fixed_factory).fit(synthetic_train)
        two_pred = two.predict_dataset(synthetic_test)
        budget = float(np.mean(two_pred == GUARD))
        if budget <= 0.0 or budget >= 1.0:
            pytest.skip("degenerate guard budget")
        one = MarginGuardClassifier(
            synthetic_train.names[:5], delta=0.0,
            target_guard_fraction=budget,
            model_factory=_fixed_factory).fit(synthetic_train)
        one_pred = one.predict_dataset(synthetic_test)
        for pred in (two_pred, one_pred):
            confident = pred != GUARD
            errors = np.mean(
                pred[confident] != synthetic_test.labels[confident])
            assert errors < 0.06
