"""One-vs-rest SVC bank: equivalence to cold fits, sharing, pickling.

The bank is an *optimization* of K independent one-vs-rest SVC fits
(shared training Gram, SMO warm starts) -- so the load-bearing test is
that it predicts exactly like the unoptimized construction.  The rest
pins the degenerate-class behaviour, the margin definition, label
validation and the prediction-only pickle contract.
"""

import pickle

import numpy as np
import pytest

from repro.errors import LearningError
from repro.learn import kernels
from repro.learn.kernels import squared_distances
from repro.learn.ovr import OneVsRestSVCBank
from repro.learn.svm import SVC
from repro.telemetry import Telemetry, set_telemetry

CLASSES = ("FAST", "TYP", "SLOW")


def factory():
    return SVC(C=50.0, gamma="scale")


@pytest.fixture(scope="module")
def blobs():
    """Three well-separated Gaussian blobs in 3 features."""
    rng = np.random.default_rng(17)
    centers = {"FAST": (2.0, 0.0, 0.0),
               "TYP": (0.0, 2.0, 0.0),
               "SLOW": (0.0, 0.0, 2.0)}
    X, y = [], []
    for name, center in centers.items():
        X.append(rng.normal(center, 0.4, (60, 3)))
        y.extend([name] * 60)
    return np.vstack(X), np.asarray(y, dtype=object)


@pytest.fixture(scope="module")
def query(blobs):
    rng = np.random.default_rng(23)
    return rng.normal(0.7, 1.0, (80, 3))


def cold_prediction(X, y, query):
    """The unoptimized construction: K independent cold SVC fits."""
    scores = np.empty((query.shape[0], len(CLASSES)))
    for k, cls in enumerate(CLASSES):
        model = factory()
        model.fit(X, np.where(y == cls, 1.0, -1.0))
        scores[:, k] = model.decision_function(query)
    return scores.argmax(axis=1)


class TestEquivalenceToColdFits:
    def test_warm_started_bank_predicts_like_cold_fits(self, blobs,
                                                       query):
        X, y = blobs
        bank = OneVsRestSVCBank(CLASSES, model_factory=factory).fit(X, y)
        assert (bank.predict_index(query)
                == cold_prediction(X, y, query)).all()

    def test_shared_gram_view_changes_nothing_and_hits_cache(
            self, blobs, monkeypatch):
        X, y = blobs
        # The same warm-start chain, each fit building its own kernel.
        alone, alpha = [], None
        for cls in CLASSES:
            target = np.where(y == cls, 1.0, -1.0)
            model = factory()
            if alpha is None:
                model.fit(X, target)
            else:
                model.fit(X, target, alpha_init=alpha)
            alpha = model.alpha_
            alone.append(model)
        builds = []

        def counted(A, B, bb=None):
            builds.append(A.shape)
            return squared_distances(A, B, bb)

        monkeypatch.setattr(kernels, "squared_distances", counted)
        tel = Telemetry(run_id="bank")
        previous = set_telemetry(tel)
        try:
            bank = OneVsRestSVCBank(CLASSES, model_factory=factory).fit(X, y)
        finally:
            set_telemetry(previous)
        # One Gram build serves all K member fits ...
        assert builds == [X.shape]
        counters = {c["name"]: c["value"]
                    for c in tel.snapshot()["counters"]}
        assert counters["repro_learn_gram_view_hits_total"] == len(CLASSES)
        # ... bitwise the fits that build their own ...
        for model, own in zip(bank.models_, alone):
            assert model.alpha_.tobytes() == own.alpha_.tobytes()
            assert model.intercept_ == own.intercept_
        # ... and the Gram does not outlive the fit.
        for model in bank.models_:
            assert model._gram_view is None


class TestPredictionSurface:
    def test_predict_returns_class_identifiers(self, blobs):
        X, y = blobs
        bank = OneVsRestSVCBank(CLASSES, model_factory=factory).fit(X, y)
        predicted = bank.predict(X)
        assert set(predicted) <= set(CLASSES)
        # Blobs are well separated: training accuracy is essentially 1.
        assert np.mean(predicted == y) > 0.95

    def test_decision_matrix_shape_and_argmax(self, blobs, query):
        X, y = blobs
        bank = OneVsRestSVCBank(CLASSES, model_factory=factory).fit(X, y)
        scores = bank.decision_matrix(query)
        assert scores.shape == (query.shape[0], 3)
        assert (scores.argmax(axis=1) == bank.predict_index(query)).all()

    def test_margins_are_top1_minus_top2(self, blobs, query):
        X, y = blobs
        bank = OneVsRestSVCBank(CLASSES, model_factory=factory).fit(X, y)
        scores = bank.decision_matrix(query)
        top2 = np.sort(scores, axis=1)[:, -2:]
        assert bank.margins(query) == pytest.approx(
            top2[:, 1] - top2[:, 0])
        assert (bank.margins(query) >= 0.0).all()

    def test_deep_interior_devices_out_margin_boundary_ones(self, blobs):
        X, y = blobs
        bank = OneVsRestSVCBank(CLASSES, model_factory=factory).fit(X, y)
        interior = np.array([[2.0, 0.0, 0.0]])       # dead center FAST
        boundary = np.array([[1.0, 1.0, 0.0]])       # between FAST/TYP
        assert bank.margins(interior)[0] > bank.margins(boundary)[0]

    def test_single_row_input_accepted(self, blobs):
        X, y = blobs
        bank = OneVsRestSVCBank(CLASSES, model_factory=factory).fit(X, y)
        assert bank.predict_index(X[0]).shape == (1,)


class TestDegenerateClasses:
    def test_absent_class_never_predicted(self, blobs, query):
        X, y = blobs
        present = y != "SLOW"
        bank = OneVsRestSVCBank(CLASSES, model_factory=factory)
        bank.fit(X[present], y[present])
        predicted = set(bank.predict(query))
        assert "SLOW" not in predicted
        assert predicted <= {"FAST", "TYP"}

    def test_two_degenerate_members_tie_at_zero_margin(self):
        """inf - inf collapses to the documented zero margin."""
        X = np.array([[0.0], [1.0]])
        bank = OneVsRestSVCBank(("A", "B", "C"), model_factory=factory)
        bank.fit(X, np.array(["A", "A"], dtype=object))
        # B and C are both constant -inf; A is constant +inf: the
        # winner has no finite runner-up, so the margin is +inf.
        assert np.isinf(bank.margins(X)).all()
        # Flip: only degenerate members -> all -inf scores tie at 0.
        lonely = OneVsRestSVCBank(("B", "C"), model_factory=factory)
        lonely.fit(X, np.array(["B", "B"], dtype=object))
        scores = lonely.decision_matrix(X)
        assert np.isinf(scores).all()


class _WarmFitBreaks(SVC):
    """An SVC whose warm-started ``fit`` raises ``TypeError`` inside."""

    def fit(self, X, y, alpha_init=None):
        if alpha_init is not None:
            raise TypeError("bug inside the warm fit")
        return super().fit(X, y)


class TestWarmStartDecision:
    def test_type_error_inside_warm_fit_propagates(self, blobs):
        X, y = blobs
        bank = OneVsRestSVCBank(CLASSES,
                                model_factory=lambda: _WarmFitBreaks(
                                    C=50.0, gamma="scale"))
        with pytest.raises(TypeError, match="inside the warm fit"):
            bank.fit(X, y)

    def test_fit_without_alpha_init_runs_cold_once(self, blobs, query):
        class ColdOnly(SVC):
            calls = 0

            def fit(self, X, y):
                ColdOnly.calls += 1
                return super().fit(X, y)

        X, y = blobs
        bank = OneVsRestSVCBank(
            CLASSES, model_factory=lambda: ColdOnly(C=50.0, gamma="scale"))
        bank.fit(X, y)
        assert ColdOnly.calls == len(CLASSES)
        assert (bank.predict_index(query)
                == cold_prediction(X, y, query)).all()


class TestValidation:
    def test_fewer_than_two_classes_rejected(self):
        with pytest.raises(LearningError, match="at least 2"):
            OneVsRestSVCBank(("only",))

    def test_duplicate_classes_rejected(self):
        with pytest.raises(LearningError, match="unique"):
            OneVsRestSVCBank(("A", "A"))

    def test_unknown_labels_rejected(self, blobs):
        X, y = blobs
        bank = OneVsRestSVCBank(("FAST", "TYP"), model_factory=factory)
        with pytest.raises(LearningError, match="not among the bank"):
            bank.fit(X, y)          # y also holds "SLOW"

    def test_empty_training_set_rejected(self):
        bank = OneVsRestSVCBank(CLASSES, model_factory=factory)
        with pytest.raises(LearningError, match="empty"):
            bank.fit(np.empty((0, 3)), np.empty(0))

    def test_shape_mismatch_rejected(self, blobs):
        X, y = blobs
        bank = OneVsRestSVCBank(CLASSES, model_factory=factory)
        with pytest.raises(LearningError, match="matching"):
            bank.fit(X, y[:-5])

    def test_predict_before_fit_rejected(self):
        bank = OneVsRestSVCBank(CLASSES, model_factory=factory)
        with pytest.raises(LearningError, match="not fitted"):
            bank.predict_index(np.zeros((2, 3)))


class TestPickling:
    def test_round_trip_predicts_identically(self, blobs, query):
        X, y = blobs
        bank = OneVsRestSVCBank(CLASSES, model_factory=factory).fit(X, y)
        clone = pickle.loads(pickle.dumps(bank))
        assert clone.classes == bank.classes
        assert (clone.predict_index(query)
                == bank.predict_index(query)).all()
        # Process-local Grams never travel.
        for model in clone.models_:
            assert model._gram_view is None

    def test_unpickled_bank_can_refit(self, blobs):
        """The default factory restored on load keeps fit() working."""
        X, y = blobs
        bank = OneVsRestSVCBank(CLASSES, model_factory=factory).fit(X, y)
        clone = pickle.loads(pickle.dumps(bank))
        clone.fit(X[:60], y[:60])
        assert clone.n_features_ == 3
