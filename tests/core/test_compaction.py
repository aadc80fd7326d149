"""Greedy test-set compaction loop tests (paper Fig. 2)."""

import numpy as np
import pytest

from repro.core.compaction import TestCompactor as Compactor, \
    speculation_plan
from repro.core.grid import GridCompactor
from repro.core.metrics import GUARD
from repro.core.ordering import RandomOrder
from repro.errors import CompactionError
from repro.learn import SVC
from repro.learn.kernels import SharedGram

from tests.synthetic import make_synthetic_dataset


def _fixed_factory():
    return SVC(C=50.0, gamma="scale")


def _compactor(**kw):
    kw.setdefault("model_factory", _fixed_factory)
    kw.setdefault("tolerance", 0.02)
    kw.setdefault("guard_band", 0.05)
    return Compactor(**kw)


@pytest.fixture(scope="module")
def small_data():
    train = make_synthetic_dataset(n=150, seed=1)
    test = make_synthetic_dataset(n=80, seed=2)
    return train, test


def _same_steps(a, b):
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        assert sa.test_name == sb.test_name
        assert sa.eliminated == sb.eliminated
        assert sa.report == sb.report
        assert sa.eliminated_so_far == sb.eliminated_so_far


class TestGreedyLoop:
    def test_redundant_specs_eliminated(self, synthetic_train,
                                        synthetic_test):
        """6 specs from 3 latent dims: at least one is redundant."""
        result = _compactor().run(synthetic_train, synthetic_test)
        assert len(result.eliminated) >= 1
        assert set(result.kept) | set(result.eliminated) == \
            set(synthetic_train.names)
        assert set(result.kept) & set(result.eliminated) == set()

    def test_final_error_within_tolerance(self, synthetic_train,
                                          synthetic_test):
        result = _compactor().run(synthetic_train, synthetic_test)
        assert result.final_report.error_rate <= 0.02 + 1e-9

    def test_zero_tolerance_demands_perfection(self, noisy_train,
                                               noisy_test):
        """Noisy redundancy + zero tolerance: very little elimination."""
        strict = _compactor(tolerance=0.0).run(noisy_train, noisy_test)
        loose = _compactor(tolerance=0.10).run(noisy_train, noisy_test)
        assert len(strict.eliminated) <= len(loose.eliminated)

    def test_steps_recorded_for_every_examined_test(self, synthetic_train,
                                                    synthetic_test):
        result = _compactor().run(synthetic_train, synthetic_test)
        examined = [s.test_name for s in result.steps]
        assert examined == list(result.order)[:len(examined)]
        for step in result.steps:
            assert step.report.n_total == len(synthetic_test)
            if step.eliminated:
                assert step.test_name in step.eliminated_so_far

    def test_rejected_test_restored(self, noisy_train, noisy_test):
        result = _compactor(tolerance=0.005).run(noisy_train, noisy_test)
        for step in result.steps:
            if not step.eliminated:
                assert step.test_name in result.kept

    def test_order_strategy_used(self, synthetic_train, synthetic_test):
        order = RandomOrder(seed=3)
        result = _compactor(order=order).run(synthetic_train,
                                             synthetic_test)
        assert result.order == order.order(synthetic_train)

    def test_explicit_order_list(self, synthetic_train, synthetic_test):
        names = list(reversed(synthetic_train.names))
        result = _compactor(order=names).run(synthetic_train,
                                             synthetic_test)
        assert result.order == tuple(names)

    def test_min_kept_respected(self, synthetic_train, synthetic_test):
        result = _compactor(tolerance=1.0, min_kept=4).run(
            synthetic_train, synthetic_test)
        assert len(result.kept) >= 4

    def test_full_tolerance_eliminates_down_to_min(self, synthetic_train,
                                                   synthetic_test):
        result = _compactor(tolerance=1.0, min_kept=1).run(
            synthetic_train, synthetic_test)
        assert len(result.kept) == 1

    def test_grid_compaction_variant_still_works(self, synthetic_train,
                                                 synthetic_test):
        result = _compactor(grid_compactor=GridCompactor(6)).run(
            synthetic_train, synthetic_test)
        assert result.final_report.error_rate <= 0.05

    def test_count_guard_as_error_is_stricter(self, synthetic_train,
                                              synthetic_test):
        plain = _compactor(tolerance=0.02).run(synthetic_train,
                                               synthetic_test)
        strict = _compactor(tolerance=0.02, count_guard_as_error=True).run(
            synthetic_train, synthetic_test)
        assert len(strict.eliminated) <= len(plain.eliminated)

    def test_history_table_shape(self, synthetic_train, synthetic_test):
        result = _compactor().run(synthetic_train, synthetic_test)
        rows = result.history_table()
        assert len(rows) == len(result.steps)
        for row in rows:
            assert 0.0 <= row["yield_loss_pct"] <= 100.0
            assert 0.0 <= row["guard_pct"] <= 100.0

    def test_summary_mentions_counts(self, synthetic_train,
                                     synthetic_test):
        result = _compactor().run(synthetic_train, synthetic_test)
        text = result.summary()
        assert "eliminated" in text and "kept" in text


class TestEvaluateSubset:
    def test_empty_elimination_is_error_free(self, synthetic_train,
                                             synthetic_test):
        model, report = _compactor().evaluate_subset(
            synthetic_train, synthetic_test, [])
        assert report.error_rate == 0.0

    def test_block_elimination(self, synthetic_train, synthetic_test):
        model, report = _compactor().evaluate_subset(
            synthetic_train, synthetic_test, ["s4", "s5"])
        assert model.feature_names == ("s0", "s1", "s2", "s3")
        assert report.n_total == len(synthetic_test)

    def test_cannot_eliminate_everything(self, synthetic_train,
                                         synthetic_test):
        with pytest.raises(CompactionError):
            _compactor().evaluate_subset(
                synthetic_train, synthetic_test, list(synthetic_train.names))


class TestValidation:
    def test_mismatched_specs_rejected(self, synthetic_train):
        other = make_synthetic_dataset(n=50, n_specs=5)
        with pytest.raises(CompactionError, match="share"):
            _compactor().run(synthetic_train, other)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(CompactionError):
            Compactor(tolerance=-0.1)
        with pytest.raises(CompactionError):
            Compactor(tolerance=float("nan"))

    @pytest.mark.parametrize("guard_band", [
        float("nan"), -0.05, {"s0": float("nan")}, {"s0": -0.05}])
    def test_bad_guard_band_rejected_at_construction(self, guard_band):
        with pytest.raises(CompactionError, match="non-negative"):
            Compactor(guard_band=guard_band)

    def test_min_kept_validated(self):
        with pytest.raises(CompactionError):
            Compactor(min_kept=0)


class TestParallelEquivalence:
    def test_parallel_identical_to_serial(self, small_data):
        train, test = small_data
        serial = _compactor(n_jobs=1).run(train, test)
        parallel = _compactor(n_jobs=2).run(train, test)
        assert parallel.kept == serial.kept
        assert parallel.eliminated == serial.eliminated
        assert parallel.order == serial.order
        assert parallel.final_report == serial.final_report
        _same_steps(serial, parallel)

    def test_parallel_model_predicts_identically(self, small_data):
        train, test = small_data
        serial = _compactor(n_jobs=1).run(train, test)
        parallel = _compactor(n_jobs=2).run(train, test)
        assert np.array_equal(parallel.model.predict_dataset(test),
                              serial.model.predict_dataset(test))

    def test_speculation_stats_recorded(self, small_data):
        train, test = small_data
        result = _compactor(n_jobs=2).run(train, test)
        spec = result.stats["speculation"]
        assert spec["consumed"] == len(result.steps)
        assert spec["submitted"] >= spec["consumed"]


class TestRunMany:
    def _pairs(self, k=3):
        pairs = []
        for lot in range(k):
            pairs.append((
                make_synthetic_dataset(n=120, seed=10 + 2 * lot,
                                       noise=0.02 * lot),
                make_synthetic_dataset(n=70, seed=11 + 2 * lot,
                                       noise=0.02 * lot)))
        return pairs

    def test_batch_preserves_input_order(self):
        pairs = self._pairs()
        results = _compactor(n_jobs=1).run_many(pairs)
        assert len(results) == len(pairs)
        for result, (train, test) in zip(results, pairs):
            # Each result must belong to its own pair: the final model
            # was evaluated on exactly that pair's held-out set.
            assert result.final_report.n_total == len(test)
            assert set(result.kept) | set(result.eliminated) == \
                set(train.names)

    def test_parallel_batch_matches_serial_batch(self):
        pairs = self._pairs()
        serial = _compactor(n_jobs=1).run_many(pairs)
        parallel = _compactor(n_jobs=2).run_many(pairs)
        assert [r.eliminated for r in serial] == \
            [r.eliminated for r in parallel]
        assert [r.final_report for r in serial] == \
            [r.final_report for r in parallel]
        for a, b in zip(serial, parallel):
            _same_steps(a, b)

    def test_bad_pairs_rejected(self, small_data):
        train, test = small_data
        with pytest.raises(CompactionError):
            _compactor().run_many([(train, test, test)])


class TestSpeculationPlan:
    ORDER = ("a", "b", "c", "d")

    def test_head_comes_first(self):
        plan = speculation_plan((), 0, self.ORDER, 6, 4)
        assert plan[0] == ("a",)

    def test_both_branches_covered(self):
        plan = speculation_plan((), 0, self.ORDER, 3, 4)
        # Reject branch: ("b",); accept branch: ("a", "b").
        assert ("b",) in plan
        assert ("a", "b") in plan

    def test_respects_elimination_floor(self):
        plan = speculation_plan(("a",), 1, self.ORDER, 10, 2)
        # Only one more elimination allowed: no depth-2 candidates.
        assert all(len(c) <= 2 for c in plan)

    def test_exhausted_order_produces_nothing(self):
        assert speculation_plan((), 4, self.ORDER, 5, 4) == []

    def test_no_duplicates(self):
        plan = speculation_plan((), 0, self.ORDER, 16, 4)
        assert len(plan) == len(set(plan))


class _FailingFactory:
    """Fixed SVC factory whose ``fail_at``-th model raises in ``fit``."""

    def __init__(self, fail_at=None):
        self.fail_at = fail_at
        self.made = []

    def __call__(self):
        model = _fixed_factory()
        self.made.append(model)
        if len(self.made) == self.fail_at:
            def fail(*args, **kwargs):
                raise RuntimeError("injected fit failure")
            model.fit = fail
        return model


def _attached(model):
    return model._gram_view is not None


class TestGramCacheLifetime:
    def test_failed_run_leaves_no_cache_on_the_compactor(self, small_data):
        train, test = small_data
        # Each guard-band pair shares one Gram for its own fit ...
        factory = _FailingFactory()
        result = _compactor(model_factory=factory).run(train, test)
        assert result.eliminated and len(factory.made) >= 2
        # ... and no fitted model keeps it, kept candidates included.
        assert not any(_attached(model) for model in factory.made)
        factory = _FailingFactory(fail_at=5)
        compactor = _compactor(model_factory=factory)
        with pytest.raises(RuntimeError, match="injected"):
            compactor.run(train, test)
        # A failed fit drops it too, and the compactor never holds one.
        assert len(factory.made) == 5
        assert not any(_attached(model) for model in factory.made)
        assert not any(isinstance(value, SharedGram)
                       for value in vars(compactor).values())
