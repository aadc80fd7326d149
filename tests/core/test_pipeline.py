"""High-level pipeline facade tests."""

import numpy as np
import pytest

from repro.core.pipeline import CompactionPipeline, \
    compact_specification_tests
from repro.errors import CompactionError
from repro.learn import SVC

from tests.synthetic import make_synthetic_dataset


def _fixed_factory():
    return SVC(C=50.0, gamma="scale")


class TestCompactionPipeline:
    def test_run_matches_direct_compactor(self, synthetic_train,
                                          synthetic_test):
        pipeline = CompactionPipeline(tolerance=0.02, guard_band=0.05,
                                      model_factory=_fixed_factory)
        result = pipeline.run(synthetic_train, synthetic_test)
        direct = compact_specification_tests(
            synthetic_train, synthetic_test, tolerance=0.02,
            guard_band=0.05, model_factory=_fixed_factory)
        assert result.eliminated == direct.eliminated
        assert result.kept == direct.kept

    def test_grid_resolution_configures_compactor(self, synthetic_train,
                                                  synthetic_test):
        pipeline = CompactionPipeline(tolerance=0.05, guard_band=0.05,
                                      grid_resolution=6,
                                      model_factory=_fixed_factory)
        assert pipeline.compactor.grid_compactor is not None
        assert pipeline.compactor.grid_compactor.resolution == 6
        result = pipeline.run(synthetic_train, synthetic_test)
        assert result.final_report.error_rate <= 0.05 + 1e-9

    def test_evaluate_elimination_passthrough(self, synthetic_train,
                                              synthetic_test):
        pipeline = CompactionPipeline(guard_band=0.05,
                                      model_factory=_fixed_factory)
        model, report = pipeline.evaluate_elimination(
            synthetic_train, synthetic_test, ["s5"])
        assert "s5" not in model.feature_names
        assert report.n_total == len(synthetic_test)

    def test_default_is_the_serial_run_of_the_parallel_loop(self):
        """``CompactionPipeline()`` without ``n_jobs`` runs the cached
        loop, bitwise the ``n_jobs=2`` speculative run."""
        train = make_synthetic_dataset(n=150, seed=1)
        test = make_synthetic_dataset(n=80, seed=2)
        serial = CompactionPipeline(
            tolerance=0.02, model_factory=_fixed_factory).run(train, test)
        parallel = CompactionPipeline(
            tolerance=0.02, model_factory=_fixed_factory,
            n_jobs=2).run(train, test)
        assert [(s.test_name, s.eliminated, s.report, s.eliminated_so_far)
                for s in serial.steps] == \
            [(s.test_name, s.eliminated, s.report, s.eliminated_so_far)
             for s in parallel.steps]
        assert serial.final_report == parallel.final_report
        assert serial.eliminated and serial.eliminated == parallel.eliminated
        X = test.normalized_values(serial.kept)
        for a, b in ((serial.model._strict, parallel.model._strict),
                     (serial.model._loose, parallel.model._loose)):
            assert np.array_equal(a.decision_function(X),
                                  b.decision_function(X))


class TestFunctionEntryPoint:
    def test_empty_datasets_rejected(self, synthetic_train):
        empty = make_synthetic_dataset(n=1).subset([])
        with pytest.raises(CompactionError, match="non-empty"):
            compact_specification_tests(empty, synthetic_train)
        with pytest.raises(CompactionError, match="non-empty"):
            compact_specification_tests(synthetic_train, empty)

    def test_result_is_self_consistent(self, synthetic_train,
                                       synthetic_test):
        result = compact_specification_tests(
            synthetic_train, synthetic_test, tolerance=0.02,
            model_factory=_fixed_factory)
        assert result.tolerance == 0.02
        assert result.model.feature_names == result.kept
        assert set(result.model.eliminated_names) == set(result.eliminated)
