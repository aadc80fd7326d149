"""Monte-Carlo generation loop tests."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, DatasetError
from repro.process.montecarlo import GenerationReport, generate_dataset

from tests.synthetic import SLOT_PATHS, SyntheticDut


class FlakyDut(SyntheticDut):
    """A DUT whose simulation fails for a fraction of instances."""

    def __init__(self, fail_every=5, **kw):
        super().__init__(**kw)
        self._counter = 0
        self.fail_every = fail_every

    def measure(self, params):
        self._counter += 1
        if self._counter % self.fail_every == 0:
            raise ConvergenceError("simulated convergence failure")
        return super().measure(params)


class NonFiniteDut(SyntheticDut):
    """A DUT that occasionally produces NaN measurements."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self._counter = 0

    def measure(self, params):
        self._counter += 1
        values = super().measure(params)
        if self._counter % 7 == 0:
            values = values.copy()
            values[0] = np.nan
        return values


class TestGenerateDataset:
    def test_shape_and_determinism(self):
        dut = SyntheticDut()
        a = generate_dataset(dut, 50, seed=42)
        b = generate_dataset(dut, 50, seed=42)
        assert len(a) == 50
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        dut = SyntheticDut()
        a = generate_dataset(dut, 20, seed=1)
        b = generate_dataset(dut, 20, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_resample_on_failure(self):
        dut = FlakyDut(fail_every=5)
        ds, report = generate_dataset(dut, 40, seed=0,
                                      return_report=True)
        assert len(ds) == 40
        assert report.n_failed > 0
        assert report.n_simulated == 40 + report.n_failed

    def test_raise_mode_propagates(self):
        dut = FlakyDut(fail_every=3)
        with pytest.raises(ConvergenceError):
            generate_dataset(dut, 40, seed=0, on_error="raise")

    def test_non_finite_measurements_resampled(self):
        dut = NonFiniteDut()
        ds = generate_dataset(dut, 30, seed=0)
        assert np.all(np.isfinite(ds.values))

    def test_failure_budget_enforced(self):
        dut = FlakyDut(fail_every=2)  # 50 % failure rate
        with pytest.raises(DatasetError, match="aborted"):
            generate_dataset(dut, 50, seed=0, max_failures=5)

    @pytest.mark.parametrize("path", sorted(SLOT_PATHS))
    def test_budget_aborts_at_exactly_max_failures(self, path):
        """Regression: max_failures=3 used to abort only at failure 4."""
        dut = SLOT_PATHS[path](FlakyDut(fail_every=2))
        with pytest.raises(DatasetError, match="3 simulation failures"):
            generate_dataset(dut, 50, seed=0, max_failures=3)

    def test_input_validation(self):
        dut = SyntheticDut()
        with pytest.raises(DatasetError):
            generate_dataset(dut, 0, seed=0)
        with pytest.raises(DatasetError):
            generate_dataset(dut, 10, seed=0, on_error="ignore")

    def test_labels_match_specifications(self):
        dut = SyntheticDut()
        ds = generate_dataset(dut, 60, seed=3)
        expected = dut.specifications.labels(ds.values)
        assert np.array_equal(ds.labels, expected)


class TestGenerationReport:
    def test_failure_messages_bounded(self):
        """The stored message list is capped; the count never is."""
        report = GenerationReport(n_requested=10)
        for i in range(GenerationReport.MAX_STORED_FAILURES + 25):
            report.record_failure("failure {}".format(i))
        assert report.n_failed == GenerationReport.MAX_STORED_FAILURES + 25
        assert len(report.failures) == GenerationReport.MAX_STORED_FAILURES
        # The newest messages survive.
        assert report.failures[-1] == "failure {}".format(
            GenerationReport.MAX_STORED_FAILURES + 24)
        assert report.failures[0] == "failure 25"

    def test_generation_keeps_report_bounded(self):
        dut = FlakyDut(fail_every=2)
        cap = GenerationReport.MAX_STORED_FAILURES
        ds, report = generate_dataset(dut, 150, seed=0,
                                      max_failures=10_000,
                                      return_report=True)
        assert report.n_failed > cap
        assert len(report.failures) == cap


class TestThroughputReporting:
    """elapsed_s / instances_per_minute: one figure for every surface."""

    def test_elapsed_defaults_to_zero(self):
        report = GenerationReport(n_requested=10)
        assert report.elapsed_s == 0.0
        assert report.instances_per_minute == 0.0

    def test_rate_is_rows_per_minute(self):
        report = GenerationReport(n_requested=120, elapsed_s=30.0)
        assert report.instances_per_minute == 240.0

    def test_generation_stamps_elapsed(self):
        _, report = generate_dataset(SyntheticDut(), 25, seed=0,
                                     return_report=True)
        assert report.elapsed_s > 0.0
        assert report.instances_per_minute == pytest.approx(
            60.0 * 25 / report.elapsed_s)

    def test_parallel_generation_stamps_elapsed(self):
        _, report = generate_dataset(SyntheticDut(), 25, seed=0,
                                     n_jobs=2, return_report=True)
        assert report.elapsed_s > 0.0
        assert report.instances_per_minute > 0.0
