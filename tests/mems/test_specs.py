"""MEMS specification-measurement tests."""

import numpy as np
import pytest

from repro.errors import AnalysisError, DatasetError
from repro.mems import (
    MEMS_SPECIFICATIONS,
    TEMPERATURES,
    AccelerometerBench,
    AccelerometerGeometry,
    measure_accelerometer,
    soak_cost_model,
)
# Aliased so pytest does not collect them as test functions.
from repro.mems import test_name as spec_test_name
from repro.mems import tests_at_temperature as temperature_block
from repro.mems import mechanics as M
from repro.mems import specs as mems_specs
from repro.mems.specs import SWEEP_FREQUENCIES, fit_second_order
from repro.process.montecarlo import generate_dataset

from tests.synthetic import SLOT_PATHS


class TestNaming:
    def test_twelve_tests_total(self):
        assert len(MEMS_SPECIFICATIONS) == 12

    def test_test_name_format(self):
        assert spec_test_name("peak_freq", -40.0) == "peak_freq@-40C"

    def test_temperature_blocks_partition_the_set(self):
        all_names = set()
        for t in TEMPERATURES:
            block = temperature_block(t)
            assert len(block) == 4
            all_names.update(block)
        assert all_names == set(MEMS_SPECIFICATIONS.names)


class TestSoakCostModel:
    def test_dropping_hot_and_cold_tests_cuts_cost_by_29_of_32(self):
        """1 unit per test plus soaks of 25 / 2 / 25: the room-only
        program costs 6 of 64 units, the reduction lot-mems reports."""
        model = soak_cost_model()
        assert model.full_cost() == 64.0
        assert model.reduction(temperature_block(27)) == 0.90625


class TestSecondOrderFit:
    def test_recovers_known_parameters(self):
        a, f0, q = 2e-6, 5e3, 1.8
        freqs = SWEEP_FREQUENCIES
        u = (freqs / f0) ** 2
        resp = a / np.sqrt((1 - u) ** 2 + u / q ** 2)
        a_fit, f0_fit, q_fit = fit_second_order(freqs, resp)
        assert a_fit == pytest.approx(a, rel=1e-6)
        assert f0_fit == pytest.approx(f0, rel=1e-6)
        assert q_fit == pytest.approx(q, rel=1e-6)

    def test_overdamped_fit_still_works(self):
        a, f0, q = 1e-6, 5e3, 0.5
        freqs = SWEEP_FREQUENCIES
        u = (freqs / f0) ** 2
        resp = a / np.sqrt((1 - u) ** 2 + u / q ** 2)
        _, f0_fit, q_fit = fit_second_order(freqs, resp)
        assert q_fit == pytest.approx(0.5, rel=1e-4)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            fit_second_order([1, 2, 3], [1, 2, 3, 4])
        with pytest.raises(AnalysisError):
            fit_second_order(np.arange(1, 7), np.zeros(6))
        with pytest.raises(AnalysisError):
            fit_second_order(np.arange(1, 7), [1, 2, np.inf, 4, 5, 6])


@pytest.mark.filterwarnings("ignore:Number of calls:RuntimeWarning")
class TestNonConvergedFit:
    """A fit out of evaluations is a typed failure, not a spec value."""

    def test_fit_raises(self, monkeypatch):
        monkeypatch.setattr(mems_specs, "_MAX_NFEV", 1)
        u = (SWEEP_FREQUENCIES / 5e3) ** 2
        resp = 2e-6 / np.sqrt((1 - u) ** 2 + u / 1.8 ** 2)
        with pytest.raises(AnalysisError, match="did not converge"):
            fit_second_order(SWEEP_FREQUENCIES, resp)

    @pytest.mark.parametrize("path", ["scalar", "batched"])
    def test_generation_aborts_through_the_typed_path(self, monkeypatch,
                                                      path):
        monkeypatch.setattr(mems_specs, "_MAX_NFEV", 1)
        bench = AccelerometerBench()
        with pytest.raises(DatasetError, match="3 simulation failures"):
            generate_dataset(SLOT_PATHS[path](bench), 2, seed=0,
                             max_failures=3)
        rows = bench.measure_batch([AccelerometerGeometry()])
        assert isinstance(rows[0], AnalysisError)


class TestMeasurement:
    def test_nominal_passes_all_ranges(self):
        values = measure_accelerometer()
        assert set(values) == set(MEMS_SPECIFICATIONS.names)
        for spec in MEMS_SPECIFICATIONS:
            assert spec.contains(values[spec.name])

    def test_measured_q_matches_analytic(self):
        g = AccelerometerGeometry()
        values = measure_accelerometer(g)
        for t in TEMPERATURES:
            q_measured = values[spec_test_name("quality_factor", t)]
            q_analytic = M.quality_factor_analytic(g, t)
            assert q_measured == pytest.approx(q_analytic, rel=0.02)

    def test_temperature_ordering_of_q(self):
        values = measure_accelerometer()
        assert (values["quality_factor@80C"]
                < values["quality_factor@27C"]
                < values["quality_factor@-40C"])

    def test_scale_factor_drops_when_hot(self):
        """Hot die stiffens -> less displacement per g."""
        values = measure_accelerometer()
        assert (values["scale_factor@80C"]
                < values["scale_factor@27C"]
                < values["scale_factor@-40C"])

    def test_bench_protocol(self):
        bench = AccelerometerBench()
        rng = np.random.default_rng(0)
        geo = bench.sample_parameters(rng)
        row = bench.measure(geo)
        assert row.shape == (12,)
        assert np.all(np.isfinite(row))

    def test_dataset_generation_and_yield(self):
        bench = AccelerometerBench()
        ds = bench.generate_dataset(60, seed=11)
        assert len(ds) == 60
        assert 0.4 < ds.yield_fraction <= 1.0
