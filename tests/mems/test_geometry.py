"""Accelerometer geometry tests."""

import numpy as np
import pytest

from repro.errors import CircuitError
from repro.mems import AccelerometerGeometry


class TestGeometry:
    def test_defaults_validate(self):
        AccelerometerGeometry().validate()

    def test_negative_dimension_rejected(self):
        geo = AccelerometerGeometry(beam_width=-1e-6)
        with pytest.raises(CircuitError, match="positive"):
            geo.validate()

    def test_angle_may_be_zero_or_negative(self):
        AccelerometerGeometry(spring_angle_deg=0.0).validate()
        AccelerometerGeometry(spring_angle_deg=-2.0).validate()

    def test_beam_aspect_sanity(self):
        geo = AccelerometerGeometry(beam_width=300e-6)
        with pytest.raises(CircuitError, match="below beam length"):
            geo.validate()

    def test_perturbed_respects_spreads(self):
        nominal = AccelerometerGeometry()
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = nominal.perturbed(rng, relative_spread=0.05,
                                  angle_sigma_deg=0.5)
            for name in AccelerometerGeometry.VARIED_RELATIVE:
                ratio = getattr(p, name) / getattr(nominal, name)
                assert 0.95 <= ratio <= 1.05
            assert abs(p.spring_angle_deg) < 3.0  # ~6 sigma

    def test_cte_not_varied(self):
        """Material CTE stays at nominal (paper varies geometry only)."""
        nominal = AccelerometerGeometry()
        rng = np.random.default_rng(1)
        p = nominal.perturbed(rng)
        assert p.cte_mismatch == nominal.cte_mismatch

    def test_perturbed_deterministic(self):
        nominal = AccelerometerGeometry()
        a = nominal.perturbed(np.random.default_rng(9))
        b = nominal.perturbed(np.random.default_rng(9))
        assert a == b
