"""Op-amp design / parameter tests."""

import numpy as np
import pytest

from repro.circuit import Circuit, solve_dc
from repro.errors import CircuitError
from repro.opamp import OpAmpParameters, build_opamp


class TestParameters:
    def test_defaults_validate(self):
        OpAmpParameters().validate()

    def test_negative_value_rejected(self):
        params = OpAmpParameters(cc=-1e-12)
        with pytest.raises(CircuitError, match="positive"):
            params.validate()

    def test_perturbed_within_spread(self):
        nominal = OpAmpParameters()
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = nominal.perturbed(rng, relative_spread=0.1)
            for name in OpAmpParameters.VARIED:
                ratio = getattr(p, name) / getattr(nominal, name)
                assert 0.9 <= ratio <= 1.1
            # Testbench parameters are not varied.
            assert p.vdd == nominal.vdd
            assert p.cl == nominal.cl

    def test_perturbed_deterministic_per_seed(self):
        nominal = OpAmpParameters()
        a = nominal.perturbed(np.random.default_rng(5))
        b = nominal.perturbed(np.random.default_rng(5))
        assert a == b


class TestNetlist:
    def test_build_adds_expected_devices(self):
        ckt = Circuit()
        ckt.voltage_source("Vdd", "vdd", "0", dc=5.0)
        ckt.voltage_source("Vin", "inp", "0", dc=2.5)
        build_opamp(ckt, OpAmpParameters(), "inp", "out", "out", "vdd")
        for name in ("M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8",
                     "Rbias", "Rz", "Cc"):
            assert name in ckt

    def test_prefix_allows_two_amplifiers(self):
        ckt = Circuit()
        ckt.voltage_source("Vdd", "vdd", "0", dc=5.0)
        params = OpAmpParameters()
        build_opamp(ckt, params, "a_in", "a_out", "a_out", "vdd",
                    prefix="a_")
        build_opamp(ckt, params, "b_in", "b_out", "b_out", "vdd",
                    prefix="b_")
        assert "a_M1" in ckt and "b_M1" in ckt

    def test_unity_gain_bias_point_all_saturated(self):
        """In unity feedback every transistor sits in saturation."""
        ckt = Circuit()
        params = OpAmpParameters()
        ckt.voltage_source("Vdd", "vdd", "0", dc=params.vdd)
        ckt.voltage_source("Vin", "inp", "0", dc=2.5)
        build_opamp(ckt, params, "inp", "out", "out", "vdd")
        op = solve_dc(ckt)
        for name in ("M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8"):
            assert ckt.device(name).operating_region(op.x) == "saturation"
        # The follower output tracks the input closely.
        assert op.v("out") == pytest.approx(2.5, abs=0.01)
