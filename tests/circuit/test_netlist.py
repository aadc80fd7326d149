"""Tests for the Circuit netlist container."""

import pytest

from repro.circuit import Circuit
from repro.errors import CircuitError


def test_ground_aliases_map_to_minus_one():
    ckt = Circuit()
    for name in ("0", "gnd", "GND", "ground"):
        assert ckt.node_id(name) == -1
    assert ckt.n_nodes == 0


def test_node_ids_are_stable_and_dense():
    ckt = Circuit()
    a = ckt.node_id("a")
    b = ckt.node_id("b")
    assert (a, b) == (0, 1)
    assert ckt.node_id("a") == 0


def test_duplicate_device_name_rejected():
    ckt = Circuit("dup")
    ckt.resistor("R1", "a", "0", 1e3)
    with pytest.raises(CircuitError, match="duplicate"):
        ckt.resistor("R1", "b", "0", 1e3)


def test_device_lookup_and_membership():
    ckt = Circuit()
    r = ckt.resistor("R1", "a", "b", 50.0)
    assert ckt.device("R1") is r
    assert "R1" in ckt
    assert "R2" not in ckt
    with pytest.raises(CircuitError, match="no device"):
        ckt.device("R2")


def test_compile_assigns_aux_indices_in_order():
    ckt = Circuit()
    ckt.voltage_source("V1", "a", "0", dc=1.0)
    ckt.resistor("R1", "a", "b", 1.0)
    ckt.inductor("L1", "b", "0", 1.0)
    ckt.compile()
    # Two nodes, then aux unknowns in insertion order.
    assert ckt.n_unknowns == 4
    assert ckt.device("V1").aux == 2
    assert ckt.device("L1").aux == 3


def test_compile_is_idempotent():
    ckt = Circuit()
    ckt.resistor("R1", "a", "0", 1.0)
    assert ckt.n_unknowns == ckt.n_unknowns


def test_adding_device_invalidates_compilation():
    ckt = Circuit()
    ckt.resistor("R1", "a", "0", 1.0)
    assert ckt.n_unknowns == 1
    ckt.voltage_source("V1", "a", "0", dc=1.0)
    assert ckt.n_unknowns == 2


def test_partition_separates_device_kinds():
    ckt = Circuit()
    ckt.resistor("R1", "a", "0", 1.0)
    ckt.capacitor("C1", "a", "0", 1e-9)
    ckt.mosfet("M1", "a", "b", "0")
    linear, nonlinear, reactive = ckt.partition()
    assert {d.name for d in nonlinear} == {"M1"}
    assert {d.name for d in reactive} == {"C1"}
    assert {d.name for d in linear} == {"R1", "C1"}


def test_negative_resistance_rejected():
    ckt = Circuit()
    with pytest.raises(CircuitError, match="positive"):
        ckt.resistor("R1", "a", "0", -5.0)
    with pytest.raises(CircuitError, match="positive"):
        ckt.capacitor("C1", "a", "0", 0.0)
    with pytest.raises(CircuitError, match="positive"):
        ckt.inductor("L1", "a", "0", -1e-9)
