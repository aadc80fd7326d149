"""A from-scratch analog circuit simulator based on modified nodal analysis.

This subpackage is the substrate that stands in for the commercial
simulator (Cadence Virtuoso Spectre) used in the paper.  It provides:

* a netlist container (:class:`~repro.circuit.netlist.Circuit`),
* linear and nonlinear device models
  (:mod:`repro.circuit.devices`: resistors, capacitors, inductors,
  independent and controlled sources, diodes, level-1 MOSFETs),
* a DC operating-point solver with Newton-Raphson iteration plus gmin
  and source stepping (:func:`~repro.circuit.dc.solve_dc`),
* small-signal AC analysis (:func:`~repro.circuit.ac.solve_ac`),
* transient analysis with trapezoidal or backward-Euler integration
  (:func:`~repro.circuit.transient.solve_transient`),
* waveform/spectrum measurement helpers (:mod:`repro.circuit.analysis`),
* a batched simulation kernel that stacks many same-topology instances
  into single LAPACK solves (:mod:`repro.circuit.batch`), the engine
  behind population-level Monte-Carlo generation.

Example -- a low-pass RC filter::

    from repro.circuit import Circuit, solve_ac, solve_dc
    import numpy as np

    ckt = Circuit("rc")
    ckt.voltage_source("Vin", "in", "0", dc=1.0, ac=1.0)
    ckt.resistor("R1", "in", "out", 1e3)
    ckt.capacitor("C1", "out", "0", 1e-6)
    op = solve_dc(ckt)
    ac = solve_ac(ckt, np.logspace(0, 5, 101), op)
    gain = np.abs(ac.v("out"))
"""

from repro.circuit.netlist import Circuit
from repro.circuit.devices import (
    Capacitor,
    CurrentSource,
    Diode,
    Inductor,
    Mosfet,
    Pulse,
    Pwl,
    Resistor,
    Sine,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuit.dc import solve_dc, DCResult
from repro.circuit.ac import solve_ac, ACResult
from repro.circuit.transient import solve_transient, TransientResult
from repro.circuit.sweep import sweep_dc, DCSweepResult
from repro.circuit.batch import (
    BatchACResult,
    BatchDCResult,
    BatchTransientResult,
    CircuitBatch,
)

__all__ = [
    "Circuit",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "Vcvs",
    "Vccs",
    "Diode",
    "Mosfet",
    "Pulse",
    "Sine",
    "Pwl",
    "solve_dc",
    "solve_ac",
    "solve_transient",
    "DCResult",
    "ACResult",
    "TransientResult",
    "sweep_dc",
    "DCSweepResult",
    "CircuitBatch",
    "BatchDCResult",
    "BatchACResult",
    "BatchTransientResult",
]
