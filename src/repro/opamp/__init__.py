"""Two-stage CMOS operational amplifier DUT (paper Section 5.1).

The paper's first example applies specification test compaction to an
(unfabricated) operational amplifier with eleven specification-based
tests.  This subpackage provides:

* :class:`~repro.opamp.design.OpAmpParameters` -- the full geometric /
  electrical parameter set of a two-stage Miller-compensated op-amp,
  the quantity perturbed by the Monte-Carlo process model;
* :func:`~repro.opamp.design.build_opamp` -- netlist builder;
* :class:`~repro.opamp.specs.OpAmpBench` -- testbench that measures all
  eleven specifications of paper Table 1 via the :mod:`repro.circuit`
  simulator, and generates labeled Monte-Carlo datasets.
"""

from repro.opamp.design import OpAmpParameters, build_opamp
from repro.opamp.specs import (
    OPAMP_SPECIFICATIONS,
    OpAmpBench,
    measure_opamp,
)

__all__ = [
    "OpAmpParameters",
    "build_opamp",
    "OpAmpBench",
    "OPAMP_SPECIFICATIONS",
    "measure_opamp",
]
