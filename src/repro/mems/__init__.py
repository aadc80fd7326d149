"""MEMS accelerometer DUT (paper Section 5.2).

A folded-flexure comb-sense accelerometer in the style of the CMU
CMOS-MEMS devices the paper references.  The mechanical behaviour is
derived from first-principles beam/plate formulas
(:mod:`repro.mems.mechanics`), mapped onto an electrical-equivalent
series RLC network and simulated with the :mod:`repro.circuit` AC
engine -- the same "simulate and measure" path Spectre plus the MEMS
libraries provided in the paper.

Temperature testing: the paper measures the same four specifications at
hot (80 C), room (27 C) and cold (-40 C).  "The effect of temperature
is modeled as chip shrinkage or expansion, meaning the anchors of the
accelerometer move towards or away from the center" -- implemented here
as thermal-mismatch axial stress in the suspension beams
(stress stiffening/softening), plus the temperature dependence of the
gas viscosity (damping) and of the Young's modulus.
"""

from repro.mems.geometry import AccelerometerGeometry
from repro.mems.mechanics import (
    damping_coefficient,
    effective_mass,
    resonant_frequency,
    sense_gain,
    spring_constant,
)
from repro.mems.accelerometer import build_equivalent_circuit, frequency_response
from repro.mems.specs import (
    MEMS_SPECIFICATIONS,
    TEMPERATURES,
    AccelerometerBench,
    measure_accelerometer,
    soak_cost_model,
    test_name,
    tests_at_temperature,
)

__all__ = [
    "AccelerometerGeometry",
    "spring_constant",
    "effective_mass",
    "damping_coefficient",
    "resonant_frequency",
    "sense_gain",
    "build_equivalent_circuit",
    "frequency_response",
    "AccelerometerBench",
    "MEMS_SPECIFICATIONS",
    "TEMPERATURES",
    "measure_accelerometer",
    "soak_cost_model",
    "test_name",
    "tests_at_temperature",
]
