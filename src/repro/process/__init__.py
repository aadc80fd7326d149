"""Monte-Carlo process-variation modeling and training-data generation.

This subpackage implements the data-generation flow of paper Fig. 1:
a device description plus a manufacturing process model produce
*training instances*, each simulated and measured against the full
specification list.

* :mod:`repro.process.variation` -- parameter disturbance distributions
  and the :class:`~repro.process.variation.ProcessModel` abstraction;
* :mod:`repro.process.montecarlo` -- the generation loop;
* :mod:`repro.process.dataset` -- the :class:`~repro.process.dataset.SpecDataset`
  container (measurements + labels + persistence).
"""

from repro.process.dataset import SpecDataset
from repro.process.defects import DefectInjector
from repro.process.montecarlo import GenerationReport, generate_dataset
from repro.process.variation import (
    LognormalDisturbance,
    NormalDisturbance,
    Parameter,
    ProcessModel,
    UniformDisturbance,
)

__all__ = [
    "SpecDataset",
    "DefectInjector",
    "generate_dataset",
    "GenerationReport",
    "Parameter",
    "ProcessModel",
    "UniformDisturbance",
    "NormalDisturbance",
    "LognormalDisturbance",
]
