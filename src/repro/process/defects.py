"""Catastrophic-defect injection (paper future work, implemented).

The paper's Monte-Carlo training data models *parametric* variation
only; its future work calls for "test instances that also contain real
defects".  :class:`DefectInjector` wraps any DUT and, with a configured
probability, applies a gross (catastrophic) fault to one sampled
parameter -- e.g. a beam etched to a fraction of its width or a
transistor drawn wildly out of size.  Defective devices produce
out-of-family specification values, which is exactly what spot
defects, shorts and opens do to a manufactured part.

Use it to build defect-laden *evaluation* populations and check that a
compacted test set still catches catastrophic failures::

    bench = AccelerometerBench()
    defective = DefectInjector(bench, defect_rate=0.05, seed=13)
    lot = generate_dataset(defective, 1000, seed=99)
    report = evaluate_predictions(lot.labels, model.predict_dataset(lot))
"""

from dataclasses import fields, replace

import numpy as np

from repro.errors import DatasetError


def _varied_field_names(params):
    """Parameter fields eligible for defect injection.

    Dataclass DUT parameters advertise their process-varied fields via
    ``VARIED`` (op-amp) or ``VARIED_RELATIVE`` (MEMS); plain dicts use
    all of their keys.
    """
    for attr in ("VARIED", "VARIED_RELATIVE"):
        names = getattr(params, attr, None)
        if names:
            return tuple(names)
    if isinstance(params, dict):
        return tuple(params)
    return tuple(f.name for f in fields(params))


class DefectInjector:
    """Wrap a DUT so a fraction of instances carry a gross defect.

    Parameters
    ----------
    dut:
        Any object implementing the DUT protocol (``specifications``,
        ``sample_parameters``, ``measure``).
    defect_rate:
        Probability that a sampled instance receives a defect.
    severity:
        Multiplicative fault magnitude: the chosen parameter is scaled
        by ``severity`` or ``1/severity`` (fair coin).  4.0 models a
        gross lithography/etch failure.
    """

    def __init__(self, dut, defect_rate=0.05, severity=4.0):
        if not 0.0 <= defect_rate <= 1.0:
            raise DatasetError("defect_rate must be in [0, 1]")
        if severity <= 1.0:
            raise DatasetError("severity must exceed 1")
        self._dut = dut
        self.defect_rate = float(defect_rate)
        self.severity = float(severity)
        self.n_injected = 0

    @property
    def specifications(self):
        """The wrapped DUT's specification set."""
        return self._dut.specifications

    @property
    def name(self):
        """Derived DUT name for cache keys and logs."""
        return getattr(self._dut, "name", "dut") + "+defects"

    def sample_parameters(self, rng):
        """Sample from the process model, then maybe inject a defect."""
        params = self._dut.sample_parameters(rng)
        if rng.random() >= self.defect_rate:
            return params
        factor = self.severity if rng.random() < 0.5 else 1.0 / self.severity
        self.n_injected += 1
        if isinstance(params, np.ndarray):
            defective = params.copy()
            idx = int(rng.integers(defective.size))
            defective.flat[idx] *= factor
            return defective
        names = _varied_field_names(params)
        target = names[int(rng.integers(len(names)))]
        if isinstance(params, dict):
            defective = dict(params)
            defective[target] = defective[target] * factor
            return defective
        return replace(params, **{target: getattr(params, target) * factor})

    def measure(self, params):
        """Measure through the wrapped DUT (defects already applied)."""
        return self._dut.measure(params)

    def __getattr__(self, name):
        # measure_batch is exposed exactly when the wrapped DUT has
        # one (defects are injected at sampling time, so the batched
        # kernel sees defective parameter sets like any others); a
        # wrapper around a scalar-only DUT must *not* advertise the
        # batched protocol, since generation picks its slot path from
        # that attribute.
        if name == "measure_batch":
            measure = getattr(self._dut, "measure_batch", None)
            if measure is not None:
                return measure
        raise AttributeError(name)

    def __repr__(self):
        return "DefectInjector({!r}, rate={:g}, severity={:g})".format(
            getattr(self._dut, "name", type(self._dut).__name__),
            self.defect_rate, self.severity)
