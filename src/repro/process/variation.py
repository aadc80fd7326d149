"""Manufacturing process models: random disturbances on device parameters.

The paper generates training data "using Monte-Carlo simulations of
devices with random variations imposed on various device parameters".
This module provides the disturbance distributions and a generic
:class:`ProcessModel` that perturbs named parameters of any DUT whose
parameters live in a ``dict`` or dataclass.

The DUT benches in :mod:`repro.opamp` and :mod:`repro.mems` embed their
own default models; :class:`ProcessModel` is the extension point for
users bringing their own devices.
"""

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError


class Disturbance:
    """Base class: a multiplicative or additive random disturbance."""

    def sample(self, rng, nominal):
        """Return a perturbed value given the nominal one."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformDisturbance(Disturbance):
    """Multiplicative uniform disturbance: ``nominal * U(1-s, 1+s)``.

    This matches the paper's description of altering parameters
    "within <x> % of their nominal values".
    """

    relative_spread: float

    def sample(self, rng, nominal):
        s = self.relative_spread
        return nominal * (1.0 + rng.uniform(-s, s))


#: Smallest multiplier :class:`NormalDisturbance` may apply; keeps the
#: perturbed value's sign and a (tiny) nonzero magnitude.
MIN_NORMAL_MULTIPLIER = 1e-6


@dataclass(frozen=True)
class NormalDisturbance(Disturbance):
    """Multiplicative Gaussian disturbance: ``nominal * N(1, sigma)``.

    ``clip_sigmas`` truncates the distribution to avoid non-physical
    (e.g. negative-width) samples.  Whenever the requested clip would
    still allow a non-positive multiplier (``relative_sigma *
    clip_sigmas >= 1``), the lower clip is tightened so that
    ``1 + relative_sigma * z`` stays at or above
    :data:`MIN_NORMAL_MULTIPLIER` -- the sampled value can never lose
    the nominal's sign, for any ``relative_sigma``.
    """

    relative_sigma: float
    clip_sigmas: float = 4.0

    def sample(self, rng, nominal):
        z = rng.normal(0.0, 1.0)
        clip_low = self.clip_sigmas
        if self.relative_sigma * self.clip_sigmas >= 1.0:
            clip_low = (1.0 - MIN_NORMAL_MULTIPLIER) / self.relative_sigma
        z = float(np.clip(z, -clip_low, self.clip_sigmas))
        return nominal * (1.0 + self.relative_sigma * z)


@dataclass(frozen=True)
class Parameter:
    """A named DUT parameter with its nominal value and disturbance."""

    name: str
    nominal: float
    disturbance: Disturbance

    def sample(self, rng):
        """Draw one perturbed value."""
        return self.disturbance.sample(rng, self.nominal)


class ProcessModel:
    """A named collection of :class:`Parameter` disturbances.

    Example
    -------
    ::

        model = ProcessModel([
            Parameter("w1", 50e-6, UniformDisturbance(0.15)),
            Parameter("cc", 20e-12, NormalDisturbance(0.05)),
        ])
        sample = model.sample(np.random.default_rng(0))
        # {'w1': 5.1e-05, 'cc': 1.98e-11}
    """

    def __init__(self, parameters):
        params = tuple(parameters)
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ReproError(
                "duplicate parameter names in process model: "
                "{}".format(sorted(names)))
        if not params:
            raise ReproError("a ProcessModel needs at least one parameter")
        self._params = params

    @property
    def parameters(self):
        """Tuple of :class:`Parameter` objects."""
        return self._params

    @property
    def names(self):
        """Tuple of parameter names."""
        return tuple(p.name for p in self._params)

    def sample(self, rng):
        """Draw one complete parameter assignment as a dict."""
        return {p.name: p.sample(rng) for p in self._params}

    def __len__(self):
        return len(self._params)

    def __repr__(self):
        return "ProcessModel({} parameters)".format(len(self._params))
