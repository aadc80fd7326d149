"""Shared fixtures: fast synthetic DUTs that skip circuit simulation.

The synthetic device exposes the same DUT protocol as the real benches
but computes its "specifications" from a random linear map of latent
process parameters -- milliseconds per dataset, with controllable
redundancy between specifications.  Core-algorithm tests use these;
the (slower) circuit-level behaviour is covered by the integration
tests and the per-module circuit tests.
"""

import hashlib

import numpy as np

from repro.core.specs import Specification, SpecificationSet
from repro.errors import ReproError
from repro.process.dataset import SpecDataset


class SyntheticDut:
    """Linear-map synthetic device under test.

    ``n_latent`` process parameters map through a fixed random matrix
    to ``n_specs`` measurements.  With ``n_latent < n_specs`` some
    specifications are necessarily redundant -- ideal for exercising
    the compaction loop.  ``noise`` adds per-measurement Gaussian
    disturbance, creating irreducible prediction error.
    """

    def __init__(self, n_specs=6, n_latent=3, noise=0.0, seed=99,
                 range_width=2.0):
        rng = np.random.default_rng(seed)
        self.map = rng.normal(0.0, 1.0, (n_latent, n_specs))
        self.noise = float(noise)
        self.n_latent = n_latent
        half = range_width / 2.0
        self.specifications = SpecificationSet([
            Specification("s{}".format(i), "u", 0.0, -half, half)
            for i in range(n_specs)])

    def sample_parameters(self, rng):
        return rng.normal(0.0, 1.0, self.n_latent)

    def measure(self, params):
        values = params @ self.map
        if self.noise:
            # Deterministic per-instance noise derived from the params
            # keeps measure() a pure function (replayable).  The seed is
            # a SHA-256 of the bytes, never the built-in hash(), which
            # Python randomizes per process.
            digest = hashlib.sha256(params.tobytes()).digest()
            local = np.random.default_rng(
                int.from_bytes(digest[:8], "little"))
            values = values + local.normal(0.0, self.noise, values.shape)
        return values

    def measure_batch(self, params_list):
        """Loop-based batch measurement (the DUT-protocol contract).

        Routes through :meth:`measure` (and therefore any subclass
        failure injection), converting per-instance errors into
        returned entries -- exercising the batched *engine* without a
        circuit-level kernel.
        """
        out = []
        for params in params_list:
            try:
                out.append(self.measure(params))
            except ReproError as exc:
                out.append(exc)
        return out


def make_synthetic_dataset(n=400, n_specs=6, n_latent=3, noise=0.0,
                           seed=0, dut_seed=99, range_width=2.0):
    """Labeled synthetic dataset without touching the simulator."""
    dut = SyntheticDut(n_specs=n_specs, n_latent=n_latent, noise=noise,
                       seed=dut_seed, range_width=range_width)
    rng = np.random.default_rng(seed)
    values = np.vstack([dut.measure(dut.sample_parameters(rng))
                        for _ in range(n)])
    return SpecDataset(dut.specifications, values)


