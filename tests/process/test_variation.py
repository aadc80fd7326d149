"""Process-variation model tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.process.variation import (
    NormalDisturbance,
    Parameter,
    ProcessModel,
    UniformDisturbance,
)


class TestDisturbances:
    @given(spread=st.floats(0.01, 0.5), nominal=st.floats(0.1, 100.0),
           seed=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_uniform_stays_in_band(self, spread, nominal, seed):
        rng = np.random.default_rng(seed)
        d = UniformDisturbance(spread)
        samples = [d.sample(rng, nominal) for _ in range(20)]
        lo, hi = nominal * (1 - spread), nominal * (1 + spread)
        assert all(lo <= s <= hi for s in samples)

    def test_uniform_mean_near_nominal(self):
        rng = np.random.default_rng(0)
        d = UniformDisturbance(0.2)
        samples = [d.sample(rng, 10.0) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(10.0, rel=0.02)

    def test_normal_clipping(self):
        rng = np.random.default_rng(1)
        d = NormalDisturbance(0.1, clip_sigmas=2.0)
        samples = [d.sample(rng, 1.0) for _ in range(3000)]
        assert min(samples) >= 1.0 * (1 - 0.2) - 1e-12
        assert max(samples) <= 1.0 * (1 + 0.2) + 1e-12

    def test_normal_large_sigma_never_flips_sign(self):
        """Regression: relative_sigma=0.3 with the default 4-sigma clip
        produced negative samples (min -0.2x nominal over 20k draws)."""
        rng = np.random.default_rng(0)
        d = NormalDisturbance(0.3)
        samples = np.array([d.sample(rng, 1.0) for _ in range(20_000)])
        assert samples.min() > 0.0

    @given(sigma=st.floats(0.01, 5.0), clip=st.floats(0.5, 8.0),
           seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_normal_multiplier_always_positive(self, sigma, clip, seed):
        rng = np.random.default_rng(seed)
        d = NormalDisturbance(sigma, clip_sigmas=clip)
        samples = [d.sample(rng, 2.5) for _ in range(50)]
        assert all(s > 0 for s in samples)
        # The upper clip is never tightened.
        assert max(samples) <= 2.5 * (1 + sigma * clip) + 1e-9

    def test_normal_clamp_inactive_for_small_sigma(self):
        """Draws are unchanged when the clip already keeps samples
        positive (back-compat with seed-pinned datasets)."""
        d = NormalDisturbance(0.05)
        rng_new = np.random.default_rng(7)
        rng_old = np.random.default_rng(7)
        new = [d.sample(rng_new, 1.0) for _ in range(200)]
        old = [1.0 * (1.0 + 0.05 * float(np.clip(rng_old.normal(0.0, 1.0),
                                                 -4.0, 4.0)))
               for _ in range(200)]
        assert new == old


class TestProcessModel:
    def _model(self):
        return ProcessModel([
            Parameter("w", 10e-6, UniformDisturbance(0.1)),
            Parameter("l", 1e-6, NormalDisturbance(0.05)),
        ])

    def test_sample_returns_named_dict(self):
        rng = np.random.default_rng(0)
        sample = self._model().sample(rng)
        assert set(sample) == {"w", "l"}
        assert sample["w"] > 0

    def test_reproducible_for_seed(self):
        model = self._model()
        a = model.sample(np.random.default_rng(3))
        b = model.sample(np.random.default_rng(3))
        assert a == b

    def test_duplicate_names_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            ProcessModel([
                Parameter("w", 1.0, UniformDisturbance(0.1)),
                Parameter("w", 2.0, UniformDisturbance(0.1)),
            ])

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            ProcessModel([])
