"""The synthetic DUT fixture is the same data in every process."""

import hashlib

import numpy as np

from tests.synthetic import SyntheticDut, make_synthetic_dataset


def test_noisy_dataset_digest_is_pinned():
    """Noise seeds derive from SHA-256 of the parameters, so the noisy
    dataset is byte-identical under any ``PYTHONHASHSEED``."""
    ds = make_synthetic_dataset(n=50, noise=0.1, seed=3)
    assert ds.values.shape == (50, 6)
    assert hashlib.sha256(ds.values.tobytes()).hexdigest() == (
        "beea5f877fd1f6c27bf8532b87c5611b158f089cc3e8808bdae82b95c7306b7e")


def test_noise_is_a_pure_function_of_the_parameters():
    dut = SyntheticDut(noise=0.2)
    params = np.array([0.3, -1.1, 0.7])
    assert np.array_equal(dut.measure(params), dut.measure(params.copy()))
    assert not np.array_equal(dut.measure(params),
                              dut.measure(params + 1e-9))
