"""Compactor run statistics and result pickling; process-pool helpers.

Serial/parallel/``run_many`` equivalence and the speculation plan are
tested next to the loop, in ``tests/core/test_compaction.py``.
"""

import pickle

import numpy as np
import pytest

from repro.core.compaction import TestCompactor as Compactor
from repro.errors import CompactionError
from repro.learn import kernels
from repro.learn.kernels import squared_distances
from repro.learn.svm import SVC
from repro.runtime.parallel import resolve_n_jobs
from repro.telemetry import Telemetry, set_telemetry

from tests.synthetic import make_synthetic_dataset


def _fixed_factory():
    return SVC(C=50.0, gamma="scale")


def _compactor(**kw):
    kw.setdefault("tolerance", 0.02)
    kw.setdefault("guard_band", 0.05)
    kw.setdefault("model_factory", _fixed_factory)
    return Compactor(**kw)


@pytest.fixture(scope="module")
def small_data():
    train = make_synthetic_dataset(n=150, seed=1)
    test = make_synthetic_dataset(n=80, seed=2)
    return train, test


class TestSerialEngine:
    def test_final_refit_reused(self, small_data):
        train, test = small_data
        result = _compactor(n_jobs=1).run(train, test)
        assert result.stats["final_refit_reused"] == \
            (len(result.eliminated) > 0)

    def test_kernel_cache_exercised(self, small_data, monkeypatch):
        """The loose fit of every candidate reuses its strict fit's
        Gram: one distance build per guard-band pair, two view hits."""
        train, test = small_data
        builds = []

        def counted(A, B, bb=None):
            builds.append(A.shape)
            return squared_distances(A, B, bb)

        monkeypatch.setattr(kernels, "squared_distances", counted)
        tel = Telemetry(run_id="engine")
        previous = set_telemetry(tel)
        try:
            result = _compactor(n_jobs=1).run(train, test)
        finally:
            set_telemetry(previous)
        counters = {c["name"]: c["value"]
                    for c in tel.snapshot()["counters"]}
        pairs = len(result.steps)
        assert counters["repro_learn_gram_view_hits_total"] == 2 * pairs
        assert [rows for rows, _ in builds].count(len(train)) == pairs

    def test_result_is_picklable(self, small_data):
        """Compaction results must cross process boundaries whole."""
        train, test = small_data
        result = _compactor(n_jobs=1).run(train, test)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.eliminated == result.eliminated
        pred = clone.model.predict_dataset(test)
        assert np.array_equal(pred, result.model.predict_dataset(test))


class TestParallelHelpers:
    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(CompactionError):
            resolve_n_jobs(0)
