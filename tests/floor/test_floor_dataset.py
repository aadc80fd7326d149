"""Shard stores on the production floor: replay ≡ direct simulation."""

import numpy as np
import pytest

from repro.data import ensure_dataset, generate_shards
from repro.errors import CompactionError
from repro.floor import TestFloor as Floor

from tests.synthetic import SyntheticDut

N, SEED = 70, 21


@pytest.fixture(scope="module")
def dut():
    return SyntheticDut()


@pytest.fixture(scope="module")
def store(dut, tmp_path_factory):
    root = tmp_path_factory.mktemp("floor-store") / "s"
    return generate_shards(root, dut, N, SEED, shard_rows=16)


def _decisions(report):
    return np.asarray(report.decisions)


class TestRunSharded:
    def test_replay_equals_direct_simulation(self, artifact, dut, store):
        floor = Floor(artifact)
        direct = floor.run_simulated(dut, N, SEED, keep_decisions=True)
        replay = floor.run_sharded(store, keep_decisions=True)
        assert np.array_equal(_decisions(direct), _decisions(replay))
        assert direct.n_shipped == replay.n_shipped
        assert direct.n_scrapped == replay.n_scrapped
        assert direct.n_retested == replay.n_retested

    def test_prefix_replay_equals_smaller_run(self, artifact, dut, store):
        floor = Floor(artifact)
        direct = floor.run_simulated(dut, 30, SEED, keep_decisions=True)
        replay = floor.run_sharded(store, n_devices=30,
                                   keep_decisions=True)
        assert np.array_equal(_decisions(direct), _decisions(replay))

    def test_batch_size_is_invisible(self, artifact, store):
        floor = Floor(artifact)
        a = floor.run_sharded(store, keep_decisions=True, batch_size=7)
        b = floor.run_sharded(store, keep_decisions=True, batch_size=64)
        assert np.array_equal(_decisions(a), _decisions(b))

    def test_overdraw_rejected(self, artifact, store):
        floor = Floor(artifact)
        with pytest.raises(CompactionError):
            floor.run_sharded(store, n_devices=N + 1)

    def test_run_simulated_rejects_seed_mismatch(self, artifact, dut,
                                                 store):
        floor = Floor(artifact)
        with pytest.raises(CompactionError):
            floor.run_simulated(dut, N, SEED + 1, dataset=store)


class TestRunLots:
    def test_dataset_root_reports_match_direct(self, artifact, dut,
                                               tmp_path):
        lots = [(24, 5), (40, 6)]
        direct = Floor(artifact).run_lots(dut, lots)
        cached = Floor(artifact).run_lots(
            dut, lots, dataset_root=tmp_path)
        for a, b in zip(direct.lots, cached.lots):
            assert (a.n_devices, a.n_shipped, a.n_scrapped,
                    a.n_retested) == \
                   (b.n_devices, b.n_shipped, b.n_scrapped,
                    b.n_retested)

    def test_repeat_schedule_reuses_stores(self, artifact, dut,
                                           tmp_path):
        lots = [(16, 5)]
        Floor(artifact).run_lots(dut, lots, dataset_root=tmp_path)
        store = ensure_dataset(tmp_path, dut, 16, 5)
        hashes = store.shard_hashes()
        Floor(artifact).run_lots(dut, lots, dataset_root=tmp_path)
        assert ensure_dataset(tmp_path, dut, 16, 5).shard_hashes() \
            == hashes
