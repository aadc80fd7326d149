"""Resumable generation: extend ≡ cold, across shard sizes and workers."""

import json
import os

import numpy as np
import pytest

from repro.chaos import corrupt_file
from repro.data import (
    ShardedSpecDataset,
    dataset_device_name,
    ensure_dataset,
    extend_shards,
    generate_shards,
    repair_shards,
)
from repro.errors import DatasetError
from repro.process.montecarlo import generate_dataset

from tests.synthetic import SyntheticDut
from tests.runtime.test_simulation import PureFlakyDut


class TestResumeDeterminism:
    @pytest.mark.parametrize("shard_rows", [8, 16, 100])
    @pytest.mark.parametrize("n_jobs", [None, 2])
    def test_extend_is_hash_identical_to_cold(self, tmp_path, shard_rows,
                                              n_jobs):
        """generate(N) + extend(M) == cold generate(M), file for file."""
        dut, n, m, seed = SyntheticDut(), 21, 57, 4
        cold = generate_shards(tmp_path / "cold", dut, m, seed,
                               shard_rows=shard_rows, n_jobs=n_jobs)
        generate_shards(tmp_path / "warm", dut, n, seed,
                        shard_rows=shard_rows, n_jobs=n_jobs)
        warm = extend_shards(tmp_path / "warm", dut, m, n_jobs=n_jobs)
        assert warm.shard_hashes() == cold.shard_hashes()
        assert [dict(s) for s in warm.manifest.shards] == \
            [dict(s) for s in cold.manifest.shards]
        assert np.array_equal(warm.values, cold.values)

    def test_concatenation_equals_in_ram_generation(self, tmp_path):
        dut, n, seed = SyntheticDut(), 43, 9
        reference = generate_dataset(dut, n, seed)
        for shard_rows in (7, 43, 64):
            store = generate_shards(
                tmp_path / "s{}".format(shard_rows), dut, n, seed,
                shard_rows=shard_rows)
            assert np.array_equal(store.values, reference.values)

    def test_parallel_generation_is_bitwise_serial(self, tmp_path):
        dut, n, seed = SyntheticDut(), 40, 2
        serial = generate_shards(tmp_path / "serial", dut, n, seed,
                                 shard_rows=16)
        parallel = generate_shards(tmp_path / "par", dut, n, seed,
                                   shard_rows=16, n_jobs=2)
        assert serial.shard_hashes() == parallel.shard_hashes()

    def test_extend_with_failures_matches_cold_accounting(self, tmp_path):
        """Per-shard failure counts survive the resume split exactly."""
        dut, n, m, seed = PureFlakyDut(), 18, 50, 5
        cold = generate_shards(tmp_path / "cold", dut, m, seed,
                               shard_rows=16, max_failures=1000)
        generate_shards(tmp_path / "warm", dut, n, seed,
                        shard_rows=16, max_failures=1000)
        warm = extend_shards(tmp_path / "warm", dut, m,
                             max_failures=1000)
        assert warm.shard_hashes() == cold.shard_hashes()
        assert ([(s["n_failed"], s["n_simulated"])
                 for s in warm.manifest.shards]
                == [(s["n_failed"], s["n_simulated"])
                    for s in cold.manifest.shards])
        assert sum(s["n_failed"] for s in cold.manifest.shards) > 0

    def test_multiple_extensions_compose(self, tmp_path):
        dut, seed = SyntheticDut(), 7
        cold = generate_shards(tmp_path / "cold", dut, 60, seed,
                               shard_rows=16)
        generate_shards(tmp_path / "warm", dut, 5, seed, shard_rows=16)
        for target in (17, 33, 48, 60):
            warm = extend_shards(tmp_path / "warm", dut, target)
        assert warm.shard_hashes() == cold.shard_hashes()


class TestExtendSemantics:
    def test_extend_is_noop_at_or_below_current_size(self, tmp_path):
        dut = SyntheticDut()
        store = generate_shards(tmp_path / "s", dut, 30, 1, shard_rows=8)
        hashes = store.shard_hashes()
        again = extend_shards(tmp_path / "s", dut, 20)
        assert again.n_rows == 30
        assert again.shard_hashes() == hashes

    def test_generate_refuses_existing_store(self, tmp_path):
        dut = SyntheticDut()
        generate_shards(tmp_path / "s", dut, 10, 1, shard_rows=8)
        with pytest.raises(DatasetError):
            generate_shards(tmp_path / "s", dut, 20, 1, shard_rows=8)

    def test_extend_refuses_contradicting_seed(self, tmp_path):
        dut = SyntheticDut()
        generate_shards(tmp_path / "s", dut, 10, 1, shard_rows=8)
        with pytest.raises(DatasetError):
            extend_shards(tmp_path / "s", dut, 20, seed=2)

    def test_extend_refuses_foreign_spec_universe(self, tmp_path):
        generate_shards(tmp_path / "s", SyntheticDut(), 10, 1,
                        shard_rows=8)
        with pytest.raises(DatasetError):
            extend_shards(tmp_path / "s", SyntheticDut(n_specs=4), 20)

    def test_generate_rejects_nonpositive(self, tmp_path):
        with pytest.raises(DatasetError):
            generate_shards(tmp_path / "s", SyntheticDut(), 0, 1)

    @pytest.mark.parametrize("shard_rows", [0, -3])
    def test_generate_rejects_nonpositive_shard_rows(self, tmp_path,
                                                     shard_rows):
        """The error names ``shard_rows``, not the scheduler's
        ``batch_size`` it becomes."""
        with pytest.raises(DatasetError, match="^shard_rows must be "
                                               "positive"):
            generate_shards(tmp_path / "s", SyntheticDut(), 8, 1,
                            shard_rows=shard_rows)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("seed", [None, -1, 1.5], ids=repr)
    def test_generate_rejects_bad_seed(self, tmp_path, seed):
        with pytest.raises(DatasetError, match="seed"):
            generate_shards(tmp_path / "s", SyntheticDut(), 8, seed)
        assert not (tmp_path / "s").exists()

    def test_budget_below_one_rejected(self, tmp_path):
        dut = SyntheticDut()
        with pytest.raises(DatasetError, match="max_failures"):
            generate_shards(tmp_path / "s", dut, 8, 1, max_failures=0)
        assert not (tmp_path / "s").exists()
        generate_shards(tmp_path / "t", dut, 8, 1, shard_rows=8)
        with pytest.raises(DatasetError, match="max_failures"):
            extend_shards(tmp_path / "t", dut, 16, max_failures=0)
        assert ShardedSpecDataset(tmp_path / "t").n_rows == 8

    def test_manifest_records_events_and_throughput(self, tmp_path):
        dut = SyntheticDut()
        generate_shards(tmp_path / "s", dut, 20, 1, shard_rows=8)
        store = extend_shards(tmp_path / "s", dut, 30)
        events = store.manifest.events
        assert [e["op"] for e in events] == ["generate", "extend"]
        assert events[0]["start"] == 0 and events[0]["stop"] == 20
        assert events[1]["start"] == 20 and events[1]["stop"] == 30
        for event in events:
            assert event["elapsed_s"] >= 0.0
            assert event["instances_per_minute"] >= 0.0


class TestEnsureDataset:
    def test_creates_then_extends_one_store(self, tmp_path):
        dut = SyntheticDut()
        first = ensure_dataset(tmp_path, dut, 12, 3, shard_rows=8)
        assert first.n_rows == 12
        second = ensure_dataset(tmp_path, dut, 30, 3)
        assert second.n_rows == 30
        assert second.root == first.root
        cold = generate_shards(tmp_path / "cold", dut, 30, 3,
                               shard_rows=8)
        assert second.shard_hashes() == cold.shard_hashes()

    def test_big_store_serves_smaller_requests(self, tmp_path):
        dut = SyntheticDut()
        ensure_dataset(tmp_path, dut, 25, 3, shard_rows=8)
        store = ensure_dataset(tmp_path, dut, 10, 3)
        assert store.n_rows == 25  # consumers take head(10)
        reference = generate_dataset(dut, 10, 3)
        assert np.array_equal(store.head(10).values, reference.values)

    def test_stores_are_keyed_by_device_and_seed(self, tmp_path):
        dut = SyntheticDut()
        a = ensure_dataset(tmp_path, dut, 8, 1, shard_rows=8)
        b = ensure_dataset(tmp_path, dut, 8, 2, shard_rows=8)
        assert a.root != b.root
        assert dataset_device_name(dut) == "SyntheticDut"
        assert "SyntheticDut-s1" in a.root

    def test_interrupted_generation_leaves_valid_prefix(self, tmp_path):
        """Crash mid-run == valid shorter store; ensure_dataset resumes
        it to the full target, hash-identical to an uninterrupted run."""
        dut = SyntheticDut()
        cold = generate_shards(tmp_path / "cold", dut, 40, 1,
                               shard_rows=8)
        # Simulate the crash: a store that stopped after 3 shards.
        partial = generate_shards(tmp_path / "SyntheticDut-s1", dut,
                                  24, 1, shard_rows=8)
        assert partial.n_shards == 3
        resumed = ensure_dataset(tmp_path, dut, 40, 1)
        assert resumed.shard_hashes() == cold.shard_hashes()


class TestLegacyManifest:
    def test_engine_key_is_ignored(self, tmp_path):
        """Stores whose manifest records a simulation engine open,
        extend and repair to the bytes of a fresh store."""
        dut, seed = SyntheticDut(), 6
        fresh = generate_shards(tmp_path / "fresh", dut, 40, seed,
                                shard_rows=16)
        assert "engine" not in fresh.manifest.to_json()
        legacy = generate_shards(tmp_path / "legacy", dut, 20, seed,
                                 shard_rows=16)
        path = os.path.join(legacy.root, "manifest.json")
        with open(path) as handle:
            raw = json.load(handle)
        raw["engine"] = "scalar"
        for event in raw["events"]:
            event["engine"] = "scalar"
        with open(path, "w") as handle:
            json.dump(raw, handle)

        assert ShardedSpecDataset(legacy.root).n_rows == 20
        legacy = extend_shards(legacy.root, dut, 40)
        assert legacy.shard_hashes() == fresh.shard_hashes()
        corrupt_file(legacy.shard_path(0), seed=3)
        assert repair_shards(legacy.root, dut) == [0]
        assert ShardedSpecDataset(legacy.root).shard_hashes() == \
            fresh.shard_hashes()
