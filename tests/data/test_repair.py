"""Shard repair: regenerate corrupted shards from the seed tree.

Invariant 1 of the data plane (any shard in isolation) makes repair
possible at all: every row is a pure function of ``(device, seed, row
index)``, so a corrupted shard can be re-simulated alone and must hash
back to the manifest's original digest.  These tests break shards in
every observed way -- flipped content bytes, truncation, deletion --
and require repair to restore the store file-for-file, while refusing
to bless bytes that do not reproduce the manifest.
"""

import os

import numpy as np
import pytest

from repro.chaos import corrupt_file
from repro.data import ShardedSpecDataset, generate_shards, repair_shards
from repro.errors import DatasetError

from tests.runtime.test_simulation import PureFlakyDut
from tests.synthetic import SyntheticDut


class VeryFlakyDut(PureFlakyDut):
    """Fails on most draws: needs more than the default budget."""

    FAIL_BAND = (0.0, 0.9)


def _store(tmp_path, n=40, seed=5, shard_rows=16):
    root = tmp_path / "store"
    store = generate_shards(root, SyntheticDut(), n, seed,
                            shard_rows=shard_rows)
    return root, store


def _shard_file(root, store, index):
    return os.path.join(str(root), store.manifest.shards[index]["file"])


class TestRepair:
    def test_corrupted_shard_is_restored_hash_identical(self, tmp_path):
        root, store = _store(tmp_path)
        original_hashes = store.shard_hashes()
        reference = store.to_dataset().values
        del store

        corrupted = ShardedSpecDataset(root)
        corrupt_file(_shard_file(root, corrupted, 1), seed=17)
        with pytest.raises(DatasetError):
            corrupted.verify()
        del corrupted

        repaired = repair_shards(root, SyntheticDut())
        assert repaired == [1]
        healed = ShardedSpecDataset(root)
        assert healed.verify() == 3
        assert healed.shard_hashes() == original_hashes
        assert np.array_equal(healed.to_dataset().values, reference)

    def test_truncated_and_missing_shards_both_repair(self, tmp_path):
        root, store = _store(tmp_path, n=48)
        original_hashes = store.shard_hashes()
        del store

        store = ShardedSpecDataset(root)
        # Shard 0: truncated mid-file (torn write / crashed publish).
        path0 = _shard_file(root, store, 0)
        with open(path0, "r+b") as handle:
            handle.truncate(os.path.getsize(path0) // 2)
        # Shard 2: deleted outright.
        os.unlink(_shard_file(root, store, 2))
        del store

        assert repair_shards(root, SyntheticDut()) == [0, 2]
        healed = ShardedSpecDataset(root)
        assert healed.verify() == 3
        assert healed.shard_hashes() == original_hashes

    def test_clean_store_is_left_untouched(self, tmp_path):
        root, store = _store(tmp_path)
        mtimes = {
            index: os.path.getmtime(_shard_file(root, store, index))
            for index in range(len(store.manifest.shards))
        }
        del store
        assert repair_shards(root, SyntheticDut()) == []
        for index, mtime in mtimes.items():
            assert os.path.getmtime(
                _shard_file(root, ShardedSpecDataset(root), index)) == mtime

    def test_repair_is_recorded_in_manifest_events(self, tmp_path):
        root, store = _store(tmp_path)
        corrupt_file(_shard_file(root, store, 0), seed=3)
        del store
        repair_shards(root, SyntheticDut())
        events = ShardedSpecDataset(root).manifest.events
        repairs = [e for e in events if e["op"] == "repair"]
        assert len(repairs) == 1
        assert repairs[0]["shards"] == [0]

    def test_foreign_spec_universe_is_refused(self, tmp_path):
        root, _ = _store(tmp_path)
        with pytest.raises(DatasetError, match="different specification"):
            repair_shards(root, SyntheticDut(n_specs=4))

    def test_wrong_bytes_are_never_blessed(self, tmp_path):
        # A DUT with the same spec universe but shifted physics
        # regenerates *valid-looking* bytes that do not hash back to
        # the manifest; repair must raise, not rewrite history.
        class ShiftedDut(SyntheticDut):
            def measure(self, params):
                return super().measure(params) + 1.0

        root, store = _store(tmp_path)
        corrupt_file(_shard_file(root, store, 1), seed=9)
        del store
        with pytest.raises(DatasetError, match="refusing to bless"):
            repair_shards(root, ShiftedDut())
        # The mismatch surfaced *before* the store was re-blessed: the
        # shard is still reported corrupt, not silently replaced.
        with pytest.raises(DatasetError):
            ShardedSpecDataset(root).verify()

    def test_corrupt_file_is_deterministic(self, tmp_path):
        root_a, store_a = _store(tmp_path / "a")
        root_b, store_b = _store(tmp_path / "b")
        offsets_a = corrupt_file(_shard_file(root_a, store_a, 0), seed=21)
        offsets_b = corrupt_file(_shard_file(root_b, store_b, 0), seed=21)
        assert offsets_a == offsets_b
        with open(_shard_file(root_a, store_a, 0), "rb") as fa:
            with open(_shard_file(root_b, store_b, 0), "rb") as fb:
                assert fa.read() == fb.read()

    def test_repair_uses_the_store_failure_budget(self, tmp_path):
        """A store generated under a larger max_failures than the
        default is repaired under that budget, not the default."""
        root = tmp_path / "store"
        store = generate_shards(root, VeryFlakyDut(), 40, seed=5,
                                shard_rows=20, max_failures=200)
        original_hashes = store.shard_hashes()
        assert sum(s["n_failed"] for s in store.manifest.shards) > 10
        path = _shard_file(root, store, 1)
        del store
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)

        assert repair_shards(root, VeryFlakyDut()) == [1]
        assert ShardedSpecDataset(root).shard_hashes() == original_hashes
