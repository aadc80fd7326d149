"""ShardedSpecDataset accessors: bitwise parity with the in-RAM path,
plus manifest/shard integrity rejection."""

import json

import numpy as np
import pytest

from repro.data import ShardedSpecDataset, generate_shards
from repro.data.manifest import MANIFEST_NAME
from repro.errors import DatasetError
from repro.process.montecarlo import generate_dataset

from tests.synthetic import SyntheticDut


N, SHARD_ROWS, SEED = 53, 16, 11


@pytest.fixture(scope="module")
def dut():
    return SyntheticDut()


@pytest.fixture(scope="module")
def store_root(dut, tmp_path_factory):
    root = tmp_path_factory.mktemp("store") / "s"
    generate_shards(root, dut, N, SEED, shard_rows=SHARD_ROWS)
    return root


@pytest.fixture
def store(store_root):
    return ShardedSpecDataset(store_root)


@pytest.fixture(scope="module")
def reference(dut):
    return generate_dataset(dut, N, SEED)


class TestAccessorParity:
    def test_identity(self, store, dut):
        assert len(store) == N
        assert store.n_specs == len(dut.specifications)
        assert store.names == dut.specifications.names
        assert store.seed == SEED
        assert store.device == "SyntheticDut"
        assert store.n_shards == (N + SHARD_ROWS - 1) // SHARD_ROWS

    def test_normalized_values_bitwise(self, store, reference):
        names = list(store.names[:3])
        assert np.array_equal(store.normalized_values(names),
                              reference.project(names).normalized_values())
        assert np.array_equal(store.normalized_values(),
                              reference.normalized_values())

    def test_shifted_labels_bitwise(self, store, reference):
        names = list(store.names[2:5])
        specs = reference.specifications.subset(names)
        values = reference.project(names).values
        deltas = np.array([0.05, 0.1, 0.02])
        assert np.array_equal(
            store.shifted_labels(names, deltas),
            specs.shifted(deltas).labels(values))
        assert np.array_equal(
            store.shifted_labels(names, -deltas),
            specs.shifted(-deltas).labels(values))
        # deltas=None is the *unshifted* label path, byte for byte.
        assert np.array_equal(store.shifted_labels(names, None),
                              specs.labels(values))

    def test_iter_batches_any_size(self, store, reference):
        for batch_size in (None, 1, 7, SHARD_ROWS, 1000):
            got = np.vstack(list(store.iter_batches(batch_size)))
            assert np.array_equal(got, reference.values)

    def test_iter_batches_rejects_nonpositive(self, store):
        with pytest.raises(DatasetError):
            list(store.iter_batches(0))

    def test_head_and_to_dataset(self, store, reference):
        head = store.head(20)
        assert np.array_equal(head.values, reference.values[:20])
        assert head.specifications == store.specifications
        full = store.to_dataset()
        assert np.array_equal(full.values, reference.values)
        with pytest.raises(DatasetError):
            store.head(0)
        with pytest.raises(DatasetError):
            store.head(N + 1)


class TestIntegrity:
    def _copy_store(self, src, dst):
        import shutil

        shutil.copytree(src, dst)
        return dst

    def test_verify_passes_on_clean_store(self, store):
        assert store.verify() == store.n_shards

    def test_verify_detects_bit_flip(self, store_root, tmp_path):
        root = self._copy_store(store_root, tmp_path / "s")
        store = ShardedSpecDataset(root)
        path = store.shard_path(1)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x01  # inside the array payload
        open(path, "wb").write(bytes(data))
        fresh = ShardedSpecDataset(root)
        with pytest.raises(DatasetError):
            fresh.verify()

    def test_stale_manifest_hash_rejected(self, store_root, tmp_path):
        root = self._copy_store(store_root, tmp_path / "s")
        manifest_path = root / MANIFEST_NAME
        doc = json.loads(manifest_path.read_text())
        doc["shards"][0]["sha256"] = "0" * 64
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError):
            ShardedSpecDataset(root).verify()

    def test_foreign_dtype_rejected(self, store_root, tmp_path):
        root = self._copy_store(store_root, tmp_path / "s")
        manifest_path = root / MANIFEST_NAME
        doc = json.loads(manifest_path.read_text())
        doc["dtype"] = ">f8"
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError):
            ShardedSpecDataset(root)

    def test_gapped_row_ranges_rejected(self, store_root, tmp_path):
        root = self._copy_store(store_root, tmp_path / "s")
        manifest_path = root / MANIFEST_NAME
        doc = json.loads(manifest_path.read_text())
        doc["shards"][1]["start"] += 1
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError):
            ShardedSpecDataset(root)

    def test_bad_format_and_version_rejected(self, store_root, tmp_path):
        for key, value in (("format", "something-else"), ("version", 99)):
            root = self._copy_store(store_root,
                                    tmp_path / "s_{}".format(key))
            manifest_path = root / MANIFEST_NAME
            doc = json.loads(manifest_path.read_text())
            doc[key] = value
            manifest_path.write_text(json.dumps(doc))
            with pytest.raises(DatasetError):
                ShardedSpecDataset(root)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            ShardedSpecDataset(tmp_path)

    def test_truncated_shard_rejected(self, store_root, tmp_path):
        root = self._copy_store(store_root, tmp_path / "s")
        store = ShardedSpecDataset(root)
        path = store.shard_path(0)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:60])
        fresh = ShardedSpecDataset(root)
        with pytest.raises(DatasetError):
            fresh.shard_values(0)
