"""Benchmark-harness tests (population caching and printing)."""

import numpy as np
import pytest

from benchmarks import harness
from repro.mems import MEMS_SPECIFICATIONS


class TestLoadPopulation:
    STORE = "mems-accelerometer-s7"

    def test_generates_and_caches(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "CACHE_DIR", tmp_path)
        ds = harness.load_population("mems", 4, seed=7)
        assert len(ds) == 4
        assert (tmp_path / self.STORE / "manifest.json").exists()
        # Second call loads from disk (byte-identical values).
        again = harness.load_population("mems", 4, seed=7)
        assert np.array_equal(again.values, ds.values)

    def test_subsamples_larger_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "CACHE_DIR", tmp_path)
        big = harness.load_population("mems", 6, seed=7)
        small = harness.load_population("mems", 3, seed=7)
        assert np.array_equal(small.values, big.values[:3])
        # The subsample reused the one (device, seed) store.
        assert [p.name for p in tmp_path.iterdir()] == [self.STORE]

    def test_growing_request_extends_in_place(self, tmp_path,
                                              monkeypatch):
        """Asking for more rows resumes the existing store rather than
        regenerating it -- and matches a cold cache bit for bit."""
        monkeypatch.setattr(harness, "CACHE_DIR", tmp_path)
        small = harness.load_population("mems", 3, seed=7)
        grown = harness.load_population("mems", 5, seed=7)
        assert np.array_equal(grown.values[:3], small.values)
        assert [p.name for p in tmp_path.iterdir()] == [self.STORE]

    def test_untagged_legacy_cache_ignored(self, tmp_path, monkeypatch):
        """Flat pre-data-plane cache files (sequential draw order or
        per-instance ``.pi.npz``) must never be served as populations."""
        monkeypatch.setattr(harness, "CACHE_DIR", tmp_path)
        stale = harness.load_population("mems", 5, seed=7)
        import shutil

        shutil.rmtree(tmp_path / self.STORE)
        (tmp_path / "mems_5_7.pi.npz").write_bytes(b"not a population")
        fresh = harness.load_population("mems", 3, seed=7)
        assert np.array_equal(fresh.values, stale.values[:3])
        assert (tmp_path / self.STORE / "manifest.json").exists()

    def test_relabels_with_current_specifications(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(harness, "CACHE_DIR", tmp_path)
        ds = harness.load_population("mems", 3, seed=7)
        assert ds.specifications == MEMS_SPECIFICATIONS

    def test_parallel_generation_caches_identical_bytes(self, tmp_path,
                                                        monkeypatch):
        import shutil

        monkeypatch.setattr(harness, "CACHE_DIR", tmp_path)
        serial = harness.load_population("mems", 5, seed=3)
        shutil.rmtree(tmp_path / "mems-accelerometer-s3")
        parallel = harness.load_population("mems", 5, seed=3, n_jobs=2)
        assert np.array_equal(serial.values, parallel.values)

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError):
            harness.load_population("flux-capacitor", 5, seed=0)


class TestWallTime:
    def test_returns_result_and_duration(self):
        result, seconds = harness.wall_time(lambda a, b: a + b, 2, b=3)
        assert result == 5
        assert seconds >= 0.0


class TestPrintTable:
    def test_prints_all_rows(self, capsys):
        harness.print_table("demo", ["a", "b"],
                            [(1, 2.5), ("x", 0.125)])
        out = capsys.readouterr().out
        assert "demo" in out
        assert "2.500" in out
        assert "0.125" in out
