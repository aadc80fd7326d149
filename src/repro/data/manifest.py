"""Dataset manifests: the JSON source of truth for a shard store.

The manifest records everything needed to (a) reproduce any shard in
isolation and (b) refuse to read a store that does not match what was
written: the device and generation scheme, the base seed of the
per-instance seed tree, the spec universe (full
:class:`~repro.core.specs.Specification` records, not just names), the
stored dtype, and per-shard row ranges with content hashes.

Shard boundaries are *fixed* by ``shard_rows``: shard ``i`` always
covers rows ``[i * shard_rows, min(n_rows, (i + 1) * shard_rows))``.
Because every row is a pure function of ``(device, seed, row index)``,
extending a dataset reuses every complete shard untouched and rewrites
at most the one trailing partial shard -- and a cold regeneration to
the larger size reproduces the identical files, hash for hash.

``events`` is an append-only log of generation/extension runs (row
ranges, wall-clock, throughput).  It is diagnostic only: two stores
with equal shards but different event timings are the same dataset.
"""

import json
import os
import tempfile

import numpy as np

from repro.core.specs import Specification, SpecificationSet
from repro.errors import DatasetError

FORMAT = "repro-dataset"
VERSION = 1

#: Manifest file name inside a dataset directory.
MANIFEST_NAME = "manifest.json"

#: Per-instance seed-tree scheme (``SeedSequence(seed).spawn``); the
#: only scheme this version writes or reads.
SCHEME = "per-instance-seed-tree"

#: Shards always store native little-endian float64.
DTYPE = "<f8"


def specs_to_meta(specifications):
    """Serialize a SpecificationSet to plain JSON records."""
    return [{
        "name": s.name, "unit": s.unit, "nominal": s.nominal,
        "low": s.low, "high": s.high, "description": s.description,
    } for s in specifications]


def specs_from_meta(records):
    """Rebuild a SpecificationSet from :func:`specs_to_meta` output."""
    return SpecificationSet([
        Specification(m["name"], m["unit"], m["nominal"], m["low"],
                      m["high"], m.get("description", ""))
        for m in records])


def shard_file_name(index):
    """Canonical file name of shard ``index``."""
    return "shard-{:05d}.npz".format(index)


class Manifest:
    """In-memory form of ``manifest.json``."""

    def __init__(self, device, seed, shard_rows, n_rows,
                 specifications, shards=None, events=None,
                 scheme=SCHEME, dtype=DTYPE):
        if not isinstance(specifications, SpecificationSet):
            specifications = SpecificationSet(specifications)
        self.device = str(device)
        self.seed = int(seed)
        self.shard_rows = int(shard_rows)
        self.n_rows = int(n_rows)
        self.specifications = specifications
        self.shards = list(shards or [])
        self.events = list(events or [])
        self.scheme = scheme
        self.dtype = dtype
        self._check()

    # -- validation -----------------------------------------------------------
    def _check(self):
        if self.scheme != SCHEME:
            raise DatasetError(
                "unsupported generation scheme {!r} (this version "
                "understands {!r})".format(self.scheme, SCHEME))
        if np.dtype(self.dtype) != np.dtype("<f8"):
            raise DatasetError(
                "manifest records dtype {!r}; shard stores are "
                "little-endian float64 ({!r}) -- refusing a mismatched "
                "load".format(self.dtype, DTYPE))
        if self.shard_rows <= 0:
            raise DatasetError("shard_rows must be positive")
        if self.n_rows < 0:
            raise DatasetError("n_rows must be non-negative")
        expected = 0
        for index, shard in enumerate(self.shards):
            start, stop = int(shard["start"]), int(shard["stop"])
            if start != expected or stop <= start:
                raise DatasetError(
                    "manifest shard {} covers rows [{}, {}) but the "
                    "previous shard ended at row {} -- row ranges must "
                    "be contiguous".format(index, start, stop, expected))
            if start != index * self.shard_rows:
                raise DatasetError(
                    "manifest shard {} starts at row {} instead of the "
                    "fixed boundary {}".format(
                        index, start, index * self.shard_rows))
            if stop - start > self.shard_rows:
                raise DatasetError(
                    "manifest shard {} holds {} rows, more than "
                    "shard_rows={}".format(
                        index, stop - start, self.shard_rows))
            if (stop - start < self.shard_rows
                    and index != len(self.shards) - 1):
                raise DatasetError(
                    "manifest shard {} is partial but not the last "
                    "shard".format(index))
            expected = stop
        if expected != self.n_rows:
            raise DatasetError(
                "manifest records {} rows but its shards cover {}"
                .format(self.n_rows, expected))

    @property
    def n_specs(self):
        return len(self.specifications)

    # -- persistence ----------------------------------------------------------
    def to_json(self):
        return {
            "format": FORMAT,
            "version": VERSION,
            "device": self.device,
            "scheme": self.scheme,
            "seed": self.seed,
            "dtype": self.dtype,
            "shard_rows": self.shard_rows,
            "n_rows": self.n_rows,
            "specifications": specs_to_meta(self.specifications),
            "shards": [{
                "file": s["file"],
                "start": int(s["start"]),
                "stop": int(s["stop"]),
                "sha256": s["sha256"],
                "n_failed": int(s.get("n_failed", 0)),
                "n_simulated": int(s.get("n_simulated", 0)),
            } for s in self.shards],
            "events": self.events,
        }

    def save(self, root):
        """Atomically write ``manifest.json`` under ``root``."""
        root = os.fspath(root)
        payload = json.dumps(self.to_json(), indent=2, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload + "\n")
            os.replace(tmp, os.path.join(root, MANIFEST_NAME))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, root):
        path = os.path.join(os.fspath(root), MANIFEST_NAME)
        if not os.path.exists(path):
            raise DatasetError(
                "{} is not a shard store (no {})".format(
                    root, MANIFEST_NAME))
        try:
            with open(path) as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise DatasetError(
                "cannot read manifest {}: {}".format(path, exc))
        if not isinstance(raw, dict) or raw.get("format") != FORMAT:
            raise DatasetError(
                "{} is not a {} manifest".format(path, FORMAT))
        if raw.get("version") != VERSION:
            raise DatasetError(
                "manifest {} has version {!r}; this build reads "
                "version {}".format(path, raw.get("version"), VERSION))
        try:
            return cls(
                device=raw["device"], seed=raw["seed"],
                shard_rows=raw["shard_rows"], n_rows=raw["n_rows"],
                specifications=specs_from_meta(raw["specifications"]),
                shards=raw["shards"], events=raw.get("events", []),
                scheme=raw.get("scheme", SCHEME),
                dtype=raw.get("dtype", DTYPE))
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(
                "manifest {} is malformed: {!r}".format(path, exc))
