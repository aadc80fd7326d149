""":class:`ShardedSpecDataset`: a manifested, memory-mapped population.

The sharded dataset is the out-of-core sibling of
:class:`~repro.process.dataset.SpecDataset`.  It exposes the same
vocabulary the rest of the codebase already speaks --
``specifications``, ``names``, ``normalized_values`` -- and streams
row batches (``iter_batches``, ``head``, ``to_dataset``), backed by
read-only memmaps over the shard files, so the peak resident
footprint of any consumer is bounded by how much it slices, not by
the population size.

Bit-identity contract: every accessor reproduces *exactly* the bytes
the in-RAM path would produce.  Shards store values spec-major
``(n_specs, shard_rows)``; row batches transpose a slice back to
row-major, which is a pure data movement.  ``normalized_values`` and
``shifted_labels`` apply the same element-wise arithmetic as
:class:`SpecificationSet` does in RAM, one shard panel at a time --
element-wise ops are chunk-invariant, so the assembled results are
bitwise equal to the monolithic computation.
"""

import os

import numpy as np

from repro.data import shard as shard_io
from repro.data.manifest import Manifest
from repro.errors import DatasetError
from repro.process.dataset import SpecDataset


class ShardedSpecDataset:
    """Read view over a shard store directory written by ``repro.data``.

    Parameters
    ----------
    root:
        Directory holding ``manifest.json`` and the shard files.
    """

    def __init__(self, root):
        self.root = os.fspath(root)
        self.manifest = Manifest.load(self.root)
        self._maps = {}

    # -- identity -------------------------------------------------------------
    @property
    def specifications(self):
        return self.manifest.specifications

    @property
    def names(self):
        return self.specifications.names

    @property
    def n_rows(self):
        return self.manifest.n_rows

    @property
    def n_specs(self):
        return self.manifest.n_specs

    @property
    def seed(self):
        return self.manifest.seed

    @property
    def device(self):
        return self.manifest.device

    @property
    def shard_rows(self):
        return self.manifest.shard_rows

    @property
    def n_shards(self):
        return len(self.manifest.shards)

    def __len__(self):
        return self.n_rows

    def __repr__(self):
        return ("ShardedSpecDataset({!r}, {} rows, {} specs, "
                "{} shards x {})".format(
                    self.device, self.n_rows, self.n_specs,
                    self.n_shards, self.shard_rows))

    # -- shard access ---------------------------------------------------------
    def shard_path(self, index):
        return os.path.join(self.root, self.manifest.shards[index]["file"])

    def shard_values(self, index):
        """Spec-major ``(n_specs, rows)`` memmap of one shard."""
        if index not in self._maps:
            entry = self.manifest.shards[index]
            rows = int(entry["stop"]) - int(entry["start"])
            self._maps[index] = shard_io.open_shard_values(
                self.shard_path(index),
                expect_dtype=self.manifest.dtype,
                expect_shape=(self.n_specs, rows))
        return self._maps[index]

    def iter_batches(self, batch_size=None):
        """Yield row-major ``(rows, n_specs)`` float64 batches.

        The default batch is one shard; a smaller ``batch_size`` slices
        within shards.  Concatenating all batches reproduces the in-RAM
        value matrix bitwise.
        """
        for index in range(self.n_shards):
            values = self.shard_values(index)
            rows = values.shape[1]
            step = rows if batch_size is None else int(batch_size)
            if step <= 0:
                raise DatasetError("batch_size must be positive")
            for start in range(0, rows, step):
                block = values[:, start:start + step]
                yield np.ascontiguousarray(block.T, dtype=float)

    def normalized_values(self, names=None):
        """Range-normalized ``(n_rows, k)`` feature matrix.

        Assembled shard panel by shard panel; bitwise equal to
        ``SpecDataset.normalized_values`` on the concatenated values
        because normalization is element-wise per column.
        """
        if names is None:
            names = self.names
        names = list(names)
        specs = self.specifications.subset(names)
        idx = [self.specifications.index(n) for n in names]
        out = np.empty((self.n_rows, len(names)), dtype=float)
        row = 0
        for index in range(self.n_shards):
            values = self.shard_values(index)
            panel = np.ascontiguousarray(values[idx, :].T, dtype=float)
            out[row:row + panel.shape[0]] = specs.normalize(panel)
            row += panel.shape[0]
        return out

    def shifted_labels(self, names, deltas):
        """Labels against the named specs shifted by ``deltas``.

        The streamed counterpart of
        ``specs.subset(names).shifted(deltas).labels(values)``; pass
        ``None`` for unshifted labels.  Comparisons are exact, so the
        result is bitwise equal to the in-RAM computation.
        """
        names = list(names)
        specs = self.specifications.subset(names)
        if deltas is not None:
            specs = specs.shifted(deltas)
        idx = [self.specifications.index(n) for n in names]
        out = np.empty(self.n_rows, dtype=int)
        row = 0
        for index in range(self.n_shards):
            values = self.shard_values(index)
            panel = np.ascontiguousarray(values[idx, :].T, dtype=float)
            out[row:row + panel.shape[0]] = specs.labels(panel)
            row += panel.shape[0]
        return out

    # -- conversion -----------------------------------------------------------
    def head(self, n):
        """First ``n`` rows as an in-RAM :class:`SpecDataset`."""
        n = int(n)
        if not 0 < n <= self.n_rows:
            raise DatasetError(
                "head({}) out of range for a {}-row dataset".format(
                    n, self.n_rows))
        out = np.empty((n, self.n_specs), dtype=float)
        row = 0
        for batch in self.iter_batches():
            if row >= n:
                break
            take = min(batch.shape[0], n - row)
            out[row:row + take] = batch[:take]
            row += take
        return SpecDataset(self.specifications, out)

    def to_dataset(self):
        """The whole store as an in-RAM :class:`SpecDataset`."""
        return self.head(self.n_rows)

    # -- integrity ------------------------------------------------------------
    def verify(self):
        """Re-hash every shard against the manifest.

        Raises :class:`~repro.errors.DatasetError` on the first shard
        whose stored bytes do not match its recorded content hash, and
        returns the number of shards checked otherwise.
        """
        for index, entry in enumerate(self.manifest.shards):
            digest = shard_io.array_sha256(self.shard_values(index))
            if digest != entry["sha256"]:
                raise DatasetError(
                    "shard {} ({}) fails verification: stored hash {} "
                    "!= manifest hash {}".format(
                        index, entry["file"], digest, entry["sha256"]))
        return self.n_shards

    def shard_hashes(self):
        """Manifest content hashes, in shard order."""
        return [entry["sha256"] for entry in self.manifest.shards]
