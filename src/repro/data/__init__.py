"""The million-device data plane: sharded, manifested Monte-Carlo stores.

``repro.data`` keeps arbitrarily large populations on disk as
fixed-boundary columnar shards plus a JSON manifest, and feeds them to
the rest of the stack -- floor, pipeline, benches, CLI, out-of-core
training -- through memory-mapped views.  Out-of-core training is
``GuardBandedClassifier(...).fit(store)``: labels stream shard by shard
and only the thin feature matrix is built, so the fit is bitwise the
in-RAM one.  Three invariants carry the whole layer (see
ARCHITECTURE.md, "The data plane"):

1. **Any shard in isolation**: each row is a pure function of
   ``(device, seed, row index)`` via the per-instance seed tree, so
   any shard can be regenerated -- and verified by content hash --
   without its neighbors.
2. **Concatenation is the in-RAM dataset**: reading every shard back
   in order is bit-identical to ``generate_instances`` at any shard
   size and worker count.
3. **Extending never re-simulates**: growing a store rewrites at most
   the trailing partial shard and is file-for-file hash-identical to a
   cold generation of the larger size.
"""

from repro.data.generate import (
    DEFAULT_SHARD_ROWS,
    dataset_device_name,
    ensure_dataset,
    extend_shards,
    generate_shards,
    repair_shards,
)
from repro.data.manifest import Manifest
from repro.data.shard import array_sha256
from repro.data.store import ShardedSpecDataset

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "Manifest",
    "ShardedSpecDataset",
    "array_sha256",
    "dataset_device_name",
    "ensure_dataset",
    "extend_shards",
    "generate_shards",
    "repair_shards",
]
