"""Resumable shard-store generation on top of the seed tree.

Cold generation streams :func:`~repro.runtime.simulation.
generate_instance_batches` with ``batch_size == shard_rows`` so every
batch is exactly one shard; the manifest is re-saved after each shard,
so an interrupted run leaves a valid (shorter) store behind.

Extension never re-simulates the prefix.  Shard boundaries are fixed
(shard ``i`` always covers ``[i * shard_rows, (i + 1) * shard_rows)``),
so growing ``N -> M`` splits into at most two generation calls:

* complete the trailing partial shard, if any, by simulating only its
  missing slots (``first_slot=N``) and rewriting that one file with the
  old rows read back from disk;
* stream the remaining shard-aligned rows exactly like a cold run.

Because each slot is a pure function of ``(dut, seed, slot index)``,
the extended store is *file-for-file hash-identical* to a cold
generation of ``M`` rows -- including per-shard failure counts, and the
run-level abort decision: the extension seeds its
:class:`~repro.process.montecarlo.GenerationReport` with the prefix's
failure totals from the manifest and budgets against the target size.
"""

import os
import re

import numpy as np

from repro.data import shard as shard_io
from repro.data.manifest import Manifest, shard_file_name
from repro.data.store import ShardedSpecDataset
from repro.errors import DatasetError
from repro.process.montecarlo import (
    GenerationReport,
    default_max_failures,
)
from repro.runtime.simulation import generate_instance_batches
from repro.telemetry import get_telemetry

#: Default rows per shard: ~64k float64 cells per spec column -- large
#: enough to amortize file and GEMM overheads, small enough that a
#: handful of resident shards stay in the tens of megabytes.
DEFAULT_SHARD_ROWS = 8192


def dataset_device_name(dut):
    """The device label recorded in manifests for ``dut``."""
    return str(getattr(dut, "name", type(dut).__name__))


def _store_exists(root):
    return os.path.exists(os.path.join(os.fspath(root), "manifest.json"))


def _append_batches(root, manifest, batch_iter, report, prefix=None):
    """Write streamed shard-aligned batches; returns rows appended.

    ``prefix`` carries the trailing-partial-shard completion: a tuple
    ``(index, old_values, old_failed, old_simulated)`` meaning the
    *first* yielded batch extends shard ``index`` whose existing
    spec-major values and failure accounting are given.
    """
    appended = 0
    prev_failed, prev_simulated = report.n_failed, report.n_simulated
    for batch in batch_iter:
        values = np.ascontiguousarray(batch.T)  # spec-major
        d_failed = report.n_failed - prev_failed
        d_simulated = report.n_simulated - prev_simulated
        prev_failed, prev_simulated = report.n_failed, report.n_simulated
        if prefix is not None:
            index, old_values, old_failed, old_simulated = prefix
            prefix = None
            values = np.concatenate([old_values, values], axis=1)
            d_failed += old_failed
            d_simulated += old_simulated
            start = int(manifest.shards[index]["start"])
            del manifest.shards[index:]
        else:
            index = len(manifest.shards)
            start = index * manifest.shard_rows
        stop = start + values.shape[1]
        digest = shard_io.write_shard(
            os.path.join(root, shard_file_name(index)), values)
        manifest.shards.append({
            "file": shard_file_name(index), "start": start, "stop": stop,
            "sha256": digest, "n_failed": d_failed,
            "n_simulated": d_simulated,
        })
        manifest.n_rows = stop
        event = manifest.events[-1]
        # The event rate covers only this op's rows -- an extension's
        # free prefix must not inflate its throughput.
        rate = (0.0 if report.elapsed_s <= 0.0 else
                60.0 * (stop - int(event["start"])) / report.elapsed_s)
        event.update(
            stop=stop,
            elapsed_s=round(report.elapsed_s, 6),
            instances_per_minute=round(rate, 3))
        manifest.save(root)
        appended += stop - start
        # Per-shard throughput telemetry (the simulation inside
        # batch_iter already carries its own sim.batch spans).
        tel = get_telemetry()
        if tel.enabled:
            tel.counter("repro_data_shards_total", 1)
            tel.counter("repro_data_rows_total", values.shape[1])
            tel.gauge("repro_data_instances_per_minute", rate)
    return appended


def generate_shards(root, dut, n_rows, seed, shard_rows=DEFAULT_SHARD_ROWS,
                    n_jobs=None, max_failures=None, device=None):
    """Generate a fresh shard store; returns a :class:`ShardedSpecDataset`.

    ``root`` must not already hold a store (use :func:`extend_shards`
    or :func:`ensure_dataset` to grow one).  The concatenated shards
    are bit-identical to ``generate_instances(dut, n_rows, seed)`` at
    any ``shard_rows`` and ``n_jobs``.
    """
    root = os.fspath(root)
    if _store_exists(root):
        raise DatasetError(
            "{} already holds a shard store; use extend_shards to grow "
            "it".format(root))
    if int(n_rows) <= 0:
        raise DatasetError("n_rows must be positive")
    if int(shard_rows) < 1:
        raise DatasetError(
            "shard_rows must be positive, not {!r}".format(shard_rows))
    n_rows = int(n_rows)
    budget = (default_max_failures(n_rows)
              if max_failures is None else int(max_failures))
    report = GenerationReport(n_requested=n_rows)
    # The scheduler checks the seed and budget before the store exists.
    batches = generate_instance_batches(
        dut, n_rows, seed, batch_size=shard_rows,
        n_jobs=n_jobs, max_failures=budget, report=report)
    manifest = Manifest(
        device=device or dataset_device_name(dut), seed=seed,
        shard_rows=shard_rows, n_rows=0,
        specifications=dut.specifications)
    manifest.events.append({
        "op": "generate", "start": 0, "stop": 0, "max_failures": budget,
        "elapsed_s": 0.0, "instances_per_minute": 0.0,
    })
    os.makedirs(root, exist_ok=True)
    with get_telemetry().span("data.generate", rows=n_rows,
                              device=manifest.device):
        _append_batches(root, manifest, batches, report)
    return ShardedSpecDataset(root)


def extend_shards(root, dut, n_rows, seed=None, n_jobs=None,
                  max_failures=None):
    """Grow an existing store to ``n_rows`` without re-simulating.

    Returns the reopened :class:`ShardedSpecDataset`.  ``seed``
    defaults to the manifest's value; a ``seed`` that contradicts it
    raises -- the store's identity is its ``(device, seed)`` pair.  If
    the store already holds ``n_rows`` or more, this is a no-op.
    """
    root = os.fspath(root)
    store = ShardedSpecDataset(root)
    manifest = store.manifest
    if manifest.specifications != dut.specifications:
        raise DatasetError(
            "store {} was generated for a different specification set "
            "than this DUT".format(root))
    if seed is not None and int(seed) != manifest.seed:
        raise DatasetError(
            "store {} was generated with seed {}, not {} -- extending "
            "would mix seed trees".format(root, manifest.seed, seed))
    n_rows = int(n_rows)
    old_n = manifest.n_rows
    if n_rows <= old_n:
        return store
    # A resume event: the store grows from old_n without re-simulating
    # its prefix.  Count it and span the whole extension.
    tel = get_telemetry()
    tel.counter("repro_data_resume_total", 1)
    budget = (default_max_failures(n_rows)
              if max_failures is None else int(max_failures))
    # Seed the report with the prefix's accounting so the shared
    # failure budget -- and therefore the abort decision -- matches a
    # cold generation of n_rows.
    report = GenerationReport(n_requested=n_rows)
    report.n_failed = sum(int(s["n_failed"]) for s in manifest.shards)
    report.n_simulated = sum(int(s["n_simulated"])
                             for s in manifest.shards)
    manifest.events.append({
        "op": "extend", "start": old_n, "stop": old_n,
        "max_failures": budget, "elapsed_s": 0.0,
        "instances_per_minute": 0.0,
    })

    shard_rows = manifest.shard_rows
    row = old_n
    with tel.span("data.extend", rows=n_rows - old_n,
                  device=manifest.device, resume_at=old_n):
        if old_n % shard_rows:
            # Complete the trailing partial shard: simulate only its
            # missing slots, merge with the rows already on disk.
            index = old_n // shard_rows
            fill = min(n_rows, (index + 1) * shard_rows)
            entry = manifest.shards[index]
            old_values = np.array(store.shard_values(index))
            store._maps.pop(index, None)  # file is about to be replaced
            batches = generate_instance_batches(
                dut, fill - old_n, manifest.seed, batch_size=shard_rows,
                n_jobs=n_jobs, max_failures=budget,
                first_slot=old_n, report=report)
            _append_batches(root, manifest, batches, report,
                            prefix=(index, old_values,
                                    int(entry["n_failed"]),
                                    int(entry["n_simulated"])))
            row = fill
        if row < n_rows:
            batches = generate_instance_batches(
                dut, n_rows - row, manifest.seed, batch_size=shard_rows,
                n_jobs=n_jobs, max_failures=budget,
                first_slot=row, report=report)
            _append_batches(root, manifest, batches, report)
    return ShardedSpecDataset(root)


def _store_budget(manifest):
    """The failure budget a store was generated under.

    The largest ``max_failures`` recorded by the manifest's generate
    and extend events (a store built with a larger budget than the
    default must be repaired under it), else the default for the
    store's size.  A larger budget never changes a row that succeeded,
    so the largest recorded one reproduces every shard.
    """
    recorded = [int(event["max_failures"]) for event in manifest.events
                if event.get("op") in ("generate", "extend")
                and event.get("max_failures") is not None]
    if recorded:
        return max(recorded)
    return default_max_failures(max(manifest.n_rows, 1))


def repair_shards(root, dut, n_jobs=None):
    """Regenerate corrupted shards from the per-instance seed tree.

    Re-hashes every shard against the manifest; each shard that fails
    -- bad content hash, truncated file, unreadable container, missing
    file -- is re-simulated from the seed tree (exactly its slot range
    ``[start, stop)`` via ``first_slot``), rewritten atomically, and
    re-verified against the *original* manifest hash.  Because every
    slot is a pure function of ``(dut, seed, slot index)``, a repaired
    shard is bit-identical to the one first generated; a repair that
    does not hash back to the manifest means the DUT or seed does not
    match the store, and raises
    :class:`~repro.errors.DatasetError` rather than bless wrong bytes.

    Returns the list of repaired shard indices (empty = store clean).
    """
    root = os.fspath(root)
    store = ShardedSpecDataset(root)
    manifest = store.manifest
    if manifest.specifications != dut.specifications:
        raise DatasetError(
            "store {} was generated for a different specification set "
            "than this DUT".format(root))
    budget = _store_budget(manifest)
    repaired = []
    tel = get_telemetry()
    with tel.span("data.repair", device=manifest.device,
                  shards=len(manifest.shards)):
        for index, entry in enumerate(manifest.shards):
            store._maps.pop(index, None)  # never verify a cached map
            try:
                digest = shard_io.array_sha256(store.shard_values(index))
                healthy = digest == entry["sha256"]
            except (DatasetError, OSError, ValueError, KeyError):
                # Unreadable counts as corrupt: truncated zip, torn
                # write, clobbered npy header, missing file.
                healthy = False
            store._maps.pop(index, None)
            if healthy:
                continue
            start, stop = int(entry["start"]), int(entry["stop"])
            report = GenerationReport(n_requested=stop - start)
            batches = generate_instance_batches(
                dut, stop - start, manifest.seed, batch_size=stop - start,
                n_jobs=n_jobs, max_failures=budget, first_slot=start,
                report=report)
            values = np.ascontiguousarray(np.vstack(list(batches)).T)
            digest = shard_io.write_shard(
                os.path.join(root, entry["file"]), values)
            if digest != entry["sha256"]:
                raise DatasetError(
                    "repaired shard {} ({}) hashes to {} but the manifest "
                    "records {} -- this DUT/seed does not reproduce "
                    "the store; refusing to bless wrong bytes".format(
                        index, entry["file"], digest, entry["sha256"]))
            repaired.append(index)
            tel.counter("repro_data_repaired_shards_total", 1)
    if repaired:
        manifest.events.append({
            "op": "repair", "start": 0, "stop": manifest.n_rows,
            "shards": list(repaired),
        })
        manifest.save(root)
    return repaired


def ensure_dataset(root, dut, n_rows, seed, shard_rows=DEFAULT_SHARD_ROWS,
                   n_jobs=None, max_failures=None, device=None):
    """Open-or-grow the ``(device, seed)`` store under cache root ``root``.

    The store lives in ``root/<device>-s<seed>``.  A missing store is
    generated; an existing one is extended to at least ``n_rows`` (its
    recorded ``shard_rows`` wins over the argument -- boundaries are
    fixed for the store's lifetime).  Returns the
    :class:`ShardedSpecDataset`, which may hold *more* than ``n_rows``
    rows; consumers take the head they need (a prefix of the seed tree
    is the smaller run, by construction).
    """
    device = device or dataset_device_name(dut)
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", device)
    path = os.path.join(os.fspath(root), "{}-s{}".format(safe, int(seed)))
    if _store_exists(path):
        return extend_shards(path, dut, n_rows, seed=seed, n_jobs=n_jobs,
                             max_failures=max_failures)
    return generate_shards(path, dut, n_rows, seed,
                           shard_rows=shard_rows, n_jobs=n_jobs,
                           max_failures=max_failures, device=device)
