"""Experiment F4 -- control-plane journal: append cost, replay speed.

The durability contract of ``repro serve --state-dir`` is paid for on
two clocks: every acked control-plane operation costs one fsync'd
append (the serving-path price), and every restart costs one full
journal scan (checksum + sequence validation) before the first request
is answered (the recovery price).  This experiment measures both at
increasing journal lengths, plus the torn-tail recovery scan a
``kill -9`` mid-append leaves behind, and asserts the replay is exact:
``manifest_from_ops`` over the recovered records reproduces the
newest-active history the appends built, element for element.

Runnable directly (``python benchmarks/bench_journal_replay.py``) or
through pytest-benchmark like every other experiment here.
"""

import os
import tempfile
import time
import warnings

if __name__ == "__main__":
    # Allow `python benchmarks/bench_journal_replay.py` without an
    # installed package or PYTHONPATH (pytest gets these from
    # pyproject.toml's pythonpath setting instead).
    import pathlib
    import sys

    _root = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_root), str(_root / "src")]

from benchmarks.harness import print_table, run_once, wall_time
from repro.runtime import cpu_count
from repro.service import JournalWarning, StateJournal
from repro.service.durability import JOURNAL_FILE, _encode

#: Journal lengths (control-plane ops) the scan cost is measured at.
#: Thousands of ops is already far beyond any real deployment's
#: hot-swap history; recovery must stay interactive there.
N_OPS = (200, 2000)

#: Devices cycled through the synthetic hot-swap history.
N_DEVICES = 8


def _write_history(state_dir, n_ops):
    """Append a valid ``n_ops``-long hot-swap history; returns the
    seconds spent appending (fsync per op included)."""
    journal = StateJournal(state_dir)
    versions = {}

    def one_op(index):
        device = "dev{}".format(index % N_DEVICES)
        if index % 5 == 4 and versions.get(device):
            journal.append("retire", device, versions[device][-1])
            versions[device].pop()
            return
        version = str(len(versions.setdefault(device, [])) + index)
        journal.append("register", device, version,
                       path="{}.rtp".format(device))
        versions[device].append(version)

    start = time.perf_counter()
    for index in range(n_ops):
        one_op(index)
    elapsed = time.perf_counter() - start
    journal.close()
    return elapsed


def _tear_tail(state_dir):
    """Append half an encoded record -- the kill -9 on-disk shape."""
    line = _encode({"seq": 10 ** 6, "op": "retire", "device": "devX",
                    "version": "1"})
    with open(os.path.join(str(state_dir), JOURNAL_FILE), "ab") as handle:
        handle.write(line[: len(line) // 2])


def run_experiment():
    rows = []
    record = {"n_devices": N_DEVICES, "lengths": {}}
    for n_ops in N_OPS:
        with tempfile.TemporaryDirectory() as state_dir:
            append_s = _write_history(state_dir, n_ops)

            # Clean recovery: open + full checksum/sequence scan.
            journal, replay_s = wall_time(StateJournal, state_dir)
            ops = journal.replay()
            assert len(ops) == n_ops
            manifest = StateJournal.manifest_from_ops(ops)
            assert manifest, "replay lost the registered history"
            journal.close()

            # Torn-tail recovery: the scan must also truncate the
            # partial record a crash mid-append left behind, and lose
            # nothing that was acked.
            _tear_tail(state_dir)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", JournalWarning)
                torn_journal, torn_s = wall_time(StateJournal, state_dir)
            assert len(torn_journal) == n_ops
            recovered = StateJournal.manifest_from_ops(
                torn_journal.replay())
            assert [(m["device"], m["version"], m["retired"])
                    for m in recovered] == [
                (m["device"], m["version"], m["retired"])
                for m in manifest]
            torn_journal.close()

        appends_per_s = n_ops / append_s
        rows.append([n_ops, appends_per_s, append_s / n_ops * 1e3,
                     replay_s * 1e3, torn_s * 1e3])
        record["lengths"][str(n_ops)] = {
            "append_s": append_s,
            "appends_per_s": appends_per_s,
            "fsync_append_ms": append_s / n_ops * 1e3,
            "replay_ms": replay_s * 1e3,
            "torn_recovery_ms": torn_s * 1e3,
        }

    print_table(
        "F4: control-plane journal append + replay ({} CPUs available)"
        .format(cpu_count()),
        ["ops", "appends/s", "append ms", "replay ms", "torn ms"],
        rows)
    return record


def bench_journal_replay(benchmark):
    """pytest-benchmark entry point (records the whole sweep)."""
    run_once(benchmark, run_experiment)


if __name__ == "__main__":
    run_experiment()
