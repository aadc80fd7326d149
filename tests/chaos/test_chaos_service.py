"""Seeded fault schedules against a live service: never a wrong bin.

Each test runs once per chaos seed (see ``conftest.py``).  The
invariant under every injected fault class is the repo's
non-negotiable: a fault ends in a *typed error* or a *retried
bit-identical success* -- served decisions equal the offline floor,
journaled state replays to exactly the acked history, torn shard
bytes are rejected rather than loaded.
"""

import asyncio
import json
import os

import pytest

from repro.chaos import FaultInjector, FaultPlan
from repro.data import ShardedSpecDataset, generate_shards
from repro.data.manifest import shard_file_name
from repro.data.shard import open_shard_values
from repro.errors import DatasetError, JournalError
from repro.service import (
    ArtifactRegistry,
    FloorService,
    JournalWarning,
    StateJournal,
    TrafficPlan,
    offline_reference,
    run_load,
)

from tests.synthetic import SyntheticDut


def _registry(saved):
    registry = ArtifactRegistry()
    registry.register("synthA", "1", saved["lookup"])
    return registry


def _drive(saved, plan, traffic, n_clients=2):
    """run_load against a live FloorService under ``plan``'s faults."""

    async def main():
        service = FloorService(_registry(saved))
        await service.start("127.0.0.1", 0)
        try:
            return await run_load(
                "127.0.0.1", service.port, [traffic],
                n_clients=n_clients, max_chunk=4, seed=traffic.seed)
        finally:
            await service.stop()

    with FaultInjector(plan, sites=("service.response",)) as injector:
        report = asyncio.run(asyncio.wait_for(main(), 120))
    return report, injector


class TestResponseFaults:
    """Delay/drop/reset on the wire; decisions stay bit-identical."""

    def test_served_equals_offline_under_faults(self, chaos_seed, saved,
                                                lookup_pair):
        dut, artifact = lookup_pair
        traffic = TrafficPlan("synthA", dut, 64, seed=chaos_seed,
                              reference=offline_reference(artifact))
        plan = FaultPlan(chaos_seed, rate=0.4, max_faults=6)
        report, injector = _drive(saved, plan, traffic)

        # Faults actually fired (the schedule is dense enough that a
        # zero-fault run would mean the hook was never consulted) ...
        assert injector.n_fired("service.response") > 0
        # ... the injector's ledger matches the plan's own record ...
        assert (injector.n_fired("service.response")
                == len(plan.schedules["service.response"].fired))
        # ... and every one of the 64 devices still got the exact
        # offline decision, through whatever retries that took.
        assert report.plans[0].n_devices == 64
        assert report.equivalent

    def test_single_client_chaos_run_replays_exactly(self, chaos_seed,
                                                     saved, lookup_pair):
        # With one client the consultation order is deterministic, so
        # the *entire run* -- which requests got faulted, with which
        # kinds, and every served decision -- replays from the seed.
        dut, artifact = lookup_pair
        runs = []
        for _ in range(2):
            traffic = TrafficPlan("synthA", dut, 32, seed=chaos_seed,
                                  reference=offline_reference(artifact))
            plan = FaultPlan(chaos_seed, rate=0.4, max_faults=4)
            report, _ = _drive(saved, plan, traffic, n_clients=1)
            runs.append((plan.describe()["sites"]["service.response"],
                         [int(d) for d in report.plans[0].decisions],
                         report.equivalent))
        assert runs[0] == runs[1]
        assert runs[0][2] is True


class TestJournalFaults:
    """Disk-full / torn appends: 507, rollback, acked-only replay."""

    def test_faulted_register_is_507_then_replays_acked_state(
            self, chaos_seed, tmp_path, saved):
        state_dir = tmp_path / "state"
        service = FloorService(ArtifactRegistry(),
                               state_dir=str(state_dir))
        # One clean, acked registration before the chaos window.
        service.register_artifact("synthA", "1", saved["lookup"])

        plan = FaultPlan(chaos_seed, rate=1.0, max_faults=1)
        body = json.dumps({"device": "synthA", "version": "2",
                           "path": saved["swap"]}).encode()

        async def attempt():
            return await service._route("POST", "/artifacts", {}, body,
                                        ("127.0.0.1", 1))

        with FaultInjector(plan, sites=("journal.append",)):
            status, reply, _ = asyncio.run(attempt())
        service.journal.close()

        # The un-durable register surfaced as a typed 507 and was
        # rolled back (the fresh key is retired in place): the
        # registry never *serves* what the journal would forget.
        assert status == 507
        assert "not durable" in reply["error"]
        flags = {(e["device"], e["version"]): e["retired"]
                 for e in service.registry.describe()}
        assert flags[("synthA", "2")] is True
        assert flags[("synthA", "1")] is False
        [(_, kind)] = plan.schedules["journal.append"].fired

        # A restart reconstructs exactly the acked history.  A torn
        # append left half a record the recovery scan must truncate
        # (with a warning); disk-full left no bytes at all.
        if kind == "torn":
            with pytest.warns(JournalWarning, match="torn trailing"):
                restarted = FloorService(ArtifactRegistry(),
                                         state_dir=str(state_dir))
        else:
            assert kind == "disk_full"
            restarted = FloorService(ArtifactRegistry(),
                                     state_dir=str(state_dir))
        listing = [(e["device"], e["version"])
                   for e in restarted.registry.describe()]
        assert listing == [("synthA", "1")]

        # And the journal is writable again: the retried hot-swap
        # succeeds and takes the next sequence slot.
        entry = restarted.register_artifact("synthA", "2", saved["swap"])
        assert entry.version == "2"
        assert len(restarted.journal) == 2
        restarted.journal.close()

    def test_poisoned_journal_refuses_further_ops_until_restart(
            self, tmp_path, saved):
        # Not seed-parametrized: this pins the torn arm specifically.
        state_dir = tmp_path / "state"
        service = FloorService(ArtifactRegistry(),
                               state_dir=str(state_dir))
        service.register_artifact("synthA", "1", saved["lookup"])

        from repro.service import durability as durability_module
        durability_module.JOURNAL_FAULT_HOOK = lambda record: "torn"
        try:
            with pytest.raises(JournalError, match="not durable"):
                service.register_artifact("synthA", "2", saved["swap"])
        finally:
            durability_module.JOURNAL_FAULT_HOOK = None
        # Until a restart recovers the file, every control-plane op is
        # a typed refusal -- never a write after garbage.
        with pytest.raises(JournalError, match="restart"):
            service.retire_artifact("synthA", "1")
        service.journal.close()


class TestTornShardWrite:
    """A torn shard publish is a typed error; the bytes never load."""

    def test_reader_rejects_the_torn_file(self, chaos_seed, tmp_path):
        plan = FaultPlan(chaos_seed, rate=1.0, max_faults=1)
        root = tmp_path / "store"
        with FaultInjector(plan, sites=("shard.write",)) as injector:
            with pytest.raises(OSError):
                generate_shards(root, SyntheticDut(), 48, seed=5,
                                shard_rows=16)
        assert injector.n_fired("shard.write") == 1

        # The fault left a deliberately truncated file at the
        # *destination* (a crash on a filesystem without atomic
        # replace); the shard reader must refuse it as typed
        # corruption, never hand back short data.
        torn = os.path.join(str(root), shard_file_name(0))
        assert os.path.exists(torn)
        with pytest.raises(DatasetError):
            open_shard_values(torn)

    def test_regeneration_after_the_fault_window_heals(self, tmp_path):
        # The same seed tree that made repair possible makes chaos
        # recovery trivial: rerun generation without the injector and
        # the store verifies clean with the canonical hashes.
        root = tmp_path / "store"
        plan = FaultPlan(7, rate=1.0, max_faults=1)
        with FaultInjector(plan, sites=("shard.write",)):
            with pytest.raises(OSError):
                generate_shards(root, SyntheticDut(), 48, seed=5,
                                shard_rows=16)
        import shutil

        shutil.rmtree(root)
        store = generate_shards(root, SyntheticDut(), 48, seed=5,
                                shard_rows=16)
        assert store.verify() == 3
        reference = generate_shards(tmp_path / "ref", SyntheticDut(), 48,
                                    seed=5, shard_rows=16)
        assert store.shard_hashes() == reference.shard_hashes()


class TestJournalReplayEquivalence:
    """manifest_from_ops(journal) == the registry a restart serves."""

    def test_hot_swap_history_survives_restart_bit_exact(self, chaos_seed,
                                                         tmp_path, saved):
        state_dir = tmp_path / "state"
        service = FloorService(ArtifactRegistry(),
                               state_dir=str(state_dir))
        # A seeded shuffle of control-plane traffic: registers and a
        # retire, different per chaos seed, all acked.
        import numpy as np

        rng = np.random.default_rng(chaos_seed)
        versions = [str(v) for v in rng.permutation([1, 2, 3])]
        for version in versions:
            path = saved["swap"] if int(version) % 2 else saved["lookup"]
            service.register_artifact("synthA", version, path)
        service.retire_artifact("synthA", versions[0])
        before = service.registry.describe()
        service.journal.close()

        restarted = FloorService(ArtifactRegistry(),
                                 state_dir=str(state_dir))
        after = restarted.registry.describe()
        assert [(e["device"], e["version"], e["retired"], e["checksum"])
                for e in after] == [
            (e["device"], e["version"], e["retired"], e["checksum"])
            for e in before]

        # The journal's own manifest view agrees with both.
        journal = StateJournal(str(state_dir))
        manifest = StateJournal.manifest_from_ops(journal.replay())
        assert [(m["device"], m["version"], m["retired"])
                for m in manifest] == [
            (e["device"], e["version"], e["retired"]) for e in after]
        journal.close()
        restarted.journal.close()
