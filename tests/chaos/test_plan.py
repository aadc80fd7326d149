"""FaultPlan determinism: every chaos run replays from one integer.

The whole chaos harness rests on the plan being a pure function of its
seed -- the same discipline the data plane uses for simulation.  These
tests pin that down at the unit level: identical seeds produce
identical fault schedules and kill schedules, sites draw from
independent streams, the injector installs and restores the production
hooks exactly, and the startup-fault env protocol fires once per
worker index.
"""

import pytest

from repro.chaos import FaultInjector, FaultPlan, corrupt_file
from repro.chaos.inject import (
    SITE_KINDS,
    SITES,
    STARTUP_ENV,
    worker_startup_fault,
)
from repro.errors import ServiceError


def _consume(plan, site, n):
    return [plan.schedule(site).draw() for _ in range(n)]


class TestSiteSchedule:
    def test_same_seed_replays_every_site(self):
        first = FaultPlan(31, rate=0.3, max_faults=16)
        second = FaultPlan(31, rate=0.3, max_faults=16)
        for site in SITES:
            assert _consume(first, site, 50) == _consume(second, site, 50)
            assert (first.schedules[site].fired
                    == second.schedules[site].fired)

    def test_sites_draw_from_independent_streams(self):
        # Consuming one site's stream must not perturb another's: the
        # journal schedule is identical whether or not the response
        # schedule was consulted first.
        undisturbed = FaultPlan(7, rate=0.5, max_faults=64)
        disturbed = FaultPlan(7, rate=0.5, max_faults=64)
        _consume(disturbed, "cluster.response", 100)
        assert (_consume(disturbed, "journal.append", 40)
                == _consume(undisturbed, "journal.append", 40))

    def test_max_faults_caps_without_shifting_the_stream(self):
        # The capped schedule fires exactly the first K of the
        # uncapped schedule's faults, at the same consultation
        # indices with the same kinds: hit/kind draws burn whether or
        # not the cap lets them fire.
        capped = FaultPlan(11, rate=0.6, max_faults=3)
        uncapped = FaultPlan(11, rate=0.6, max_faults=1000)
        _consume(capped, "service.response", 60)
        _consume(uncapped, "service.response", 60)
        full = uncapped.schedules["service.response"].fired
        assert len(full) > 3
        assert capped.schedules["service.response"].fired == full[:3]

    def test_delay_bounds_and_kind_domain(self):
        plan = FaultPlan(5, rate=1.0, max_faults=1000)
        for site in SITES:
            for decision in _consume(plan, site, 30):
                kind, delay_s = decision
                assert kind in SITE_KINDS[site]
                assert 0.01 <= delay_s < 0.05

    def test_unknown_site_is_typed(self):
        with pytest.raises(ServiceError, match="unknown chaos site"):
            FaultPlan(1).schedule("floor.response")


class TestKillSchedule:
    def test_same_seed_same_kills(self):
        assert (FaultPlan(23).kill_schedule(4, 6, span_s=3.0)
                == FaultPlan(23).kill_schedule(4, 6, span_s=3.0))

    def test_kills_are_sorted_in_range_victims_valid(self):
        kills = FaultPlan(9).kill_schedule(3, 8, span_s=2.5)
        times = [at_s for at_s, _ in kills]
        assert times == sorted(times)
        assert all(0.1 <= at_s <= 2.5 for at_s in times)
        assert all(0 <= victim < 3 for _, victim in kills)

    def test_kill_stream_is_independent_of_site_consumption(self):
        consumed = FaultPlan(13, rate=0.5)
        for site in SITES:
            _consume(consumed, site, 25)
        assert (consumed.kill_schedule(2, 4)
                == FaultPlan(13).kill_schedule(2, 4))


class TestFaultInjector:
    def test_unknown_site_subset_is_typed(self):
        with pytest.raises(ServiceError, match="unknown chaos site"):
            FaultInjector(FaultPlan(1), sites=("service.response", "nope"))

    def test_hooks_install_and_restore_exactly(self):
        from repro.data import shard as shard_module
        from repro.service import cluster as cluster_module
        from repro.service import durability as durability_module
        from repro.service import server as server_module

        # One response hook serves both tiers; the cluster module no
        # longer carries its own.
        assert not hasattr(cluster_module, "RESPONSE_FAULT_HOOK")

        sentinel = object()
        server_module.RESPONSE_FAULT_HOOK = sentinel
        try:
            injector = FaultInjector(FaultPlan(3))
            with injector:
                # Bound methods compare equal (not identical) per
                # attribute access.
                assert (server_module.RESPONSE_FAULT_HOOK
                        == injector._response_hook)
                assert (durability_module.JOURNAL_FAULT_HOOK
                        == injector._journal_hook)
                assert (shard_module.SHARD_FAULT_HOOK
                        == injector._shard_hook)
            # Whatever was installed before is back -- including a
            # pre-existing non-None hook, not a hardcoded None.
            assert server_module.RESPONSE_FAULT_HOOK is sentinel
        finally:
            server_module.RESPONSE_FAULT_HOOK = None
        assert durability_module.JOURNAL_FAULT_HOOK is None
        assert shard_module.SHARD_FAULT_HOOK is None

    def test_response_hook_only_perturbs_dispositions(self):
        with FaultInjector(FaultPlan(2, rate=1.0)) as injector:
            assert injector._response_hook("service", "/health") is None
            assert injector._response_hook("service", "/metrics") is None
            decision = injector._response_hook("service", "/disposition")
        assert decision is not None
        assert injector.n_fired("service.response") == 1

    def test_site_subset_silences_other_sites(self):
        plan = FaultPlan(2, rate=1.0)
        with FaultInjector(plan, sites=("journal.append",)) as injector:
            assert injector._response_hook("cluster", "/disposition") is None
            assert injector._shard_hook("x.npz") is None
            assert injector._journal_hook({}) in SITE_KINDS["journal.append"]
        # Silenced sites never consumed their streams.
        assert plan.schedules["cluster.response"].n_consulted == 0
        assert plan.schedules["shard.write"].n_consulted == 0
        assert injector.n_fired() == 1

    def test_fired_ledger_matches_plan_describe(self):
        plan = FaultPlan(17, rate=0.8, max_faults=32)
        with FaultInjector(plan) as injector:
            for _ in range(20):
                injector._response_hook("service", "/disposition")
                injector._journal_hook({})
        described = plan.describe()["sites"]
        for site in ("service.response", "journal.append"):
            assert described[site]["n_consulted"] == 20
            assert (injector.n_fired(site)
                    == len(described[site]["fired"]))


class TestWorkerStartupFault:
    def test_unset_env_is_the_production_path(self, monkeypatch):
        monkeypatch.delenv(STARTUP_ENV, raising=False)
        assert worker_startup_fault(0) is None

    def test_malformed_spec_is_typed(self, monkeypatch):
        for bad in ("handshake_death", "/tmp/x:explode", ":bind_fail"):
            monkeypatch.setenv(STARTUP_ENV, bad)
            with pytest.raises(ServiceError, match=STARTUP_ENV):
                worker_startup_fault(0)

    def test_fires_once_per_worker_index(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            STARTUP_ENV, "{}:handshake_death".format(tmp_path))
        # First spawn of each index faults; respawns of the same index
        # come up clean -- the supervisor's retry must succeed.
        assert worker_startup_fault(0) == "handshake_death"
        assert worker_startup_fault(0) is None
        assert worker_startup_fault(1) == "handshake_death"
        assert worker_startup_fault(1) is None
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "worker-0.fired", "worker-1.fired"]


class TestCorruptFile:
    def test_tiny_file_is_refused(self, tmp_path):
        target = tmp_path / "tiny.bin"
        target.write_bytes(b"x" * 31)
        with pytest.raises(ServiceError, match="too small"):
            corrupt_file(target, seed=1)

    def test_flips_interior_bytes_deterministically(self, tmp_path):
        blob = bytes(range(256))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(blob)
        b.write_bytes(blob)
        offsets = corrupt_file(a, seed=4, n_bytes=8)
        assert corrupt_file(b, seed=4, n_bytes=8) == offsets
        assert a.read_bytes() == b.read_bytes() != blob
        # Container magics survive: the first 16 bytes are never hit.
        assert min(offsets) >= 16
        assert a.read_bytes()[:16] == blob[:16]
