"""kill -9 the whole serving stack mid-traffic; nothing acked is lost.

The flagship chaos scenario from the durability issue: a supervisor
SIGKILLed after two hot-swaps, with a load run in flight, restarted
from ``--state-dir`` -- and every decision the clients ever see is
bit-identical to the offline floor of the journal's newest-active
artifact.  Plus the seeded in-process variant: worker SIGKILLs on a
:meth:`FaultPlan.kill_schedule` with wire faults on the router, once
per chaos seed.
"""

import asyncio
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.chaos import FaultInjector, FaultPlan
from repro.service import (
    ClusterService,
    HttpClient,
    StateJournal,
    TrafficPlan,
    offline_reference,
    run_load,
    wait_healthy,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _request(port, method, path, payload=None, headers=None):
    async def go():
        client = HttpClient("127.0.0.1", port)
        try:
            return await client.request(method, path, payload,
                                        headers=headers)
        finally:
            await client.close()

    return asyncio.run(go())


def _serve(cmd, log_path):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    log = open(log_path, "ab")
    return subprocess.Popen(cmd, env=env, stdout=log, stderr=log)


def _running(pid):
    """Whether ``pid`` still runs; a zombie awaiting its reaper does not."""
    try:
        with open("/proc/{}/stat".format(pid)) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: ask the kernel directly
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


@pytest.mark.slow
class TestKillNineRecovery:
    def test_supervisor_kill9_mid_traffic_replays_bit_identical(
            self, tmp_path, saved, lookup_pair):
        lookup_dut, lookup_artifact = lookup_pair
        state_dir = tmp_path / "state"
        port = _free_port()
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--artifact", "synthA=1={}".format(saved["lookup"]),
               "--workers", "2", "--port", str(port),
               "--state-dir", str(state_dir),
               "--health-interval", "0.2"]
        log_path = tmp_path / "serve.log"
        proc = _serve(cmd, log_path)
        restarted = None
        try:
            asyncio.run(wait_healthy("127.0.0.1", port, timeout=120))

            # Two acked hot-swaps: synthA's newest-active version is
            # now 3, which serves the *lookup* program again -- replay
            # must reproduce exactly this order, or the restarted
            # cluster would disposition with version 2's guard band.
            for version, path in (("2", saved["swap"]),
                                  ("3", saved["lookup"])):
                status, _ = _request(
                    port, "POST", "/artifacts",
                    {"device": "synthA", "version": version, "path": path})
                assert status == 201

            # The supervisor's own pid plus the worker pids from
            # /health: the workers exit on their own once the parent
            # dies, and killing them too makes the whole-stack crash
            # immediate.
            health = _request(port, "GET", "/health")[1]
            pids = [w["pid"] for w in health["workers"].values()]
            assert all(isinstance(pid, int) for pid in pids)
            baseline = health["n_http_requests"]

            traffic = TrafficPlan(
                "synthA", lookup_dut, 2400, seed=9,
                reference=offline_reference(lookup_artifact))
            result = {}

            def drive():
                async def go():
                    return await run_load(
                        "127.0.0.1", port, [traffic],
                        n_clients=2, max_chunk=4, seed=9)

                result["report"] = asyncio.run(go())

            loader = threading.Thread(target=drive)
            loader.start()

            # Kill only once traffic is demonstrably in flight.
            poll_deadline = time.time() + 60
            while (_request(port, "GET", "/health")[1]["n_http_requests"]
                   < baseline + 20):
                assert time.time() < poll_deadline
                time.sleep(0.02)

            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            # Restart from the journal.  The command line still names
            # synthA=1; the CLI must skip it in favour of the replayed
            # history rather than un-swap the artifact.
            restarted = _serve(cmd, log_path)
            asyncio.run(wait_healthy("127.0.0.1", port, timeout=120))

            loader.join(timeout=240)
            assert not loader.is_alive()
            report = result["report"]
            # The crash window cost retries, and every one of the 2400
            # decisions -- served before the kill or after the replay
            # -- matches the offline floor of newest-active version 3.
            assert report.n_retried > 0
            assert report.plans[0].n_devices == 2400
            assert report.equivalent

            # Journal-replay equivalence, end to end: the journal's
            # manifest view, and what the restarted cluster actually
            # serves, agree on the full hot-swap history.
            journal = StateJournal(str(state_dir))
            manifest = StateJournal.manifest_from_ops(journal.replay())
            journal.close()
            assert [(m["device"], m["version"], m["retired"])
                    for m in manifest] == [
                ("synthA", "1", False),
                ("synthA", "2", False),
                ("synthA", "3", False)]
            listing = _request(port, "GET", "/artifacts")[1]
            assert listing["consistent"] is True
            assert [(row["device"], row["version"])
                    for row in listing["artifacts"]] == [
                ("synthA", "1"), ("synthA", "2"), ("synthA", "3")]
        finally:
            for p in (proc, restarted):
                if p is None or p.poll() is not None:
                    continue
                p.terminate()
                try:
                    p.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    p.kill()
                    p.wait(timeout=30)


@pytest.mark.slow
class TestSupervisorExit:
    """Cluster workers never outlive their supervisor, however it dies."""

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL],
                             ids=["SIGTERM", "SIGKILL"])
    def test_workers_exit_with_the_supervisor(self, tmp_path, saved,
                                              signum):
        port = _free_port()
        proc = _serve([sys.executable, "-m", "repro.cli", "serve",
                       "--artifact", "synthA=1={}".format(saved["lookup"]),
                       "--workers", "2", "--port", str(port)],
                      tmp_path / "serve.log")
        pids = []
        try:
            asyncio.run(wait_healthy("127.0.0.1", port, timeout=120))
            health = _request(port, "GET", "/health")[1]
            pids = [w["pid"] for w in health["workers"].values()]
            assert len(pids) == 2 and all(map(_running, pids))

            os.kill(proc.pid, signum)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)):
                assert time.monotonic() < deadline, (
                    "workers outlived their supervisor: {}".format(
                        [pid for pid in pids if _running(pid)]))
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


@pytest.mark.slow
class TestSeededClusterChaos:
    """Seeded worker SIGKILLs + wire faults; served == offline."""

    def test_kill_schedule_and_wire_faults_stay_equivalent(
            self, chaos_seed, saved, lookup_pair):
        dut, artifact = lookup_pair
        plan = FaultPlan(chaos_seed, rate=0.08, max_faults=5)
        kills = plan.kill_schedule(n_workers=2, n_kills=2, span_s=1.0)
        traffic = TrafficPlan("synthA", dut, 600, seed=chaos_seed,
                              reference=offline_reference(artifact))

        async def main():
            cluster = ClusterService(
                registrations=[("synthA", "1", saved["lookup"])],
                n_workers=2, health_interval=0.2)
            await cluster.start("127.0.0.1", 0)
            try:
                load = asyncio.ensure_future(run_load(
                    "127.0.0.1", cluster.port, [traffic],
                    n_clients=2, max_chunk=8, seed=chaos_seed))
                started = time.monotonic()
                for at_s, victim in kills:
                    await asyncio.sleep(
                        max(0.0, at_s - (time.monotonic() - started)))
                    cluster.kill_worker(victim)
                report = await load
                # Self-healing closes the loop: the health probe must
                # notice at least the first SIGKILL (the flags alone
                # can race the probe interval, so wait on the respawn
                # counter) and every worker must be back.
                heal_deadline = time.monotonic() + 60
                while True:
                    workers = cluster.health()["workers"].values()
                    if (sum(w["respawns"] for w in workers) >= 1
                            and all(w["healthy"] for w in workers)):
                        break
                    assert time.monotonic() < heal_deadline
                    await asyncio.sleep(0.1)
                return report, cluster.health()
            finally:
                await cluster.stop()

        with FaultInjector(plan, sites=("cluster.response",)) as injector:
            report, health = asyncio.run(asyncio.wait_for(main(), 300))

        assert report.plans[0].n_devices == 600
        assert report.equivalent
        # The injected-fault ledger matches the plan's own record, and
        # at least one SIGKILL forced a respawn the router absorbed.
        assert injector.n_fired() == len(
            plan.schedules["cluster.response"].fired)
        assert sum(w["respawns"]
                   for w in health["workers"].values()) >= 1
