"""Cluster-layer tests: sharding router, fan-out, respawn.

The expensive truths (decisions bit-identical through a sharded
cluster, crash -> 503 -> respawn -> identical decisions) run against
real worker processes; the control-plane atomicity proofs (rollback on
partial fan-out failure) run against fake workers with a monkeypatched
transport, so they are fast and deterministic.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import (
    ClusterDegradedError,
    ServiceError,
    UnknownArtifactError,
)
from repro.service import (
    ClusterService,
    HttpClient,
    TrafficPlan,
    offline_reference,
    run_load,
    shard_for,
)
from repro.service.cluster import WorkerHandle


def run_with_cluster(scenario, registrations, timeout=180, **cluster_kwargs):
    """asyncio.run a scenario against a live multi-process cluster."""

    async def main():
        cluster = ClusterService(registrations=registrations, **cluster_kwargs)
        await cluster.start("127.0.0.1", 0)
        try:
            return await scenario(cluster)
        finally:
            await cluster.stop()

    return asyncio.run(asyncio.wait_for(main(), timeout))


class TestShardFor:
    def test_pure_and_stable_across_calls(self):
        # The mapping is a pure function: recomputing it (a "router
        # restart") can never move a device to a different worker.
        for device in ("synthA", "synthB", "opamp", "a-very-long-key"):
            for n in (1, 2, 3, 4, 8):
                assert shard_for(device, n) == shard_for(device, n)

    def test_pinned_values(self):
        # Regression pin: these exact assignments are wire-visible
        # behavior (which worker's drift monitor sees a device's
        # traffic).  If this test ever fails, the hash changed and
        # every deployed cluster would reshuffle on upgrade.
        assert shard_for("synthA", 2) == 0
        assert shard_for("synthB", 2) == 1
        assert [shard_for("dev{}".format(i), 4) for i in (0, 2, 5, 6)] == [
            3,
            0,
            1,
            2,
        ]

    def test_independent_of_python_hash_randomization(self):
        # sha256, not hash(): the value must be reproducible in any
        # process, so spell out the definition and check against it.
        import hashlib

        digest = hashlib.sha256(b"synthA").digest()
        assert shard_for("synthA", 7) == int.from_bytes(digest[:8], "big") % 7

    def test_in_range_and_covers_workers(self):
        shards = {shard_for("device-{}".format(i), 4) for i in range(200)}
        assert shards == {0, 1, 2, 3}

    def test_single_worker_degenerates(self):
        assert shard_for("anything", 1) == 0

    def test_rejects_zero_workers(self):
        with pytest.raises(ServiceError):
            shard_for("synthA", 0)


def _fake_cluster(n_workers, registrations=()):
    """An unstarted cluster with healthy fake workers (no processes)."""
    cluster = ClusterService(registrations=registrations, n_workers=n_workers)
    cluster._workers = [
        WorkerHandle(index=i, port=1000 + i, healthy=True)
        for i in range(n_workers)
    ]
    return cluster


class TestAtomicFanOut:
    """Control-plane atomicity against fake workers."""

    def test_register_commits_on_all_workers(self, monkeypatch):
        cluster = _fake_cluster(3)
        calls = []

        async def fake_post(worker, path, payload):
            calls.append((worker.index, path, dict(payload)))
            return 201, {"registered": {"device": payload["device"]}}

        monkeypatch.setattr(cluster, "_post_worker", fake_post)
        asyncio.run(cluster.register_artifact("synthA", "1", "a.rtp"))
        assert [c[0] for c in calls] == [0, 1, 2]
        assert all(c[1] == "/artifacts" for c in calls)
        assert cluster._manifest == [
            {
                "device": "synthA",
                "version": "1",
                "path": "a.rtp",
                "retired": False,
            }
        ]

    def test_partial_register_rolls_back_and_keeps_manifest(self, monkeypatch):
        cluster = _fake_cluster(3)
        calls = []

        async def fake_post(worker, path, payload):
            calls.append((worker.index, path, dict(payload)))
            if worker.index == 1 and path == "/artifacts":
                return 400, {"error": "corrupt artifact file"}
            return (200 if path.endswith("retire") else 201), {}

        monkeypatch.setattr(cluster, "_post_worker", fake_post)
        with pytest.raises(ServiceError, match="rolled back"):
            asyncio.run(cluster.register_artifact("synthA", "1", "a.rtp"))
        # Nothing committed: the manifest never saw the registration.
        assert cluster._manifest == []
        # Worker 0 (the only one that applied it) was rolled back by
        # retiring the orphan key; workers 2.. were never touched.
        rollback = [c for c in calls if c[0] == 0 and "retire" in c[1]]
        assert len(rollback) == 1
        assert rollback[0][2] == {"device": "synthA", "version": "1"}
        assert not any(c[0] == 2 for c in calls)

    def test_partial_hot_swap_rollback_replays_manifest(self, monkeypatch):
        # synthA@1 is committed; a hot-swap to @2 fails on the last
        # worker.  The rolled-back workers must replay the manifest
        # (retire the orphan @2, re-register @1) so newest-active-wins
        # still resolves to @1 everywhere.
        cluster = _fake_cluster(2, registrations=[("synthA", "1", "a1.rtp")])
        calls = []

        async def fake_post(worker, path, payload):
            calls.append((worker.index, path, dict(payload)))
            if (
                worker.index == 1
                and path == "/artifacts"
                and payload["version"] == "2"
            ):
                return 400, {"error": "no such file"}
            return (200 if path.endswith("retire") else 201), {}

        monkeypatch.setattr(cluster, "_post_worker", fake_post)
        with pytest.raises(ServiceError, match="rolled back"):
            asyncio.run(cluster.register_artifact("synthA", "2", "a2.rtp"))
        assert [e["version"] for e in cluster._manifest] == ["1"]
        w0 = [c for c in calls if c[0] == 0]
        # apply @2, then rollback: retire the orphan @2, replay @1.
        assert [(c[1], c[2].get("version")) for c in w0] == [
            ("/artifacts", "2"),
            ("/artifacts/retire", "2"),
            ("/artifacts", "1"),
        ]

    def test_partial_retire_rolls_back_by_replaying(self, monkeypatch):
        cluster = _fake_cluster(2, registrations=[("synthA", "1", "a1.rtp")])
        calls = []

        async def fake_post(worker, path, payload):
            calls.append((worker.index, path, dict(payload)))
            if worker.index == 1 and path == "/artifacts/retire":
                return 500, {"error": "boom"}
            return (200 if path.endswith("retire") else 201), {}

        monkeypatch.setattr(cluster, "_post_worker", fake_post)
        with pytest.raises(ServiceError, match="rolled back"):
            asyncio.run(cluster.retire_artifact("synthA", "1"))
        # The manifest still lists the version as active...
        assert cluster._manifest[0]["retired"] is False
        # ...and worker 0 was re-registered back to the active state.
        w0 = [c for c in calls if c[0] == 0]
        assert [c[1] for c in w0] == [
            "/artifacts/retire",
            "/artifacts",
        ]

    def test_retire_unknown_version_is_404_material(self):
        cluster = _fake_cluster(2)
        with pytest.raises(UnknownArtifactError):
            asyncio.run(cluster.retire_artifact("synthA", "9"))

    def test_control_plane_refused_while_degraded(self, monkeypatch):
        cluster = _fake_cluster(2, registrations=[("synthA", "1", "a1.rtp")])
        cluster._workers[1].healthy = False

        async def fake_post(worker, path, payload):  # pragma: no cover
            raise AssertionError("must not reach any worker while degraded")

        monkeypatch.setattr(cluster, "_post_worker", fake_post)

        async def scenario():
            # One event loop for both ops: the control lock binds to
            # the loop it is first awaited on.
            with pytest.raises(ClusterDegradedError, match="w1"):
                await cluster.register_artifact("synthA", "2", "a2.rtp")
            with pytest.raises(ClusterDegradedError):
                await cluster.retire_artifact("synthA", "1")

        asyncio.run(scenario())

    def test_rejects_zero_workers(self):
        with pytest.raises(ServiceError):
            ClusterService(n_workers=0)


class TestMetricsStaleFanIn:
    """/metrics must survive a worker dying mid-scrape.

    Regression: the fan-in used to propagate the connection error of
    one dead worker and fail the whole scrape.  Now the scrape serves
    a partial snapshot with the dead shard marked ``stale`` and flips
    it unhealthy for the health loop to respawn.
    """

    def _scrape_with_backends(self, live_handler, dead_handler):
        """metrics() over a 2-worker fake cluster with stub backends."""

        async def main():
            live = await asyncio.start_server(
                live_handler, "127.0.0.1", 0)
            dead = await asyncio.start_server(
                dead_handler, "127.0.0.1", 0)
            try:
                cluster = _fake_cluster(2)
                cluster._workers[0].port = \
                    live.sockets[0].getsockname()[1]
                cluster._workers[1].port = \
                    dead.sockets[0].getsockname()[1]
                snapshot = await cluster.metrics()
                return snapshot, cluster
            finally:
                for server in (live, dead):
                    server.close()
                    await server.wait_closed()

        return asyncio.run(asyncio.wait_for(main(), 30))

    @staticmethod
    async def _healthy_metrics(reader, writer):
        from repro.service.server import _read_request, _write_response

        try:
            while True:
                if await _read_request(reader) is None:
                    return
                await _write_response(
                    writer, 200,
                    {"total_devices": 7, "total_rejected": 1,
                     "artifacts": {}}, True)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass

    @staticmethod
    async def _dies_after_accept(reader, writer):
        # The shape of a worker SIGKILLed between the health probe and
        # the scrape: the TCP accept succeeds, then the socket dies
        # without a byte of response.
        writer.close()

    def test_mid_scrape_death_serves_partial_snapshot(self):
        snapshot, cluster = self._scrape_with_backends(
            self._healthy_metrics, self._dies_after_accept)
        assert snapshot["workers"]["w0"]["stale"] is False
        assert snapshot["workers"]["w0"]["healthy"] is True
        assert snapshot["workers"]["w1"] == {"healthy": False,
                                             "stale": True}
        # Aggregates cover only the shards that answered.
        assert snapshot["total_devices"] == 7
        assert snapshot["total_rejected"] == 1
        # The dead shard was flipped unhealthy for the respawn loop.
        assert cluster._workers[1].healthy is False

    def test_error_status_is_stale_not_fatal(self):
        from repro.service.server import _read_request, _write_response

        async def broken_metrics(reader, writer):
            try:
                while True:
                    if await _read_request(reader) is None:
                        return
                    await _write_response(
                        writer, 500, {"error": "boom"}, True)
            except (ConnectionError, asyncio.IncompleteReadError):
                pass

        snapshot, _ = self._scrape_with_backends(
            self._healthy_metrics, broken_metrics)
        assert snapshot["workers"]["w1"]["stale"] is True
        assert snapshot["total_devices"] == 7

    def test_already_unhealthy_worker_is_reported_stale(self):
        cluster = _fake_cluster(2)
        cluster._workers[1].healthy = False

        async def fake_get(worker, path):
            assert worker.index == 0
            return 200, {"total_devices": 3, "total_rejected": 0,
                         "artifacts": {}}

        cluster._get_worker = fake_get
        snapshot = asyncio.run(cluster.metrics())
        assert snapshot["workers"]["w1"] == {"healthy": False,
                                             "stale": True}
        assert snapshot["workers"]["w0"]["stale"] is False


def _closed_port():
    """A loopback port nothing listens on (connects are refused)."""
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestArtifactsListingDeath:
    """GET /artifacts must survive a worker dying between probes.

    Regression: the listing fan-in propagated the dead worker's
    connection error and answered 500.  Like /metrics, it now leaves
    the worker out, judges consistency over the workers that answered
    and flips the dead one unhealthy for the health loop to respawn.
    """

    def test_dead_worker_is_left_out_not_500(self):
        from repro.service.server import _read_request, _write_response

        listing = {"artifacts": [
            {"device": "synthA", "version": "1", "retired": False}]}

        async def live_worker(reader, writer):
            try:
                while await _read_request(reader) is not None:
                    await _write_response(writer, 200, listing, True)
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            finally:
                writer.close()

        async def main():
            live = await asyncio.start_server(live_worker, "127.0.0.1", 0)
            try:
                cluster = _fake_cluster(2)
                cluster._workers[0].port = live.sockets[0].getsockname()[1]
                cluster._workers[1].port = _closed_port()
                reply = await cluster._route(
                    "GET", "/artifacts", {}, b"", ("127.0.0.1", 1), "", {})
                return reply, cluster
            finally:
                live.close()
                await live.wait_closed()

        (status, reply, _), cluster = asyncio.run(
            asyncio.wait_for(main(), 30))
        assert status == 200, reply
        assert reply["per_worker"] == {"w0": ["synthA@1"]}
        assert reply["consistent"] is True
        assert reply["artifacts"] == listing["artifacts"]
        assert cluster._workers[1].healthy is False
        assert cluster._workers[0].healthy is True


class TestRequestIdForwarding:
    """The router forwards the request id it echoes to the worker.

    Regression: without a client ``X-Request-Id`` the router echoed
    its generated ``req-N`` but forwarded an empty header, which the
    backend client drops -- so the worker's ``service.request`` span
    got an id of its own and the two tiers' traces could not be
    joined.
    """

    def _through_router(self, headers):
        """One /disposition through a router to a recording worker."""
        from repro.service.server import _read_request, _write_response

        seen = []

        async def recording_worker(reader, writer):
            try:
                while True:
                    request = await _read_request(reader)
                    if request is None:
                        return
                    seen.append(request[3].get("x-request-id"))
                    await _write_response(
                        writer, 200, {"decisions": [1]}, True,
                        extra_headers=(("X-Repro-Worker", "w0"),))
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            finally:
                writer.close()

        async def main():
            worker = await asyncio.start_server(
                recording_worker, "127.0.0.1", 0)
            cluster = ClusterService(n_workers=1, health_interval=3600.0)
            port = worker.sockets[0].getsockname()[1]

            async def adopt(handle):
                handle.port, handle.healthy = port, True

            cluster._spawn = adopt
            await cluster.start("127.0.0.1", 0)
            client = HttpClient("127.0.0.1", cluster.port)
            try:
                status, _ = await client.request(
                    "POST", "/disposition",
                    {"device": "synthA", "measurements": [[0.0] * 6]},
                    headers=headers)
                return status, client.last_headers.get("x-request-id")
            finally:
                await client.close()
                await cluster.stop()
                worker.close()
                await worker.wait_closed()

        status, echoed = asyncio.run(asyncio.wait_for(main(), 30))
        assert status == 200
        return echoed, seen

    def test_generated_id_is_forwarded(self):
        echoed, seen = self._through_router({})
        assert echoed == "req-1"
        assert seen == ["req-1"]

    def test_client_id_is_forwarded(self):
        echoed, seen = self._through_router({"X-Request-Id": "lot7-dev3"})
        assert echoed == "lot7-dev3"
        assert seen == ["lot7-dev3"]


@pytest.mark.slow
class TestSpawnRetryLive:
    """Worker startup faults are retried with a fresh spawn.

    REPRO_CHAOS_STARTUP makes the *first* spawn of every worker index
    fail deterministically (die before the pipe handshake, or report a
    bind failure through it); the supervisor must retry and the
    cluster must come up serving.
    """

    @pytest.mark.parametrize("mode", ["handshake_death", "bind_fail"])
    def test_first_spawn_fault_is_survived(self, tmp_path, monkeypatch,
                                           saved, lookup_pair, mode):
        import os

        marker_dir = tmp_path / "chaos-markers"
        marker_dir.mkdir()
        monkeypatch.setenv("REPRO_CHAOS_STARTUP",
                           "{}:{}".format(marker_dir, mode))
        dut, artifact = lookup_pair
        from repro.service import TrafficPlan, offline_reference, run_load

        plan = TrafficPlan("synthA", dut, 60, seed=21,
                           reference=offline_reference(artifact))

        async def scenario(cluster):
            return await run_load("127.0.0.1", cluster.port, [plan],
                                  n_clients=2, max_chunk=8, seed=4)

        report = run_with_cluster(
            scenario, [("synthA", "1", saved["lookup"])], n_workers=2)
        # Both workers burned their one startup fault...
        fired = sorted(os.listdir(marker_dir))
        assert fired == ["worker-0.fired", "worker-1.fired"]
        # ...and the retried spawns serve bit-identical decisions.
        assert report.equivalent

    def test_startup_fault_retries_are_counted(self, tmp_path, monkeypatch,
                                               saved):
        from repro.telemetry import Telemetry

        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        monkeypatch.setenv("REPRO_CHAOS_STARTUP",
                           "{}:handshake_death".format(marker_dir))
        telemetry = Telemetry()

        async def scenario(cluster):
            return cluster.health()

        health = run_with_cluster(
            scenario, [("synthA", "1", saved["lookup"])], n_workers=2,
            telemetry=telemetry)
        assert health["n_healthy"] == 2
        retries = sum(
            value
            for (name, _), value in telemetry._counters.items()
            if name == "repro_cluster_spawn_retries_total"
        )
        assert retries >= 2

    def test_round_trip_consensus_and_hot_swap(self, saved, lookup_pair,
                                               live_pair):
        lookup_dut, lookup_artifact = lookup_pair
        live_dut, live_artifact = live_pair
        plans = [
            TrafficPlan("synthA", lookup_dut, 220, seed=7,
                        reference=offline_reference(lookup_artifact)),
            TrafficPlan("synthB", live_dut, 180, seed=8,
                        reference=offline_reference(live_artifact)),
        ]

        async def scenario(cluster):
            report = await run_load("127.0.0.1", cluster.port, plans,
                                    n_clients=4, max_chunk=12, seed=3)
            client = HttpClient("127.0.0.1", cluster.port)
            try:
                _, health = await client.request("GET", "/health")
                _, listing = await client.request("GET", "/artifacts")
                status, reply = await client.request(
                    "POST", "/artifacts",
                    {"device": "synthA", "version": "2",
                     "path": saved["swap"]})
                assert status == 201, reply
                _, after = await client.request("GET", "/artifacts")
                _, metrics = await client.request("GET", "/metrics")
            finally:
                await client.close()
            return report, health, listing, after, metrics

        report, health, listing, after, metrics = run_with_cluster(
            scenario,
            [("synthA", "1", saved["lookup"]), ("synthB", "1", saved["live"])],
            n_workers=2,
        )
        # Sharded serving is bit-identical to the offline floor for
        # every plan -- the tentpole invariant.
        assert report.equivalent
        # synthA and synthB hash to different workers at n=2, so both
        # shards served traffic and were attributed.
        assert set(report.worker_latencies) == {"w0", "w1"}
        assert health["status"] == "ok" and health["n_healthy"] == 2
        assert listing["consistent"] and set(listing["per_worker"]) == {
            "w0",
            "w1",
        }
        # The mid-run hot-swap reached every worker atomically.
        assert after["consistent"]
        assert all(
            "synthA@2" in keys for keys in after["per_worker"].values()
        )
        # Aggregated metrics carry the per-worker breakdown.
        assert set(metrics["workers"]) == {"w0", "w1"}
        assert metrics["total_devices"] == report.n_devices

    def test_killed_worker_respawns_bit_identical(self, saved, lookup_pair):
        lookup_dut, lookup_artifact = lookup_pair
        plan = TrafficPlan("synthA", lookup_dut, 150, seed=11,
                           reference=offline_reference(lookup_artifact))
        victim = shard_for("synthA", 2)

        async def scenario(cluster):
            before = await run_load("127.0.0.1", cluster.port, [plan],
                                    n_clients=2, max_chunk=10, seed=5)
            cluster.kill_worker(victim)
            # The respawn window answers 503 + Retry-After -- the
            # request is never silently rerouted to the other shard.
            saw_503 = False
            client = HttpClient("127.0.0.1", cluster.port)
            payload = {"device": "synthA", "measurements": [[0.0] * 6]}
            try:
                for _ in range(600):
                    status, _ = await client.request(
                        "POST", "/disposition", payload)
                    if status == 503:
                        saw_503 = True
                        assert (client.last_headers.get("retry-after")
                                == "1")
                    elif status == 200 and saw_503:
                        break
                    await asyncio.sleep(0.05)
            finally:
                await client.close()
            after = await run_load("127.0.0.1", cluster.port, [plan],
                                   n_clients=2, max_chunk=10, seed=5)
            return before, saw_503, status, after, cluster._workers[victim]

        before, saw_503, status, after, worker = run_with_cluster(
            scenario,
            [("synthA", "1", saved["lookup"])],
            n_workers=2,
            health_interval=0.2,
        )
        assert saw_503, "kill never surfaced a 503 respawn window"
        assert status == 200, "shard never readmitted after respawn"
        assert worker.respawns >= 1
        # The respawned worker (re-primed from the manifest) serves
        # decisions bit-identical to its pre-crash self -- and both
        # match the offline floor.
        assert before.equivalent and after.equivalent
        np.testing.assert_array_equal(
            before.plans[0].decisions, after.plans[0].decisions
        )
