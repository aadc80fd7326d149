"""Observability over the wire: prometheus scrapes, request IDs,
snapshot caching, and loadgen latency capture."""

import asyncio

import pytest

from repro.floor import TestFloor as Floor
from repro.floor import TestProgramArtifact as Artifact
from repro.service import (
    FloorService,
    TrafficPlan,
    offline_reference,
    run_load,
)
from repro.telemetry import (
    Telemetry,
    parse_prometheus,
    prometheus_text,
    set_telemetry,
)

from tests.service.test_server import _rows, run_with_service


@pytest.fixture(autouse=True)
def restore_telemetry():
    from repro.telemetry import get_telemetry

    previous = get_telemetry()
    yield
    set_telemetry(previous)


class TestPrometheusScrape:
    def test_scrape_is_parseable_and_carries_drift_and_latency(
            self, registry, lookup_pair):
        dut, _ = lookup_pair

        async def scenario(service, client):
            await client.request("POST", "/disposition", {
                "device": "synthA",
                "measurements": _rows(dut, 8, seed=7).tolist()})
            return await client.request(
                "GET", "/metrics?format=prometheus")

        status, reply = run_with_service(scenario, registry)
        assert status == 200
        families = parse_prometheus(reply["text"])
        # Drift-chart state rides the scrape as gauges...
        assert "repro_floor_drift_window_devices" in families
        seen = families["repro_floor_drift_devices_seen"]["samples"]
        assert seen[0][2] == 8.0
        # ...and request wall time as a histogram.
        assert families["repro_service_request_seconds"]["type"] == \
            "histogram"
        assert "repro_service_requests_total" in families

    def test_unknown_format_is_400(self, registry):
        async def scenario(service, client):
            return await client.request("GET", "/metrics?format=xml")

        status, reply = run_with_service(scenario, registry)
        assert status == 400
        assert "error" in reply

    def test_scrape_uses_session_registry_when_active(self, registry):
        """`serve --telemetry` routes scrapes through the CLI registry."""
        session = Telemetry(run_id="session")
        set_telemetry(session)

        async def scenario(service, client):
            assert service.telemetry is session
            return await client.request(
                "GET", "/metrics?format=prometheus")

        status, reply = run_with_service(scenario, registry)
        assert status == 200
        parse_prometheus(reply["text"])

    def test_served_drift_gauges_equal_an_offline_floor(
            self, registry, saved, live_pair):
        """Charts evaluated on scrape report what an offline floor fed
        the same batches reports: the per-spec/guard/bin gauges and
        the raised/cleared transition counters, scrape for scrape."""
        dut, _ = live_pair
        healthy = _rows(dut, 16 * 88, seed=21)
        phases = [healthy[:16 * 24],
                  _rows(dut, 16 * 24, seed=22) + 1.0,   # drifted
                  healthy[16 * 24:]]    # 64 batches: rolls the window

        def drift_families(text):
            return {name: family
                    for name, family in parse_prometheus(text).items()
                    if name.startswith("repro_floor_drift_")}

        async def scenario(service, client):
            scrapes = []
            for rows in phases:
                for start in range(0, rows.shape[0], 16):
                    await client.request("POST", "/disposition", {
                        "device": "synthB",
                        "measurements": rows[start:start + 16].tolist()})
                _, reply = await client.request(
                    "GET", "/metrics?format=prometheus")
                scrapes.append(drift_families(reply["text"]))
            return scrapes

        served = run_with_service(scenario, registry)

        floor = Floor(Artifact.load(saved["live"]))
        offline_tel = Telemetry(run_id="offline")
        offline = []
        for rows in phases:
            for start in range(0, rows.shape[0], 16):
                floor.dispose(rows[start:start + 16])
            floor.monitor.export_gauges(offline_tel)
            offline.append(drift_families(prometheus_text(offline_tel)))
        assert served == offline
        # The traffic really raised and then cleared alarms.
        assert "repro_floor_drift_raised_total" in served[1]
        assert "repro_floor_drift_cleared_total" in served[2]


class TestRequestIds:
    def test_client_request_id_is_echoed(self, registry):
        async def scenario(service, client):
            status, _ = await client.request(
                "GET", "/health", headers={"X-Request-Id": "abc-123"})
            return status, dict(client.last_headers)

        status, headers = run_with_service(scenario, registry)
        assert status == 200
        assert headers["x-request-id"] == "abc-123"

    def test_request_id_is_generated_when_absent(self, registry):
        async def scenario(service, client):
            await client.request("GET", "/health")
            first = client.last_headers["x-request-id"]
            await client.request("GET", "/health")
            return first, client.last_headers["x-request-id"]

        first, second = run_with_service(scenario, registry)
        assert first.startswith("req-")
        assert first != second


class TestSnapshotCaching:
    def test_scrapes_between_traffic_reuse_the_snapshot(self, registry,
                                                        lookup_pair):
        dut, _ = lookup_pair

        async def scenario(service, client):
            await client.request("POST", "/disposition", {
                "device": "synthA",
                "measurements": _rows(dut, 4, seed=9).tolist()})
            _, first = await client.request("GET", "/metrics")
            version = service._metrics_version
            _, second = await client.request("GET", "/metrics")
            return first, second, version, service._metrics_version

        first, second, v1, v2 = run_with_service(scenario, registry)
        # No flush between the scrapes: same cache version, identical
        # artifact snapshot (only uptime/request counters move).
        assert v1 == v2
        assert first["artifacts"] == second["artifacts"]

    def test_scrape_during_hot_swap_sees_consistent_registry(
            self, registry, lookup_pair, saved):
        """A swap between scrapes invalidates the cache atomically:
        the next scrape carries the new version fully registered,
        never a half-swapped entry."""
        dut, _ = lookup_pair

        async def scenario(service, client):
            await client.request("POST", "/disposition", {
                "device": "synthA",
                "measurements": _rows(dut, 4, seed=9).tolist()})
            _, before = await client.request("GET", "/metrics")
            status, _ = await client.request("POST", "/artifacts", {
                "device": "synthA", "version": "2",
                "path": saved["swap"]})
            assert status == 201
            # The registration invalidated the cache; this scrape
            # rebuilds from the settled batcher set (v1 only -- v2
            # has served nothing yet).
            _, after = await client.request("GET", "/metrics")
            # Unpinned traffic now routes to v2...
            await client.request("POST", "/disposition", {
                "device": "synthA",
                "measurements": _rows(dut, 4, seed=9).tolist()})
            _, served = await client.request("GET", "/metrics")
            sp, prom = await client.request(
                "GET", "/metrics?format=prometheus")
            return before, after, served, sp, prom

        before, after, served, sp, prom = run_with_service(
            scenario, registry)
        assert "synthA@2" not in before["artifacts"]
        assert after["artifacts"] == before["artifacts"]
        # ...and the next scrape carries the new version fully
        # registered: stats and drift blocks both present, old
        # version's floor untouched.
        entry = served["artifacts"]["synthA@2"]
        assert entry["n_devices"] == 4
        assert entry["drift"]["devices_seen"] == 4
        assert served["artifacts"]["synthA@1"]["n_devices"] == 4
        assert sp == 200
        parse_prometheus(prom["text"])


class TestLoadgenLatency:
    def _plan(self, pair, n_devices=60):
        dut, artifact = pair
        return TrafficPlan("synthA", dut, n_devices, seed=7,
                           reference=offline_reference(artifact))

    def _run(self, registry, plan):
        async def main():
            service = FloorService(registry)
            await service.start("127.0.0.1", 0)
            try:
                return await run_load("127.0.0.1", service.port,
                                      [plan], n_clients=3, max_chunk=8,
                                      seed=3)
            finally:
                await service.stop()

        return asyncio.run(main())

    def test_latency_summary_fields(self, registry, lookup_pair):
        report = self._run(registry, self._plan(lookup_pair))
        assert report.equivalent
        summary = report.latency_summary()
        assert summary["n_requests"] == report.n_requests
        assert len(report.latencies_s) == report.n_requests
        assert (0.0 < summary["p50_ms"] <= summary["p95_ms"]
                <= summary["p99_ms"] <= summary["max_ms"])
        assert summary["sustained_rps"] > 0.0
        assert "p50" in report.summary()

    def test_capture_never_perturbs_served_equivalence(self, registry,
                                                       lookup_pair):
        """Latency capture (telemetry active) still serves decisions
        bit-identical to the offline floor -- the capture is an
        observer on the client, never a participant."""
        set_telemetry(Telemetry(run_id="loadgen"))
        report = self._run(registry, self._plan(lookup_pair))
        assert report.equivalent
        assert len(report.latencies_s) == report.n_requests

    def test_decision_stream_is_order_independent(self, registry,
                                                  lookup_pair):
        """Different client concurrency interleaves responses
        differently, but reassembled decisions stay identical."""

        async def run_with_clients(n_clients):
            service = FloorService(registry)
            await service.start("127.0.0.1", 0)
            try:
                return await run_load(
                    "127.0.0.1", service.port,
                    [self._plan(lookup_pair)], n_clients=n_clients,
                    max_chunk=8, seed=3)
            finally:
                await service.stop()

        one = asyncio.run(run_with_clients(1))
        many = asyncio.run(run_with_clients(4))
        assert one.equivalent and many.equivalent
        assert one.n_devices == many.n_devices
