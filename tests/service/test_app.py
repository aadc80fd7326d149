"""The HTTP surface both serving tiers share.

``FloorService`` and ``ClusterService`` are two backends of one
``HttpApp``: the same connection loop, route table and error map.  The
test below drives that surface through each of them -- the cluster
with fake worker handles and no spawned processes -- so a gap in
either tier's routing shows up as a failure of that tier's case.
"""

import asyncio
import json

import pytest

from repro.service import ClusterService, FloorService, HttpClient
from repro.service.cluster import WorkerHandle
from repro.telemetry import Telemetry


def _floor_app(registry, telemetry):
    return FloorService(registry, telemetry=telemetry)


def _cluster_app(registry, telemetry):
    """A router over two fake shards: nothing is spawned or probed."""
    cluster = ClusterService(n_workers=2, health_interval=3600.0,
                             telemetry=telemetry)
    cluster._workers = [WorkerHandle(index=i, port=1000 + i)
                        for i in range(2)]

    async def adopt(worker):
        worker.healthy = True

    cluster._spawn = adopt
    return cluster


@pytest.mark.parametrize("tier, build", [
    ("service", _floor_app),
    ("cluster", _cluster_app),
])
def test_shared_http_surface(tier, build, registry):
    telemetry = Telemetry()
    app = build(registry, telemetry)
    rows = {"device": "synthA", "measurements": [[0.0] * 6]}

    async def main():
        await app.start("127.0.0.1", 0)
        client = HttpClient("127.0.0.1", app.port)
        try:
            replies = {
                "unknown path": await client.request("GET", "/nowhere"),
                "wrong method": await client.request("GET", "/disposition"),
                "metrics format": await client.request(
                    "GET", "/metrics?format=xml"),
                "malformed body": await client.request(
                    "POST", "/disposition", b"{not json"),
                "expired deadline": await client.request(
                    "POST", "/disposition", rows,
                    headers={"X-Repro-Deadline-Ms": "0.001"}),
            }
            await client.request("GET", "/health",
                                 headers={"X-Request-Id": "trace-7"})
            echoed = client.last_headers.get("x-request-id")
            await client.request("GET", "/health")
            generated = client.last_headers.get("x-request-id")
            # The admin gate sees the peer address, which a loopback
            # socket cannot fake: route a remote peer directly.
            remote = await app._route(
                "POST", "/artifacts/retire", {},
                json.dumps({"device": "synthA", "version": "1"}).encode(),
                ("203.0.113.5", 40001))
        finally:
            await client.close()
            await app.stop()
        return replies, echoed, generated, remote

    replies, echoed, generated, remote = asyncio.run(
        asyncio.wait_for(main(), 30))

    statuses = {name: status for name, (status, _) in replies.items()}
    assert statuses == {
        "unknown path": 404,
        "wrong method": 405,
        "metrics format": 400,
        "malformed body": 400,
        "expired deadline": 504,
    }
    assert "unknown path /nowhere" in replies["unknown path"][1]["error"]
    assert "not allowed" in replies["wrong method"][1]["error"]
    assert "unknown metrics format" in replies["metrics format"][1]["error"]
    assert "not valid JSON" in replies["malformed body"][1]["error"]
    assert "deadline" in replies["expired deadline"][1]["error"]

    status, reply, _ = remote
    assert status == 403
    assert "X-Admin-Token" in reply["error"]

    assert echoed == "trace-7"
    assert generated == "req-7"  # the app's seventh request

    # Span and series names carry the tier and nothing else.
    snapshot = telemetry.snapshot()
    counters = {(c["name"], tuple(sorted(c["labels"].items())))
                for c in snapshot["counters"]}
    assert ("repro_stage_calls_total",
            (("stage", "{}.request".format(tier)),)) in counters
    assert ("repro_{}_requests_total".format(tier),
            (("path", "/nowhere"), ("status", "404"))) in counters
    histograms = {h["name"] for h in snapshot["histograms"]}
    assert "repro_{}_request_seconds".format(tier) in histograms
    other = "cluster" if tier == "service" else "service"
    assert not any(name.startswith("repro_{}_request".format(other))
                   for name, _ in counters)
