"""HTTP front-end behaviour: routing, errors, hot-swap, metrics, 429."""

import asyncio
import json

import numpy as np
import pytest

from repro.floor import TestFloor as Floor
from repro.service import (
    ArtifactRegistry,
    FloorService,
    HttpClient,
)


def _rows(dut, n, seed):
    rng = np.random.default_rng(seed)
    return np.vstack([dut.measure(dut.sample_parameters(rng))
                      for _ in range(n)])


def run_with_service(scenario, registry, timeout=30, **service_kwargs):
    """Start a FloorService on an ephemeral port, run, always stop."""

    async def main():
        service = FloorService(registry, **service_kwargs)
        await service.start("127.0.0.1", 0)
        client = HttpClient("127.0.0.1", service.port)
        try:
            return await scenario(service, client)
        finally:
            await client.close()
            await service.stop()

    return asyncio.run(asyncio.wait_for(main(), timeout))


class TestRouting:
    def test_health(self, registry):
        async def scenario(service, client):
            return await client.request("GET", "/health")

        status, reply = run_with_service(scenario, registry)
        assert status == 200
        assert reply["status"] == "ok"
        assert reply["n_artifacts"] == 2

    def test_disposition_single_device(self, registry, lookup_pair):
        dut, artifact = lookup_pair
        row = _rows(dut, 1, seed=5)[0]

        async def scenario(service, client):
            return await client.request("POST", "/disposition", {
                "device": "synthA", "measurements": row.tolist()})

        status, reply = run_with_service(scenario, registry)
        assert status == 200
        assert reply["device"] == "synthA" and reply["version"] == "1"
        offline = Floor(artifact, monitor=False).dispose(row)
        assert reply["decisions"] == [int(d) for d in offline.decisions]

    def test_disposition_chunk_matches_offline_floor(self, registry,
                                                     live_pair):
        dut, artifact = live_pair
        rows = _rows(dut, 37, seed=6)

        async def scenario(service, client):
            return await client.request("POST", "/disposition", {
                "device": "synthB", "measurements": rows.tolist()})

        status, reply = run_with_service(scenario, registry)
        assert status == 200
        offline = Floor(artifact, monitor=False).dispose(rows)
        assert reply["decisions"] == [int(d) for d in offline.decisions]
        assert reply["counts"]["n_devices"] == 37

    def test_artifacts_listing(self, registry):
        async def scenario(service, client):
            return await client.request("GET", "/artifacts")

        status, reply = run_with_service(scenario, registry)
        assert status == 200
        keys = {(r["device"], r["version"]) for r in reply["artifacts"]}
        assert keys == {("synthA", "1"), ("synthB", "1")}

    def test_metrics_after_traffic(self, registry, lookup_pair):
        dut, _ = lookup_pair

        async def scenario(service, client):
            await client.request("POST", "/disposition", {
                "device": "synthA",
                "measurements": _rows(dut, 5, seed=7).tolist()})
            return await client.request("GET", "/metrics")

        status, reply = run_with_service(scenario, registry)
        assert status == 200
        entry = reply["artifacts"]["synthA@1"]
        assert entry["n_devices"] == 5
        assert entry["queue_depth"] == 0
        assert entry["drift"]["devices_seen"] == 5
        assert reply["total_devices"] == 5


class TestErrors:
    @pytest.mark.parametrize("payload,status", [
        ({"device": "nope", "measurements": [[0.0] * 6]}, 404),
        ({"device": "synthA", "version": "9",
          "measurements": [[0.0] * 6]}, 404),
        ({"device": "synthA"}, 400),
        ({"measurements": [[0.0] * 6]}, 400),
        ({"device": "synthA", "measurements": [[0.0] * 3]}, 400),
    ])
    def test_disposition_error_statuses(self, registry, payload, status):
        async def scenario(service, client):
            return await client.request("POST", "/disposition", payload)

        got, reply = run_with_service(scenario, registry)
        assert got == status
        assert "error" in reply

    def test_unknown_path_and_wrong_method(self, registry):
        async def scenario(service, client):
            first = await client.request("GET", "/nope")
            second = await client.request("GET", "/disposition")
            return first, second

        (s1, _), (s2, _) = run_with_service(scenario, registry)
        assert s1 == 404
        assert s2 == 405

    def test_malformed_json_is_400(self, registry):
        async def scenario(service, client):
            assert client._writer is None
            await client._connect()
            body = b"{not json"
            head = ("POST /disposition HTTP/1.1\r\n"
                    "Content-Length: {}\r\n\r\n".format(len(body)))
            client._writer.write(head.encode() + body)
            await client._writer.drain()
            status_line = await client._reader.readline()
            return int(status_line.split()[1])

        assert run_with_service(scenario, registry) == 400

    def test_excessive_header_lines_are_400(self, registry):
        """Unbounded header streaming is cut off, not buffered forever."""
        async def scenario(service, client):
            assert client._writer is None
            await client._connect()
            head = "GET /health HTTP/1.1\r\n" + "".join(
                "X-Filler-{}: x\r\n".format(i) for i in range(200))
            client._writer.write(head.encode())
            await client._writer.drain()
            status_line = await client._reader.readline()
            return int(status_line.split()[1])

        assert run_with_service(scenario, registry) == 400


class TestControlPlaneAuth:
    """POST /artifacts[/retire] is loopback-only unless a token is set."""

    _REMOTE = ("203.0.113.5", 40001)
    _LOCAL = ("127.0.0.1", 40001)

    def _route(self, registry, headers, peer, path="/artifacts/retire",
               **service_kwargs):
        async def main():
            service = FloorService(registry, **service_kwargs)
            body = b'{"device": "synthA", "version": "1"}'
            return await service._route("POST", path, headers, body, peer)

        status, reply, _ = asyncio.run(main())
        return status, reply

    def test_remote_post_without_token_is_403(self, registry):
        status, reply = self._route(registry, {}, self._REMOTE)
        assert status == 403
        assert "X-Admin-Token" in reply["error"]

    def test_remote_post_with_wrong_token_is_403(self, registry):
        status, _ = self._route(
            registry, {"x-admin-token": "nope"}, self._REMOTE,
            admin_token="s3cret")
        assert status == 403

    def test_remote_post_with_token_is_honoured(self, registry):
        status, reply = self._route(
            registry, {"x-admin-token": "s3cret"}, self._REMOTE,
            admin_token="s3cret")
        assert status == 200
        assert reply["retired"]["retired"] is True

    def test_loopback_post_needs_no_token(self, registry):
        status, _ = self._route(registry, {}, self._LOCAL)
        assert status == 200

    def test_ipv4_mapped_loopback_peer_is_loopback(self, registry):
        # Dual-stack binds report IPv4 peers as ::ffff:a.b.c.d.
        status, _ = self._route(
            registry, {}, ("::ffff:127.0.0.1", 40001, 0, 0))
        assert status == 200

    def test_empty_token_means_loopback_only_not_open(self, registry):
        # An unset shell variable reaching --admin-token must not
        # authorize every remote peer presenting no header.
        status, _ = self._route(registry, {}, self._REMOTE,
                                admin_token="")
        assert status == 403
        status, _ = self._route(registry, {}, self._LOCAL,
                                admin_token="")
        assert status == 200

    def test_non_ascii_token_header_is_403_not_500(self, registry):
        status, _ = self._route(
            registry, {"x-admin-token": "caf\xe9"}, self._REMOTE,
            admin_token="s3cret")
        assert status == 403

    def test_configured_token_also_gates_loopback(self, registry):
        # Once a token exists, every control-plane caller must show it.
        status, _ = self._route(registry, {}, self._LOCAL,
                                admin_token="s3cret")
        assert status == 403

    def test_data_plane_is_unaffected(self, registry, lookup_pair):
        dut, _ = lookup_pair
        rows = _rows(dut, 2, seed=12)

        async def main():
            service = FloorService(registry)
            body = json.dumps({"device": "synthA",
                               "measurements": rows.tolist()}).encode()
            return await service._route(
                "POST", "/disposition", {}, body, self._REMOTE)

        status, _, _ = asyncio.run(main())
        assert status == 200


class TestBackpressureHTTP:
    def test_queue_full_replies_429(self, registry, lookup_pair):
        dut, _ = lookup_pair
        rows = _rows(dut, 6, seed=8)

        async def scenario(service, client):
            # Park a request below the size-flush threshold; the
            # second connection's request must overflow max_pending.
            parked = asyncio.ensure_future(client.request(
                "POST", "/disposition",
                {"device": "synthA", "measurements": rows.tolist()}))
            await asyncio.sleep(0.05)
            other = HttpClient("127.0.0.1", service.port)
            try:
                status, reply = await other.request(
                    "POST", "/disposition",
                    {"device": "synthA", "measurements": rows.tolist()})
            finally:
                await other.close()
            first_status, _ = await parked
            return status, reply, first_status

        status, reply, first_status = run_with_service(
            scenario, registry,
            max_batch_size=8, max_latency=0.5, max_pending=8)
        assert status == 429
        assert "retry" in reply["error"]
        assert first_status == 200


class TestServingMemoryBound:
    def test_batcher_set_is_lru_bounded(self, saved, lookup_pair,
                                        live_pair, swap_pair):
        """max_resident bounds the serving floors, not just the cache.

        Three registered keys served through a one-slot registry must
        never hold more than one batcher (and its artifact) alive;
        decisions stay correct across evictions.
        """
        registry = ArtifactRegistry(max_resident=1)
        registry.register("a", "1", saved["lookup"])
        registry.register("b", "1", saved["live"])
        registry.register("c", "1", saved["swap"])
        pairs = {"a": lookup_pair, "b": live_pair, "c": swap_pair}

        async def scenario(service, client):
            replies = {}
            for name in ("a", "b", "c", "a", "b"):
                dut, _ = pairs[name]
                rows = _rows(dut, 6, seed=ord(name[0]))
                status, reply = await client.request(
                    "POST", "/disposition",
                    {"device": name, "measurements": rows.tolist()})
                assert status == 200
                offline = Floor(pairs[name][1], monitor=False)
                assert reply["decisions"] == [
                    int(d) for d in offline.dispose(rows).decisions]
                replies[name] = reply
            return len(service._batchers)

        n_batchers = run_with_service(scenario, registry)
        assert n_batchers == 1

    def test_counts_outlive_an_evicted_batcher(self, saved, lookup_pair,
                                               live_pair):
        """Serving counts are lifetime counts per ``device@version``:
        an evicted and rebuilt batcher starts a fresh drift window but
        keeps counting where the label left off."""
        registry = ArtifactRegistry(max_resident=1)
        registry.register("a", "1", saved["lookup"])
        registry.register("b", "1", saved["live"])
        duts = {"a": lookup_pair[0], "b": live_pair[0]}

        async def scenario(service, client):
            for name in ("a", "b", "a"):
                rows = _rows(duts[name], 6, seed=1)
                status, _ = await client.request(
                    "POST", "/disposition",
                    {"device": name, "measurements": rows.tolist()})
                assert status == 200
            return await client.request("GET", "/metrics")

        _, reply = run_with_service(scenario, registry)
        entry = reply["artifacts"]["a@1"]
        assert (entry["n_requests"], entry["n_devices"]) == (2, 12)
        assert entry["drift"]["devices_seen"] == 6
        assert "b@1" not in reply["artifacts"]


class TestHotSwap:
    def test_register_over_http_hot_swaps(self, registry, saved,
                                          lookup_pair, swap_pair):
        dut, _ = lookup_pair
        rows = _rows(dut, 20, seed=9)

        async def scenario(service, client):
            before = await client.request("POST", "/disposition", {
                "device": "synthA", "measurements": rows.tolist()})
            status, _ = await client.request("POST", "/artifacts", {
                "device": "synthA", "version": "2",
                "path": saved["swap"]})
            assert status == 201
            after = await client.request("POST", "/disposition", {
                "device": "synthA", "measurements": rows.tolist()})
            pinned = await client.request("POST", "/disposition", {
                "device": "synthA", "version": "1",
                "measurements": rows.tolist()})
            return before, after, pinned

        before, after, pinned = run_with_service(scenario, registry)
        assert before[1]["version"] == "1"
        assert after[1]["version"] == "2"
        assert pinned[1]["version"] == "1"
        # Each reply matches the offline floor of the version it names.
        for reply, pair in ((before, lookup_pair), (after, swap_pair),
                            (pinned, lookup_pair)):
            offline = Floor(pair[1], monitor=False).dispose(rows)
            assert reply[1]["decisions"] == [int(d)
                                             for d in offline.decisions]

    def test_retire_over_http(self, registry, lookup_pair):
        dut, _ = lookup_pair
        rows = _rows(dut, 4, seed=10)

        async def scenario(service, client):
            status, _ = await client.request(
                "POST", "/artifacts/retire",
                {"device": "synthA", "version": "1"})
            assert status == 200
            return await client.request("POST", "/disposition", {
                "device": "synthA", "measurements": rows.tolist()})

        status, reply = run_with_service(scenario, registry)
        assert status == 404
        assert "synthA" in reply["error"]

    def test_hot_swap_under_concurrent_requests(self, registry, saved,
                                                lookup_pair, swap_pair):
        """Every in-flight reply is internally consistent mid-swap.

        Thirty concurrent requests race a v1->v2 hot-swap; whichever
        version each reply names, its decisions must equal that
        version's offline floor over the same rows.
        """
        dut, _ = lookup_pair
        chunks = [_rows(dut, 5, seed=100 + i) for i in range(30)]

        async def scenario(service, client):
            clients = [HttpClient("127.0.0.1", service.port)
                       for _ in range(4)]

            async def fire(i):
                reply = await clients[i % 4].request(
                    "POST", "/disposition",
                    {"device": "synthA",
                     "measurements": chunks[i].tolist()})
                return i, reply

            async def swap():
                await asyncio.sleep(0.002)
                return await client.request("POST", "/artifacts", {
                    "device": "synthA", "version": "2",
                    "path": saved["swap"]})

            try:
                results = await asyncio.gather(
                    *(fire(i) for i in range(30)), swap())
            finally:
                for extra in clients:
                    await extra.close()
            return results[:-1], results[-1]

        replies, (swap_status, _) = run_with_service(
            scenario, registry, max_batch_size=8, max_latency=0.001)
        assert swap_status == 201
        offline = {
            "1": Floor(lookup_pair[1], monitor=False),
            "2": Floor(swap_pair[1], monitor=False),
        }
        versions = set()
        for i, (status, reply) in replies:
            assert status == 200
            versions.add(reply["version"])
            expected = offline[reply["version"]].dispose(chunks[i])
            assert reply["decisions"] == [int(d)
                                          for d in expected.decisions]
        assert "1" in versions  # at least the early traffic hit v1
