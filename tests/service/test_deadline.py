"""Graceful degradation under deadlines: X-Repro-Deadline-Ms -> 504.

The header carries the caller's *remaining budget* in milliseconds;
each tier converts it to an absolute monotonic deadline and refuses to
spend floor work on a request that has already missed it.  An expired
deadline is a typed 504 before any disposition runs -- at the router,
at the worker front end, and inside the batcher queue.
"""

import asyncio
import json
import time

import numpy as np
import pytest

from repro.errors import DeadlineExceededError, ServiceError
from repro.floor import TestFloor as Floor
from repro.service import FloorService, HttpClient, MicroBatcher
from repro.service.cluster import ClusterService, WorkerHandle
from repro.service.server import DEADLINE_HEADER, parse_deadline


def _rows(dut, n, seed):
    rng = np.random.default_rng(seed)
    return np.vstack([dut.measure(dut.sample_parameters(rng))
                      for _ in range(n)])


class TestParseDeadline:
    def test_absent_header_means_no_deadline(self):
        assert parse_deadline({}) is None
        assert parse_deadline({DEADLINE_HEADER: "  "}) is None

    def test_budget_becomes_absolute_monotonic_deadline(self):
        before = time.monotonic()
        deadline = parse_deadline({DEADLINE_HEADER: "250"})
        after = time.monotonic()
        assert before + 0.25 <= deadline <= after + 0.25

    @pytest.mark.parametrize("raw", ["soon", "12abc", "", "nan", "inf",
                                     "0", "-50"])
    def test_malformed_or_nonpositive_budgets_are_typed(self, raw):
        if not raw.strip():
            assert parse_deadline({DEADLINE_HEADER: raw}) is None
            return
        with pytest.raises(ServiceError, match="Deadline-Ms"):
            parse_deadline({DEADLINE_HEADER: raw})


class TestServiceDeadline:
    def _route(self, registry, budget_ms, payload_rows):
        async def main():
            service = FloorService(registry)
            body = json.dumps({"device": "synthA",
                               "measurements": payload_rows}).encode()
            headers = {DEADLINE_HEADER: budget_ms} if budget_ms else {}
            return await service._route(
                "POST", "/disposition", headers, body, ("127.0.0.1", 1))

        status, reply, _ = asyncio.run(main())
        return status, reply

    def test_expired_deadline_is_504_before_floor_work(self, registry,
                                                       lookup_pair):
        dut, _ = lookup_pair
        rows = _rows(dut, 2, seed=3).tolist()
        # 1 microsecond of budget is gone by the time the route runs.
        status, reply = self._route(registry, "0.001", rows)
        assert status == 504
        assert "deadline" in reply["error"]

    def test_generous_deadline_serves_normally(self, registry, lookup_pair):
        dut, artifact = lookup_pair
        rows = _rows(dut, 3, seed=4)
        status, reply = self._route(registry, "30000", rows.tolist())
        assert status == 200
        offline = Floor(artifact, monitor=False).dispose(rows)
        assert reply["decisions"] == [int(d) for d in offline.decisions]

    def test_malformed_deadline_is_400_not_500(self, registry, lookup_pair):
        dut, _ = lookup_pair
        status, reply = self._route(registry, "whenever",
                                    _rows(dut, 1, seed=5).tolist())
        assert status == 400
        assert "Deadline-Ms" in reply["error"]


class TestBatcherDeadline:
    def test_pre_queue_expiry_is_typed(self, lookup_pair):
        _, artifact = lookup_pair
        dut = lookup_pair[0]

        async def scenario():
            batcher = MicroBatcher(Floor(artifact, monitor=False))
            with pytest.raises(DeadlineExceededError, match="before"):
                await batcher.submit(_rows(dut, 2, seed=6),
                                     deadline=time.monotonic() - 0.01)
            return batcher.stats.n_deadline_expired

        assert asyncio.run(asyncio.wait_for(scenario(), 10)) == 1

    def test_expiry_while_queued_is_typed_and_peers_survive(self,
                                                            lookup_pair):
        """A request whose budget dies in the queue 504s; the batch
        that eventually flushes still serves its live peers."""
        dut, artifact = lookup_pair

        async def scenario():
            batcher = MicroBatcher(Floor(artifact, monitor=False),
                                   max_batch_size=1024, max_latency=0.25)
            doomed = asyncio.ensure_future(batcher.submit(
                _rows(dut, 2, seed=7),
                deadline=time.monotonic() + 0.02))
            alive = asyncio.ensure_future(batcher.submit(
                _rows(dut, 3, seed=8)))
            results = await asyncio.gather(doomed, alive,
                                           return_exceptions=True)
            return results, batcher.stats.n_deadline_expired

        (doomed_result, alive_result), n_expired = asyncio.run(
            asyncio.wait_for(scenario(), 10))
        assert isinstance(doomed_result, DeadlineExceededError)
        assert "waited" in str(doomed_result)
        assert alive_result["counts"]["n_devices"] == 3
        assert n_expired == 1


class TestClusterDeadline:
    def test_expired_deadline_never_reaches_a_worker(self, monkeypatch):
        cluster = ClusterService(n_workers=2)
        cluster._workers = [WorkerHandle(index=i, port=1000 + i,
                                         healthy=True) for i in range(2)]

        def fake_backend(conn, worker):  # pragma: no cover
            raise AssertionError("an expired request must not be proxied")

        monkeypatch.setattr(cluster, "_backend", fake_backend)
        body = json.dumps({"device": "synthA",
                           "measurements": [[0.0] * 6]}).encode()

        async def main():
            return await cluster._route(
                "POST", "/disposition", {DEADLINE_HEADER: "0.001"},
                body, ("127.0.0.1", 1), "", {})

        status, reply, _ = asyncio.run(main())
        assert status == 504
        assert "router" in reply["error"]

    def test_remaining_budget_is_forwarded_to_the_worker(self, monkeypatch):
        cluster = ClusterService(n_workers=1)
        cluster._workers = [WorkerHandle(index=0, port=1000, healthy=True)]
        seen = {}

        class FakeClient:
            last_headers = {}

            async def request(self, method, path, body, headers=None):
                seen.update(headers or {})
                return 200, {"decisions": [1]}

        monkeypatch.setattr(
            cluster, "_backend", lambda conn, worker: FakeClient())
        body = json.dumps({"device": "synthA",
                           "measurements": [[0.0] * 6]}).encode()

        async def main():
            return await cluster._route(
                "POST", "/disposition", {DEADLINE_HEADER: "5000"},
                body, ("127.0.0.1", 1), "", {})

        status, _, _ = asyncio.run(main())
        assert status == 200
        forwarded = float(seen[DEADLINE_HEADER])
        # The worker sees the *remaining* budget: positive, and never
        # more than what the caller granted.
        assert 0 < forwarded <= 5000


@pytest.mark.slow
class TestDeadlineLive:
    def test_end_to_end_504_through_a_live_cluster(self, saved):
        async def main():
            cluster = ClusterService(
                registrations=[("synthA", "1", saved["lookup"])],
                n_workers=2)
            await cluster.start("127.0.0.1", 0)
            client = HttpClient("127.0.0.1", cluster.port)
            payload = {"device": "synthA", "measurements": [[0.0] * 6]}
            try:
                expired = await client.request(
                    "POST", "/disposition", payload,
                    headers={"X-Repro-Deadline-Ms": "0.001"})
                served = await client.request(
                    "POST", "/disposition", payload,
                    headers={"X-Repro-Deadline-Ms": "30000"})
            finally:
                await client.close()
                await cluster.stop()
            return expired, served

        (expired_status, expired_reply), (served_status, _) = asyncio.run(
            asyncio.wait_for(main(), 180))
        assert expired_status == 504
        assert "deadline" in expired_reply["error"]
        assert served_status == 200
