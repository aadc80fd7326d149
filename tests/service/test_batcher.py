"""Micro-batcher semantics: flush triggers, backpressure, equivalence."""

import asyncio
import functools

import numpy as np
import pytest

from repro.errors import ServiceError, ServiceOverloadError
from repro.floor import TestFloor as Floor
from repro.floor.engine import disposition_counts
from repro.service import FloorService, MicroBatcher


class Events(list):
    """An ``on_flush`` hook keeping every batcher event in order."""

    def __call__(self, event, outcome=None, floor_seconds=0.0,
                 queue_waits=()):
        self.append(event)


def _rows(dut, n, seed):
    """n full-spec device rows from the dut's own distribution."""
    rng = np.random.default_rng(seed)
    return np.vstack([dut.measure(dut.sample_parameters(rng))
                      for _ in range(n)])


def _batcher(pair, monitor=False, **kwargs):
    _, artifact = pair
    return MicroBatcher(Floor(artifact, monitor=monitor), **kwargs)


class TestFlushTriggers:
    def test_size_flush_fires_without_waiting_for_latency(self, lookup_pair):
        dut, _ = lookup_pair

        async def scenario():
            # A latency that would time the test out if it were waited on.
            batcher = _batcher(lookup_pair, max_batch_size=8,
                               max_latency=60.0, on_flush=events)
            rows = _rows(dut, 8, seed=3)
            return await asyncio.gather(
                *(batcher.submit(rows[i]) for i in range(8)))

        events = Events()
        results = asyncio.run(asyncio.wait_for(scenario(), 10))
        assert events.count("size") == 1
        assert events.count("latency") == 0
        assert all(r["flush_reason"] == "size" for r in results)
        assert all(r["batch_rows"] == 8 for r in results)

    def test_latency_flush_releases_a_lone_request(self, lookup_pair):
        dut, _ = lookup_pair

        async def scenario():
            batcher = _batcher(lookup_pair, max_batch_size=1024,
                               max_latency=0.01, on_flush=events)
            return await batcher.submit(_rows(dut, 3, seed=4))

        events = Events()
        result = asyncio.run(asyncio.wait_for(scenario(), 10))
        assert result["flush_reason"] == "latency"
        assert result["batch_rows"] == 3
        assert events.count("latency") == 1

    def test_queue_drains_to_zero_after_flush(self, lookup_pair):
        dut, _ = lookup_pair

        async def scenario():
            batcher = _batcher(lookup_pair, max_batch_size=4,
                               max_latency=0.01)
            await batcher.submit(_rows(dut, 6, seed=5))
            return batcher.queue_depth

        assert asyncio.run(scenario()) == 0


class TestBackpressure:
    def test_overflow_is_rejected_immediately(self, lookup_pair):
        dut, _ = lookup_pair

        events = Events()

        async def scenario():
            batcher = _batcher(lookup_pair, max_batch_size=16,
                               max_latency=60.0, max_pending=16,
                               on_flush=events)
            # Park 10 rows below the flush threshold...
            first = asyncio.ensure_future(batcher.submit(_rows(dut, 10, 6)))
            await asyncio.sleep(0)
            assert batcher.queue_depth == 10
            # ...the next 10-row request would exceed max_pending=16.
            with pytest.raises(ServiceOverloadError):
                await batcher.submit(_rows(dut, 10, 7))
            assert events.count("rejected") == 1
            # The parked request is intact and completes on flush.
            batcher.flush()
            result = await first
            assert result["counts"]["n_devices"] == 10

        asyncio.run(asyncio.wait_for(scenario(), 10))

    def test_oversized_single_request_is_permanent_400(self, lookup_pair):
        """A request bigger than the whole queue can never be served:
        it must get a non-retryable ServiceError, not a 429 that a
        well-behaved client would retry forever."""
        dut, _ = lookup_pair

        events = Events()

        async def scenario():
            batcher = _batcher(lookup_pair, max_batch_size=8,
                               max_pending=8, on_flush=events)
            with pytest.raises(ServiceError, match="split it"):
                await batcher.submit(_rows(dut, 9, seed=8))
            assert events.count("rejected") == 0

        asyncio.run(scenario())

    def test_submit_after_close_raises(self, lookup_pair):
        dut, _ = lookup_pair

        async def scenario():
            batcher = _batcher(lookup_pair)
            batcher.close()
            with pytest.raises(ServiceError):
                await batcher.submit(_rows(dut, 1, seed=9))

        asyncio.run(scenario())

    def test_max_pending_must_cover_one_batch(self, lookup_pair):
        with pytest.raises(ServiceError):
            _batcher(lookup_pair, max_batch_size=64, max_pending=32)


class TestWidthValidation:
    def test_width_mismatch_rejected_before_enqueue(self, lookup_pair):
        async def scenario():
            batcher = _batcher(lookup_pair)
            with pytest.raises(ServiceError, match="measurements"):
                await batcher.submit(np.zeros((2, batcher.n_specs + 1)))
            assert batcher.queue_depth == 0

        asyncio.run(asyncio.wait_for(scenario(), 10))

    def test_mismatched_widths_cannot_orphan_coalesced_peers(
            self, lookup_pair):
        """A bad-width request in the same latency window must fail
        alone; valid coalesced peers still get their results."""
        dut, _ = lookup_pair

        async def scenario():
            batcher = _batcher(lookup_pair, max_batch_size=64,
                               max_latency=0.01)
            good = asyncio.ensure_future(
                batcher.submit(_rows(dut, 2, seed=11)))
            bad = asyncio.ensure_future(
                batcher.submit(np.zeros((2, batcher.n_specs - 1))))
            results = await asyncio.gather(good, bad,
                                           return_exceptions=True)
            return results

        good_result, bad_result = asyncio.run(
            asyncio.wait_for(scenario(), 10))
        assert good_result["counts"]["n_devices"] == 2
        assert isinstance(bad_result, ServiceError)


class TestEquivalence:
    @pytest.mark.parametrize("pair_name", ["lookup_pair", "live_pair"])
    def test_coalesced_decisions_match_direct_floor(self, pair_name,
                                                    request):
        """Any coalescing pattern == running each request alone."""
        dut, artifact = request.getfixturevalue(pair_name)
        direct = Floor(artifact, monitor=False)
        chunks = [_rows(dut, n, seed=20 + i)
                  for i, n in enumerate((1, 7, 3, 12, 1, 5))]

        async def scenario():
            batcher = _batcher(request.getfixturevalue(pair_name),
                               max_batch_size=16, max_latency=0.005)
            return await asyncio.gather(
                *(batcher.submit(chunk) for chunk in chunks))

        results = asyncio.run(asyncio.wait_for(scenario(), 10))
        for chunk, result in zip(chunks, results):
            alone = direct.dispose(chunk)
            assert np.array_equal(result["decisions"], alone.decisions)
            assert result["counts"]["n_devices"] == chunk.shape[0]

    def test_request_counts_slice_the_combined_batch(self, lookup_pair):
        dut, artifact = lookup_pair
        chunks = [_rows(dut, 4, seed=31), _rows(dut, 6, seed=32)]

        async def scenario():
            batcher = _batcher(lookup_pair, max_batch_size=10,
                               max_latency=60.0)
            return await asyncio.gather(
                *(batcher.submit(chunk) for chunk in chunks))

        results = asyncio.run(asyncio.wait_for(scenario(), 10))
        direct = Floor(artifact, monitor=False)
        for chunk, result in zip(chunks, results):
            counts = result["counts"]
            alone = direct.dispose(chunk).counts()
            for field in ("n_shipped", "n_scrapped", "n_guard",
                          "n_yield_loss", "n_defect_escape"):
                assert counts[field] == alone[field]
            assert result["batch_rows"] == 10

    @pytest.mark.parametrize("max_batch_size", [16, 64])
    def test_replies_and_stats_match_the_offline_counts(
            self, live_pair, max_batch_size):
        """Alone or coalesced, a reply carries exactly its slice's
        ``disposition_counts`` (same keys, same order, no
        ``n_retested``) and bin histogram, and the service ledger fed
        by the batcher's events adds up to the whole stream's counts."""
        dut, artifact = live_pair
        chunks = [_rows(dut, 16, seed=50 + i) for i in range(4)]
        service = FloorService()
        labels = {"artifact": "synthB@1"}

        async def scenario():
            batcher = MicroBatcher(Floor(artifact),
                                   max_batch_size=max_batch_size,
                                   max_latency=60.0,
                                   on_flush=functools.partial(
                                       service._record, labels))
            return await asyncio.gather(
                *(batcher.submit(chunk) for chunk in chunks))

        results = asyncio.run(asyncio.wait_for(scenario(), 10))
        stats = service._ledger(labels)
        direct = Floor(artifact, monitor=False)
        for chunk, result in zip(chunks, results):
            alone = direct.dispose(chunk)
            want = disposition_counts(alone.decisions, alone.first_pass,
                                      alone.truth)
            assert list(result["counts"].items()) == list(want.items())
            assert (list(result["bin_counts"].items())
                    == list(alone.bin_counts().items()))
            assert result["batch_rows"] == (16 if max_batch_size == 16
                                            else 64)
        whole = direct.dispose(np.vstack(chunks))
        counts = whole.counts()
        for name in ("n_shipped", "n_scrapped", "n_guard", "n_retested"):
            assert stats[name] == counts[name]
        assert (list(stats["bin_counts"].items())
                == list(whole.bin_counts().items()))


class TestMonitorContinuity:
    def test_monitor_window_rolls_across_batches(self, lookup_pair):
        """dispose() feeds the drift monitor without resetting it."""
        dut, artifact = lookup_pair

        async def scenario():
            batcher = MicroBatcher(Floor(artifact),
                                   max_batch_size=32, max_latency=0.005)
            for seed in (41, 42, 43):
                await batcher.submit(_rows(dut, 20, seed))
            return batcher.floor.monitor.n_seen

        assert asyncio.run(asyncio.wait_for(scenario(), 10)) == 60
