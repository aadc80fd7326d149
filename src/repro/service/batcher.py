"""Micro-batching request queue in front of a :class:`TestFloor`.

The floor's hot path is one vectorized pass per batch
(:meth:`repro.floor.engine.TestFloor.dispose`), so a service fielding
many concurrent single-device or small-lot requests wins by coalescing
them: the batcher parks incoming rows on a per-artifact queue and
flushes one combined batch when either

* the queue reaches ``max_batch_size`` rows (size flush), or
* the oldest queued request has waited ``max_latency`` seconds
  (latency flush -- a lone request is never stuck waiting for
  traffic).

Because a disposition is a pure per-device function of the artifact
and the device's measurements, coalescing and splitting never change a
decision: the batcher slices the combined
:class:`~repro.floor.engine.BatchDisposition` back into per-request
results that are bit-identical to running each request through the
floor alone (the service equivalence tests assert this at multiple
coalescing configurations).

Backpressure is explicit: the queue holds at most ``max_pending``
rows; a request that would overflow it is rejected immediately with
:class:`~repro.errors.ServiceOverloadError` (HTTP 429 at the front
end) instead of growing an unbounded buffer.  The caller owns the
retry policy.

The batcher is a pure queue: it keeps no counters.  Every queue event
-- a request queued, rejected or expired, a batch flushed -- is
reported through the ``on_flush`` hook, and the service records those
events into its telemetry registry, the one ledger that both the JSON
and the Prometheus ``/metrics`` views read.

Single-threaded by design: everything runs on the asyncio event loop,
so queue state needs no locking and flush order is deterministic.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadError,
)
from repro.floor.engine import (
    BatchDisposition,
    TestFloor,
    disposition_counts,
)
from repro.rules.binning import bin_histogram

#: Default rows per coalesced floor batch.
DEFAULT_MAX_BATCH_SIZE = 512
#: Default seconds a queued request may wait before a latency flush.
DEFAULT_MAX_LATENCY = 0.005
#: Default bound on queued rows before requests are rejected.
DEFAULT_MAX_PENDING = 65_536


@dataclass
class _PendingRequest:
    rows: np.ndarray
    future: asyncio.Future
    enqueued: float = field(default_factory=time.perf_counter)
    #: Absolute ``time.monotonic()`` deadline; ``None`` = no deadline.
    deadline: float | None = None


class MicroBatcher:
    """Coalesce concurrent disposition requests into floor batches.

    Parameters
    ----------
    floor:
        The :class:`~repro.floor.engine.TestFloor` serving this
        artifact (its drift monitor keeps rolling across batches).
    max_batch_size:
        Rows that trigger an immediate size flush.
    max_latency:
        Seconds the oldest queued request may wait before a latency
        flush.
    max_pending:
        Queued-row bound; beyond it requests are rejected with
        :class:`~repro.errors.ServiceOverloadError`.
    on_flush:
        Optional callback told of every queue event, as
        ``on_flush(event, outcome=None, floor_seconds=0.0,
        queue_waits=())``.  For one request ``event`` is ``"queued"``,
        ``"rejected"`` (queue full, HTTP 429) or ``"expired"`` (deadline
        passed before or while queued).  For a flushed batch it is the
        flush reason (``"size"``, ``"latency"`` or ``"explicit"``) with
        the batch's :class:`~repro.floor.engine.BatchDisposition`, the
        seconds :meth:`~repro.floor.engine.TestFloor.dispose` took and
        each coalesced request's queue wait; ``outcome`` is ``None``
        when ``dispose`` raised.  The service records these events as
        its serving counts.
    """

    def __init__(
        self,
        floor: TestFloor,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_latency: float = DEFAULT_MAX_LATENCY,
        max_pending: int = DEFAULT_MAX_PENDING,
        on_flush=None,
    ):
        if max_batch_size < 1:
            raise ServiceError("max_batch_size must be positive")
        if max_latency < 0:
            raise ServiceError("max_latency must be non-negative")
        if max_pending < max_batch_size:
            raise ServiceError(
                "max_pending ({}) must be at least max_batch_size ({})".format(
                    max_pending, max_batch_size
                )
            )
        self.floor = floor
        self.n_specs = len(floor.artifact.specifications)
        self.max_batch_size = int(max_batch_size)
        self.max_latency = float(max_latency)
        self.max_pending = int(max_pending)
        self.on_flush = _ignore if on_flush is None else on_flush
        self._queue: list[_PendingRequest] = []
        self._pending_rows = 0
        self._flush_handle: asyncio.TimerHandle | None = None
        self._closed = False

    @property
    def queue_depth(self) -> int:
        """Rows currently queued (the backpressure signal)."""
        return self._pending_rows

    async def submit(
        self, rows: np.ndarray, deadline: float | None = None
    ) -> dict:
        """Queue one request; resolves with its per-request result.

        ``rows`` is one device row or a 2-D chunk.  The coroutine
        completes when the batch containing the request has been
        dispositioned; the JSON-ready result dict carries the
        request's own ``decisions`` and ``bins`` plus its counts and the
        rows-per-batch it was coalesced into.

        ``deadline`` is an absolute ``time.monotonic()`` instant: a
        request whose deadline has already passed -- or passes while
        it waits in the queue -- resolves with
        :class:`~repro.errors.DeadlineExceededError` instead of
        spending floor time on an answer nobody is waiting for.
        """
        if self._closed:
            raise ServiceError("batcher is closed")
        if deadline is not None and time.monotonic() >= deadline:
            self.on_flush("expired")
            raise DeadlineExceededError(
                "deadline budget expired before the request could be queued"
            )
        rows = np.asarray(rows, dtype=float)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ServiceError(
                "a request must carry one device row or a non-empty 2-D "
                "chunk; got shape {}".format(rows.shape)
            )
        # Width must be checked before enqueueing: a mismatched request
        # coalesced with valid ones would make the combine step fail for
        # the whole batch instead of just the offending client.
        if rows.shape[1] != self.n_specs:
            raise ServiceError(
                "rows have {} measurements; the served program was "
                "trained on {} specifications".format(
                    rows.shape[1], self.n_specs
                )
            )
        # Larger than the queue itself can never be served no matter
        # how long the client retries -- a permanent 400, not a 429.
        if rows.shape[0] > self.max_pending:
            raise ServiceError(
                "request of {} rows exceeds the queue bound of {} and "
                "can never be served whole; split it into smaller "
                "chunks".format(rows.shape[0], self.max_pending)
            )
        if self._pending_rows + rows.shape[0] > self.max_pending:
            self.on_flush("rejected")
            raise ServiceOverloadError(
                "disposition queue is full ({} rows pending, bound {}); "
                "retry after the queue drains".format(
                    self._pending_rows, self.max_pending
                )
            )
        loop = asyncio.get_running_loop()
        request = _PendingRequest(
            rows=rows, future=loop.create_future(), deadline=deadline
        )
        self._queue.append(request)
        self._pending_rows += rows.shape[0]
        self.on_flush("queued")
        if self._pending_rows >= self.max_batch_size:
            self._flush("size")
        elif self._flush_handle is None:
            self._flush_handle = loop.call_later(
                self.max_latency, self._flush, "latency"
            )
        return await request.future

    def flush(self) -> None:
        """Disposition everything queued right now (used on shutdown)."""
        self._flush("explicit")

    def close(self) -> None:
        """Flush pending work and refuse further submissions."""
        if not self._closed:
            self.flush()
            self._closed = True

    # -- internals ---------------------------------------------------------
    def _flush(self, reason: str) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._queue:
            return
        batch_requests, self._queue = self._queue, []
        self._pending_rows = 0
        # Requests whose deadline expired while queued get a typed
        # failure and are dropped from the batch -- spending floor
        # time on them would only delay the still-live requests.
        now = time.monotonic()
        live: list[_PendingRequest] = []
        for request in batch_requests:
            if request.deadline is not None and now >= request.deadline:
                self.on_flush("expired")
                if not request.future.cancelled():
                    request.future.set_exception(
                        DeadlineExceededError(
                            "deadline budget expired while the request "
                            "was queued (waited {:.1f} ms)".format(
                                (time.perf_counter() - request.enqueued)
                                * 1000.0
                            )
                        )
                    )
            else:
                live.append(request)
        batch_requests = live
        if not batch_requests:
            return
        parts = [request.rows for request in batch_requests]
        started = time.perf_counter()
        try:
            combined = parts[0] if len(parts) == 1 else np.vstack(parts)
            outcome = self.floor.dispose(combined)
        except Exception as exc:
            for request in batch_requests:
                if not request.future.cancelled():
                    request.future.set_exception(exc)
            self.on_flush(reason)
            return
        self.on_flush(
            reason,
            outcome,
            time.perf_counter() - started,
            [started - request.enqueued for request in batch_requests],
        )
        offset = 0
        for request in batch_requests:
            stop = offset + request.rows.shape[0]
            if not request.future.cancelled():
                request.future.set_result(_slice_result(outcome, offset, stop, reason))
            offset = stop

    def __repr__(self) -> str:
        return (
            "MicroBatcher(max_batch={}, max_latency={:g}s, "
            "max_pending={}, depth={})".format(
                self.max_batch_size,
                self.max_latency,
                self.max_pending,
                self.queue_depth,
            )
        )


def _ignore(event, outcome=None, floor_seconds=0.0, queue_waits=()):
    """The default ``on_flush``: nobody is counting."""


def _slice_result(
    outcome: BatchDisposition, start: int, stop: int, reason: str
) -> dict:
    """One request's JSON-ready view of the combined batch outcome."""
    decisions = outcome.decisions[start:stop]
    result = {
        "decisions": [int(d) for d in decisions],
        "counts": disposition_counts(
            decisions,
            outcome.first_pass[start:stop],
            outcome.truth[start:stop],
        ),
        "batch_rows": int(outcome.n_devices),
        "flush_reason": reason,
    }
    # Additive bin view (tolerance-profile disposition): per-device bin
    # names plus the request's histogram.  The legacy keys above are
    # the binary-parity surface and never change shape or meaning.
    if outcome.bins is not None:
        bins = outcome.bins[start:stop]
        result["bins"] = [outcome.bin_names[b] for b in bins]
        result["bin_counts"] = bin_histogram(bins, outcome.bin_names)
    return result
