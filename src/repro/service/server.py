"""Asyncio HTTP/JSON front end shared by both serving tiers.

:class:`HttpApp` is the one HTTP app of the package: listener,
keep-alive connection loop, route table and error -> status map.  Its
two data-plane backends are :class:`FloorService` (a local batcher:
a registry of deployed test programs served through per-artifact
:class:`~repro.service.batcher.MicroBatcher` queues) and
:class:`~repro.service.cluster.ClusterService` (a remote shard: each
request proxied to the worker process owning its device).  Pure
stdlib: a minimal HTTP/1.1 over ``asyncio.start_server`` (keep-alive,
``Content-Length`` bodies), no web framework required.

Endpoints (both tiers)
----------------------

``POST /disposition``
    ``{"device": ..., "version"?: ..., "measurements": [[...], ...]}``
    -- full-specification rows, one per device.  Replies with the
    per-device ``decisions`` (+1 ship / -1 scrap), the request's
    quality counts and the resolved artifact key, plus the per-device
    ``bins`` (tolerance-profile bin names; binary programs serve the
    degenerate PASS/FAIL pair) and the request's ``bin_counts``
    histogram.  Queue-full replies are ``429`` with a ``Retry-After``
    header -- explicit backpressure instead of unbounded buffering.
``GET /artifacts``
    Registry listing (versions, checksums, residency, retirement).
``POST /artifacts``
    ``{"device": ..., "version": ..., "path": ...}`` -- register or
    hot-swap an artifact file (loaded through the restricted loader).
``POST /artifacts/retire``
    ``{"device": ..., "version": ...}`` -- take a version out of
    rotation.

The two ``POST /artifacts*`` endpoints are the **control plane**: they
make the server read files off its own disk and change which programs
disposition production devices.  They are only honoured from loopback
peers unless the app was constructed with an ``admin_token``, in
which case remote callers must present it in an ``X-Admin-Token``
header (compared in constant time).  A non-loopback bind without a
token keeps serving dispositions but refuses remote control-plane
calls with ``403``.
``GET /health``
    Liveness plus uptime and registration count.
``GET /metrics``
    Per-artifact throughput, realized coalescing, queue depth, served
    bin histograms and the drift-monitor state (devices seen, active
    alarms).  ``?format=prometheus`` serves the same state as
    Prometheus text exposition v0.0.4.  Both views read one ledger,
    the app's telemetry registry: every serving count is a
    ``repro_service_*`` series labelled ``artifact=device@version``
    (plus ``worker`` in a cluster), counted over the label's lifetime
    in this process.  Snapshot assembly is cached and invalidated per
    batcher event / registry change, so a scrape never rebuilds
    per-artifact state inside the event loop.

Every response carries an ``X-Request-Id`` header -- echoed from the
request when the client sent one, generated otherwise -- and the same
ID is attached to the request's telemetry span and forwarded by the
router to the worker, so the two tiers' spans join on it.

Decisions served here are bit-identical to an offline
:class:`~repro.floor.engine.TestFloor` pass over the same devices at
any coalescing pattern (`repro loadgen` asserts it end to end).
"""

from __future__ import annotations

import asyncio
import functools
import hmac
import ipaddress
import json
import os
import time
from abc import ABC, abstractmethod
from collections import OrderedDict

import numpy as np

from repro import __version__
from repro.errors import (
    ClusterDegradedError,
    DeadlineExceededError,
    JournalError,
    ReproError,
    ServiceError,
    ServiceOverloadError,
    UnknownArtifactError,
)
from repro.floor.engine import TestFloor
from repro.service.batcher import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_LATENCY,
    DEFAULT_MAX_PENDING,
    MicroBatcher,
)
from repro.service.durability import StateJournal
from repro.service.registry import ArtifactRegistry
from repro.telemetry import Telemetry, get_telemetry, prometheus_text
from repro.tester.program import RETEST_FULL, check_retest_policy

#: Largest accepted request body (64 MiB of JSON measurements).
MAX_BODY_BYTES = 64 << 20
#: Most header lines accepted per request (each is also line-limited
#: by the StreamReader, so total header memory is bounded).
MAX_HEADER_LINES = 100

#: Request header carrying the caller's remaining deadline budget in
#: milliseconds.  Honored at every tier (router -> worker -> batcher):
#: an expired budget answers 504 *before* any floor work runs.
DEADLINE_HEADER = "x-repro-deadline-ms"

#: Test-only fault hook (installed by :mod:`repro.chaos.inject`;
#: ``None`` in production).  Called as ``hook(tier, path)`` just before
#: a response is written, at both tiers; for a ``/disposition``
#: response it may answer ``("delay", s)`` (sleep), ``("drop", _)``
#: (close the connection unanswered) or ``("reset", _)`` (abort the
#: transport).  Post-decision only -- a retried request replays to a
#: bit-identical decision because dispositions are pure.
RESPONSE_FAULT_HOOK = None

#: Every routed path; a known path with the wrong method is a 405.
_PATHS = ("/disposition", "/artifacts", "/artifacts/retire", "/health", "/metrics")
#: The control-plane paths (``POST`` only) behind the admin gate.
_CONTROL_PATHS = ("/artifacts", "/artifacts/retire")

#: Batcher request event -> (its JSON ``/metrics`` count, its counter).
_EVENT_COUNTERS = {
    "queued": ("n_requests", "repro_service_queued_requests_total"),
    "rejected": ("n_rejected", "repro_service_rejected_total"),
    "expired": ("n_deadline_expired", "repro_service_deadline_expired_total"),
}
#: JSON ``/metrics`` count of flushed batches -> its counter.
_FLUSH_COUNTERS = {
    "n_devices": "repro_service_devices_total",
    "n_shipped": "repro_service_shipped_total",
    "n_scrapped": "repro_service_scrapped_total",
    "n_guard": "repro_service_guard_total",
    "n_retested": "repro_service_retested_total",
    "n_bin_retested": "repro_service_bin_retested_total",
    "total_cost": "repro_service_cost_total",
}


class HttpApp(ABC):
    """The HTTP front end of both serving tiers.

    Owns the listener, the connection set, the keep-alive connection
    loop and the route table with its error -> status map.  A backend
    subclass sets :attr:`tier` and implements the hooks below: the
    data plane (:meth:`_dispose`), the control plane
    (:meth:`_register`, :meth:`_retire`) and the observability plane.

    ``admin_token`` gates remote control-plane calls (see
    :func:`authorized_admin`).  ``telemetry`` defaults to the process's
    active registry when one is configured (``repro serve
    --telemetry``), else a private always-on registry so the Prometheus
    endpoint works out of the box.  ``labels`` are extra telemetry
    labels on every request metric, ``headers`` extra ``(name, value)``
    headers on every response.
    """

    #: ``"service"`` or ``"cluster"``: names the request span, the
    #: request metrics and the fault-hook tier.
    tier: str

    def __init__(
        self,
        admin_token: str | None,
        telemetry: Telemetry | None,
        labels: dict | None = None,
        headers: tuple = (),
    ):
        # An empty token (e.g. an unset shell variable reaching
        # --admin-token) must fall back to loopback-only, never to
        # token auth with an empty secret.
        self.admin_token = admin_token or None
        if telemetry is None:
            active = get_telemetry()
            telemetry = active if active.enabled else Telemetry()
        self.telemetry = telemetry
        self._labels = labels or {}
        self._headers = headers
        self._span_name = "{}.request".format(self.tier)
        self._seconds_name = "repro_{}_request_seconds".format(self.tier)
        self._total_name = "repro_{}_requests_total".format(self.tier)
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        self._started_unix = time.time()
        self.n_http_requests = 0

    # -- lifecycle ---------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> "HttpApp":
        """Bind and start accepting connections (``port=0`` = ephemeral)."""
        if self._server is not None:
            raise ServiceError("{} is already started".format(self.tier))
        self._server = await asyncio.start_server(self._handle, host, port)
        self._started_unix = time.time()
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise ServiceError("{} is not started".format(self.tier))
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServiceError("{} is not started".format(self.tier))
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting and release the socket.

        Open keep-alive connections are closed and their handler tasks
        awaited, so no task is left to be cancelled at loop teardown.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)

    # -- backend hooks -----------------------------------------------------
    @abstractmethod
    async def _dispose(
        self,
        request: dict,
        body: bytes,
        headers: dict,
        deadline: float | None,
        conn: dict,
    ) -> tuple[int, dict, tuple]:
        """Serve one ``/disposition``: ``(status, reply, extra headers)``.

        ``request`` is the decoded JSON body and ``body`` its raw
        bytes.  ``conn`` is the connection's state: a dict whose values
        have an async ``close()``, all awaited when the connection ends.
        """

    @abstractmethod
    async def _register(self, device: str, version: str, path: str) -> dict:
        """``POST /artifacts``: register or hot-swap; the 201 reply."""

    @abstractmethod
    async def _retire(self, device: str, version: str) -> dict:
        """``POST /artifacts/retire``: the 200 reply."""

    @abstractmethod
    async def artifacts(self) -> dict:
        """``GET /artifacts``: the registry listing."""

    @abstractmethod
    def health(self) -> dict:
        """``GET /health``: liveness, uptime, request count."""

    @abstractmethod
    async def metrics(self) -> dict:
        """``GET /metrics``: the JSON snapshot."""

    @abstractmethod
    async def metrics_prometheus(self) -> str:
        """``GET /metrics?format=prometheus``: the text exposition."""

    # -- HTTP plumbing -----------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._connections.add(writer)
        conn: dict = {}
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except (ServiceError, ValueError) as exc:
                    # ValueError covers stream-level refusals the
                    # parser does not see itself, e.g. a header line
                    # beyond the StreamReader limit.
                    await _write_response(writer, 400, {"error": str(exc)}, False)
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                self.n_http_requests += 1
                request_id = headers.get("x-request-id") or "req-{}".format(
                    self.n_http_requests
                )
                # Stored back, so a backend that forwards the request
                # forwards the id echoed here.
                headers["x-request-id"] = request_id
                started = time.perf_counter()
                with self.telemetry.span(
                    self._span_name,
                    method=method,
                    path=path,
                    request_id=request_id,
                ) as span:
                    status, payload, extra = await self._route(
                        method,
                        path,
                        headers,
                        body,
                        writer.get_extra_info("peername"),
                        query,
                        conn,
                    )
                    span.set(status=status)
                keep_alive = headers.get("connection", "").lower() != "close"
                hook = RESPONSE_FAULT_HOOK
                fault = hook(self.tier, path) if hook is not None else None
                if fault is not None and await apply_response_fault(writer, fault):
                    break
                extra = (("X-Request-Id", request_id),) + self._headers + extra
                await _write_response(
                    writer, status, payload, keep_alive, extra_headers=extra
                )
                self.telemetry.observe(
                    self._seconds_name,
                    time.perf_counter() - started,
                    path=path,
                    **self._labels,
                )
                self.telemetry.counter(
                    self._total_name,
                    1,
                    path=path,
                    status=str(status),
                    **self._labels,
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            for resource in conn.values():
                await resource.close()
            self._connections.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()

    async def _route(
        self,
        method: str,
        path: str,
        headers: dict,
        body: bytes,
        peer=None,
        query: str = "",
        conn: dict | None = None,
    ) -> tuple[int, object, tuple]:
        """One request -> ``(status, payload, extra headers)``; never raises."""
        try:
            if (
                path in _CONTROL_PATHS
                and method == "POST"
                and not authorized_admin(self.admin_token, headers, peer)
            ):
                return (
                    403,
                    {
                        "error": "control-plane calls from non-loopback "
                        "peers require a valid X-Admin-Token header"
                    },
                    (),
                )
            if path == "/disposition" and method == "POST":
                deadline = parse_deadline(headers)
                if deadline is not None and time.monotonic() >= deadline:
                    raise DeadlineExceededError(
                        "deadline budget expired at the {} router before "
                        "floor work; re-issue with a fresh "
                        "X-Repro-Deadline-Ms".format(self.tier)
                    )
                return await self._dispose(
                    _json_body(body),
                    body,
                    headers,
                    deadline,
                    {} if conn is None else conn,
                )
            if path == "/artifacts" and method == "GET":
                return 200, await self.artifacts(), ()
            if path == "/artifacts" and method == "POST":
                request = _json_body(body)
                reply = await self._register(
                    _required(request, "device"),
                    _required(request, "version"),
                    _required(request, "path"),
                )
                return 201, reply, ()
            if path == "/artifacts/retire" and method == "POST":
                request = _json_body(body)
                reply = await self._retire(
                    _required(request, "device"), _required(request, "version")
                )
                return 200, reply, ()
            if path == "/health" and method == "GET":
                return 200, self.health(), ()
            if path == "/metrics" and method == "GET":
                wire_format = _query_param(query, "format") or "json"
                if wire_format == "prometheus":
                    return 200, await self.metrics_prometheus(), ()
                if wire_format != "json":
                    raise ServiceError(
                        "unknown metrics format {!r}; expected 'json' or "
                        "'prometheus'".format(wire_format)
                    )
                return 200, await self.metrics(), ()
            if path in _PATHS:
                return 405, {"error": "method {} not allowed".format(method)}, ()
            return 404, {"error": "unknown path {}".format(path)}, ()
        except DeadlineExceededError as exc:
            return 504, {"error": str(exc)}, ()
        except JournalError as exc:
            return 507, {"error": str(exc)}, ()
        except ServiceOverloadError as exc:
            return 429, {"error": str(exc)}, ()
        except ClusterDegradedError as exc:
            return 503, {"error": str(exc)}, ()
        except UnknownArtifactError as exc:
            return 404, {"error": str(exc)}, ()
        except (ReproError, ValueError) as exc:
            return 400, {"error": str(exc)}, ()
        except OSError as exc:
            return 400, {"error": "cannot load artifact: {}".format(exc)}, ()
        except Exception as exc:  # pragma: no cover - defensive surface
            return 500, {"error": "internal error: {}".format(exc)}, ()


class FloorService(HttpApp):
    """Serve many test-program artifacts over HTTP/JSON.

    The local-batcher backend of :class:`HttpApp` (tier ``"service"``).

    Parameters
    ----------
    registry:
        The artifact registry; may start empty (artifacts can be
        registered over HTTP).
    retest_policy:
        Guard-band policy applied by every served floor.
    max_batch_size, max_latency, max_pending:
        Micro-batching knobs, applied per artifact queue (see
        :class:`~repro.service.batcher.MicroBatcher`).
    admin_token:
        Shared secret for remote control-plane calls.  Without it,
        ``POST /artifacts`` and ``POST /artifacts/retire`` are honoured
        only from loopback peers.
    worker_label:
        Identity of this process inside a
        :class:`~repro.service.cluster.ClusterService` (``"w0"``,
        ``"w1"``, ...).  When set, every response carries it in an
        ``X-Repro-Worker`` header and every service gauge/counter in
        the telemetry registry gets a ``worker`` label, so per-worker
        attribution survives aggregation at the cluster router.
        ``None`` (the default) is the single-process deployment: no
        header, no extra label.
    telemetry:
        The :class:`~repro.telemetry.Telemetry` registry holding the
        serving counts behind both ``/metrics`` formats, and the
        request spans (default as in :class:`HttpApp`).
    state_dir:
        Directory for the control-plane write-ahead journal
        (``repro serve --state-dir``).  When set, register/retire
        operations are journaled (fsync before ack) and replayed into
        the registry at construction, so a crash + restart
        reconstructs the exact pre-crash registration state.  ``None``
        (the default) keeps the registry memory-only.
    """

    tier = "service"

    def __init__(
        self,
        registry: ArtifactRegistry | None = None,
        retest_policy: str = RETEST_FULL,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_latency: float = DEFAULT_MAX_LATENCY,
        max_pending: int = DEFAULT_MAX_PENDING,
        admin_token: str | None = None,
        worker_label: str | None = None,
        telemetry: Telemetry | None = None,
        state_dir: str | None = None,
    ):
        check_retest_policy(retest_policy)
        self.registry = registry if registry is not None else ArtifactRegistry()
        self.retest_policy = retest_policy
        self.worker_label = worker_label or None
        # Outside a cluster: no worker label and no header, so
        # single-process series names are unchanged.
        label = self.worker_label
        super().__init__(
            admin_token,
            telemetry,
            labels={"worker": label} if label else {},
            headers=(("X-Repro-Worker", label),) if label else (),
        )
        self.max_batch_size = int(max_batch_size)
        self.max_latency = float(max_latency)
        self.max_pending = int(max_pending)
        #: key -> (registration sequence, batcher), warmest last.
        #: Keyed off the registry *sequence*, not artifact object
        #: identity: the registry LRU may reload a file-backed
        #: artifact at any time without that being a hot-swap, and an
        #: active batcher must keep its floor (drift-monitor window)
        #: across such reloads.  The batcher set itself is
        #: LRU-bounded by the registry's ``max_resident`` so the
        #: registry bound is a real memory bound: serving the
        #: coldest key's floor is dropped (flushed first; its drift
        #: window restarts if the key warms up again, its counts in
        #: the telemetry registry do not).
        self._batchers: OrderedDict[tuple[str, str], tuple[int, MicroBatcher]] = (
            OrderedDict()
        )
        # Cached /metrics snapshot: (version it was built at, payload).
        # Flushes and registry changes bump _metrics_version; scrapes
        # rebuild only when the version moved, so snapshot assembly
        # stays off the request path.
        self._metrics_version = 0
        self._metrics_cache: tuple[int, dict] | None = None
        #: Control-plane write-ahead journal (``None`` = memory-only).
        self.journal: StateJournal | None = None
        if state_dir is not None:
            self.journal = StateJournal(state_dir)
            self._replay_journal()

    def _replay_journal(self) -> None:
        """Rebuild the registry from the journal's validated ops."""
        assert self.journal is not None
        for record in self.journal.replay():
            try:
                if record["op"] == "register":
                    self.registry.register(
                        record["device"], record["version"], record["path"]
                    )
                else:
                    self.registry.retire(record["device"], record["version"])
            except (ReproError, OSError) as exc:
                raise ServiceError(
                    "cannot replay journaled {} of {}@{}: {}".format(
                        record["op"], record["device"], record["version"], exc
                    )
                ) from exc
        if len(self.journal):
            self._invalidate_metrics()

    async def stop(self) -> None:
        """Flush every queue, then stop accepting and release the socket."""
        for _, batcher in self._batchers.values():
            batcher.close()
        await super().stop()

    # -- the data plane ----------------------------------------------------
    def batcher(self, device: str, version: str | None = None) -> MicroBatcher:
        """The micro-batcher serving a resolved artifact key.

        Batchers are created lazily per ``(device, version)`` key, so a
        hot-swap (new version registered) naturally routes unpinned
        traffic to a fresh queue/floor while pinned requests keep the
        old one until it is retired.
        """
        key = self.registry.resolve(device, version)
        sequence = self.registry.entry(*key).sequence
        cached = self._batchers.get(key)
        if cached is not None and cached[0] == sequence:
            self._batchers.move_to_end(key)
            return cached[1]
        # New key, or the key was re-registered (same-key hot-swap):
        # build a fresh floor from the registry's current truth.
        if cached is not None:
            cached[1].close()
            del self._batchers[key]
        _, artifact = self.registry.get(*key)
        batcher = MicroBatcher(
            TestFloor(artifact, retest_policy=self.retest_policy),
            max_batch_size=self.max_batch_size,
            max_latency=self.max_latency,
            max_pending=self.max_pending,
            on_flush=functools.partial(self._record, self._artifact_labels(key)),
        )
        self._batchers[key] = (sequence, batcher)
        while len(self._batchers) > self.registry.max_resident:
            _, (_, coldest) = self._batchers.popitem(last=False)
            coldest.close()
        self._invalidate_metrics()
        return batcher

    async def disposition(
        self,
        device: str,
        measurements,
        version: str | None = None,
        deadline: float | None = None,
    ) -> dict:
        """Disposition rows through the batching queue; JSON-ready reply.

        ``deadline`` is an absolute ``time.monotonic()`` instant; a
        request whose deadline passes while queued gets
        :class:`~repro.errors.DeadlineExceededError` instead of floor
        work (HTTP 504 at the front end).
        """
        key = self.registry.resolve(device, version)
        result = await self.batcher(*key).submit(measurements, deadline=deadline)
        return {"device": key[0], "version": key[1], **result}

    async def _dispose(self, request, body, headers, deadline, conn):
        measurements = request.get("measurements")
        if measurements is None:
            raise ServiceError("request must carry a 'measurements' array")
        reply = await self.disposition(
            _required(request, "device"),
            np.asarray(measurements, dtype=float),
            request.get("version"),
            deadline=deadline,
        )
        return 200, reply, ()

    # -- control/observability planes --------------------------------------
    def register_artifact(self, device: str, version: str, path: str):
        """Register/hot-swap an artifact; journaled before it is acked.

        The registry applies the registration first (loading and
        checksumming the file -- a bad artifact never reaches the
        journal), then the journal records it durably.  If the journal
        append fails (disk full), the registration is rolled back by
        retiring the fresh key so memory and durable state cannot
        disagree, and a typed :class:`~repro.errors.JournalError`
        surfaces (HTTP 507).
        """
        device, version = str(device), str(version)
        had_entry = (device, version) in self.registry
        entry = self.registry.register(device, version, path)
        if self.journal is not None:
            try:
                self.journal.append(
                    "register", device, version, path=os.fspath(path)
                )
            except OSError as exc:
                if not had_entry:
                    self.registry.retire(device, version)
                raise JournalError(
                    "register {}@{} is not durable (journal append "
                    "failed: {}); rolled back".format(device, version, exc)
                ) from exc
        self._invalidate_metrics()
        return entry

    def retire_artifact(self, device: str, version: str):
        """Retire a version; journaled before it is acked."""
        device, version = str(device), str(version)
        entry = self.registry.retire(device, version)
        if self.journal is not None:
            try:
                self.journal.append("retire", device, version)
            except OSError as exc:
                # Un-retire in place: the entry keeps its original
                # sequence, so hot-swap resolution order is untouched
                # (a re-register would wrongly make it newest).
                entry.retired = False
                raise JournalError(
                    "retire {}@{} is not durable (journal append "
                    "failed: {}); rolled back".format(device, version, exc)
                ) from exc
        cached = self._batchers.pop(entry.key, None)
        if cached is not None:
            cached[1].close()
        self._invalidate_metrics()
        return entry

    async def _register(self, device, version, path):
        entry = self.register_artifact(device, version, path)
        return {"registered": entry.describe(resident=True)}

    async def _retire(self, device, version):
        entry = self.retire_artifact(device, version)
        return {"retired": entry.describe(resident=False)}

    async def artifacts(self) -> dict:
        return {"artifacts": self.registry.describe()}

    def health(self) -> dict:
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": time.time() - self._started_unix,
            "n_artifacts": len(self.registry),
            "n_http_requests": self.n_http_requests,
        }

    def _invalidate_metrics(self) -> None:
        """Mark the cached metrics snapshot stale (cheap; no rebuild)."""
        self._metrics_version += 1

    def _artifact_labels(self, key: tuple[str, str]) -> dict:
        """Telemetry labels of one artifact's series."""
        return dict(self._labels, artifact="{}@{}".format(*key))

    def _record(self, labels, event, outcome=None, floor_seconds=0.0, queue_waits=()):
        """Record one batcher event (its ``on_flush``) in the registry.

        The registry is the only record of serving counts; a flush is
        recorded once, from the whole batch's counts.
        """
        tel = self.telemetry
        if event in _EVENT_COUNTERS:
            tel.counter(_EVENT_COUNTERS[event][1], 1, **labels)
        elif outcome is not None:
            counts = outcome.counts()
            counts["n_bin_retested"] = outcome.n_bin_retested
            counts["total_cost"] = outcome.cost
            for field, name in _FLUSH_COUNTERS.items():
                tel.counter(name, counts[field], **labels)
            tel.counter("repro_service_flushes_total", 1, reason=event, **labels)
            tel.observe("repro_service_floor_seconds", floor_seconds, **labels)
            for wait in queue_waits:
                tel.observe("repro_service_queue_wait_seconds", wait, **labels)
            for name, n in outcome.bin_counts().items():
                tel.counter("repro_service_bin_devices_total", n, bin=name, **labels)
        self._invalidate_metrics()

    def _ledger(self, labels: dict) -> dict:
        """One artifact's JSON ``/metrics`` counts, read from the registry."""
        series = self.telemetry.series

        def total(name, field=None, **extra):
            return sum(
                value if field is None else value[field]
                for _, value in series(name, **labels, **extra)
            )

        entry = {field: total(name) for field, name in _EVENT_COUNTERS.values()}
        entry.update((field, total(name)) for field, name in _FLUSH_COUNTERS.items())
        floor, bins = "repro_service_floor_seconds", "repro_service_bin_devices_total"
        n_devices = entry["n_devices"]
        n_batches = entry["n_batches"] = total(floor, "count")
        busy = entry["busy_seconds"] = float(total(floor, "sum"))
        entry.update(
            n_size_flushes=total("repro_service_flushes_total", reason="size"),
            n_latency_flushes=total("repro_service_flushes_total", reason="latency"),
            total_cost=float(entry["total_cost"]),
            queue_wait_seconds=float(total("repro_service_queue_wait_seconds", "sum")),
            bin_counts={key["bin"]: n for key, n in series(bins, **labels)},
            devices_per_minute=n_devices * 60.0 / busy if busy > 0 else 0.0,
            mean_batch_rows=n_devices / n_batches if n_batches else 0.0,
        )
        return entry

    def _metrics_snapshot(self) -> dict:
        """The per-artifact metrics state, rebuilt only when stale.

        Assembly reads every artifact's counts back from the registry,
        evaluates the drift charts and refreshes the telemetry gauges
        -- work that runs at most once per batcher event or registry
        change: a scrape at an unchanged version returns the cached
        snapshot untouched.  Because batcher events and registry
        mutations are synchronous with respect to the loop, the
        snapshot is always built from a settled batcher set -- a
        scrape can never observe a half-swapped registration.
        """
        cache = self._metrics_cache
        if cache is not None and cache[0] == self._metrics_version:
            return cache[1]
        version = self._metrics_version
        artifacts = {}
        for key, (_, batcher) in self._batchers.items():
            labels = self._artifact_labels(key)
            entry = self._ledger(labels)
            entry["queue_depth"] = batcher.queue_depth
            entry["max_pending"] = batcher.max_pending
            entry["retired"] = self.registry.entry(*key).retired
            monitor = batcher.floor.monitor
            if monitor is not None:
                alarms = monitor.export_gauges(self.telemetry, **labels)["alarms"]
                entry["drift"] = {
                    "devices_seen": monitor.n_seen,
                    "n_alarms": len(alarms),
                    "alarms": [str(alarm) for alarm in alarms],
                }
            else:
                entry["drift"] = None
            for name in ("queue_depth", "devices_per_minute", "mean_batch_rows"):
                self.telemetry.gauge("repro_service_" + name, entry[name], **labels)
            artifacts[labels["artifact"]] = entry
        snapshot = {
            "total_devices": sum(e["n_devices"] for e in artifacts.values()),
            "total_rejected": sum(e["n_rejected"] for e in artifacts.values()),
            "artifacts": artifacts,
        }
        self._metrics_cache = (version, snapshot)
        return snapshot

    async def metrics(self) -> dict:
        """Per-artifact serving metrics plus drift-monitor state."""
        return {
            "uptime_seconds": time.time() - self._started_unix,
            "n_http_requests": self.n_http_requests,
            **self._metrics_snapshot(),
        }

    async def metrics_prometheus(self) -> str:
        """The telemetry registry as Prometheus text exposition."""
        self._metrics_snapshot()  # refresh drift/serving gauges
        return prometheus_text(self.telemetry)


def authorized_admin(admin_token: str | None, headers: dict, peer) -> bool:
    """Whether a request may touch the control plane.

    With a configured token, any peer presenting it (constant-time
    comparison) is in; without one, only loopback peers are.
    """
    if admin_token is not None:
        presented = headers.get("x-admin-token", "")
        # Compare as bytes: compare_digest refuses non-ASCII str (a
        # hostile header must yield 403, not 500), and header values
        # were latin-1 decoded off the wire.
        return hmac.compare_digest(
            presented.encode("latin-1"),
            admin_token.encode("utf-8"),
        )
    if not isinstance(peer, (tuple, list)) or not peer:
        # Unix-domain or unnamed transports have no remote address;
        # reaching such a socket already implies local access.
        return True
    try:
        addr = ipaddress.ip_address(peer[0].split("%", 1)[0])
    except ValueError:
        return False
    # A dual-stack bind reports IPv4 peers as ::ffff:a.b.c.d; unwrap
    # so local callers stay authorized.
    mapped = getattr(addr, "ipv4_mapped", None)
    return (mapped or addr).is_loopback


def parse_deadline(headers: dict) -> float | None:
    """The request's absolute deadline from ``X-Repro-Deadline-Ms``.

    The header carries the caller's *remaining budget* in milliseconds;
    it is converted to an absolute ``time.monotonic()`` instant at the
    tier that reads it, so the budget naturally shrinks as the request
    descends router -> worker -> batcher.  Absent/empty -> ``None``
    (no deadline).  A malformed or non-positive value is a client
    error, not a deadline.
    """
    raw = headers.get(DEADLINE_HEADER, "").strip()
    if not raw:
        return None
    try:
        budget_ms = float(raw)
    except ValueError:
        raise ServiceError(
            "malformed X-Repro-Deadline-Ms header {!r}; expected a "
            "positive number of milliseconds".format(raw)
        ) from None
    if budget_ms <= 0 or not np.isfinite(budget_ms):
        raise ServiceError(
            "X-Repro-Deadline-Ms must be a positive finite number of "
            "milliseconds, got {!r}".format(raw)
        )
    return time.monotonic() + budget_ms / 1000.0


async def apply_response_fault(writer: asyncio.StreamWriter, fault) -> bool:
    """Apply an injected response fault; ``True`` ends the connection.

    ``("delay", s)`` sleeps and lets the response proceed; ``("drop",
    _)`` closes the connection without answering; ``("reset", _)``
    aborts the transport (RST on TCP).
    """
    kind, delay_s = fault
    if kind == "delay":
        await asyncio.sleep(delay_s)
        return False
    if kind == "drop":
        writer.close()
        return True
    if kind == "reset":
        transport = writer.transport
        if transport is not None:
            transport.abort()
        return True
    raise ServiceError("unknown response fault kind {!r}".format(kind))


_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    507: "Insufficient Storage",
}


async def _read_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line.strip():
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise ServiceError("malformed request line {!r}".format(request_line[:80]))
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    n_header_lines = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        n_header_lines += 1
        if n_header_lines > MAX_HEADER_LINES:
            raise ServiceError(
                "request carries more than {} header lines".format(MAX_HEADER_LINES)
            )
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", 0) or 0)
    except ValueError:
        raise ServiceError(
            "malformed Content-Length header {!r}".format(
                headers.get("content-length")
            )
        )
    if length < 0:
        raise ServiceError("negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise ServiceError(
            "request body of {} bytes exceeds the {} byte bound".format(
                length, MAX_BODY_BYTES
            )
        )
    body = await reader.readexactly(length) if length else b""
    path, _, query = path.partition("?")
    return method, path, query, headers, body


def _query_param(query: str, name: str) -> str | None:
    """First value of ``name`` in a raw query string (no unquoting --
    the service's parameters are plain tokens)."""
    for part in query.split("&"):
        key, _, value = part.partition("=")
        if key == name:
            return value
    return None


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload,
    keep_alive: bool,
    extra_headers=(),
) -> None:
    # A str payload is served verbatim as text (the Prometheus
    # exposition); dict payloads are the JSON surface.
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    head = [
        "HTTP/1.1 {} {}".format(status, _STATUS_TEXT.get(status, "Unknown")),
        "Content-Type: {}".format(content_type),
        "Content-Length: {}".format(len(body)),
        "Connection: {}".format("keep-alive" if keep_alive else "close"),
    ]
    for name, value in extra_headers:
        head.append("{}: {}".format(name, value))
    # 429 = queue backpressure, 503 = cluster shard respawning; both
    # mean "same request, same place, shortly".
    if status in (429, 503):
        head.append("Retry-After: 1")
    writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)
    await writer.drain()


def _json_body(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8") or "null")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError("request body is not valid JSON: {}".format(exc))
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object")
    return payload


def _required(request: dict, key: str):
    value = request.get(key)
    if value is None:
        raise ServiceError("request is missing required field {!r}".format(key))
    return value
