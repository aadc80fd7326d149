"""Deterministic load generator + equivalence checker for the service.

The service's contract is that micro-batching is invisible: decisions
served over HTTP under any concurrency/coalescing pattern are
bit-identical to an offline :class:`~repro.floor.engine.TestFloor`
pass over the same devices.  This module generates the traffic *and*
proves the contract on every run:

1. each :class:`TrafficPlan` materializes its device population from
   the per-instance seed tree
   (:func:`repro.runtime.simulation.generate_instance_batches` --
   concatenation is bit-identical at any batch size/worker count);
2. the population is split into client requests of seeded-random sizes
   and the plans' requests are interleaved (seeded shuffle), so mixed
   multi-artifact traffic hits the server in a reproducible order;
3. ``n_clients`` keep-alive connections replay the requests
   concurrently (concurrency shapes the coalescing, never a
   decision), retrying on 429 backpressure, on 503 shard-respawn
   windows, and on dropped/refused connections (a cluster worker dying
   mid-plan) -- a killed worker costs retries, never the plan;
4. every plan's served decisions *and* served bins are reassembled by
   device index and compared against an offline floor run over the
   same rows.

Against a :class:`~repro.service.cluster.ClusterService` the generator
is a *distributed* load generator: responses carry an
``X-Repro-Worker`` header, and the report buckets latency and request
counts per worker (:meth:`LoadReport.per_worker_summary`) alongside
the aggregate percentiles.

The traffic *content* is deterministic given the seeds; wall-clock
figures of course are not.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

import numpy as np

from repro.errors import ServiceError
from repro.floor.engine import RETEST_FULL, TestFloor
from repro.runtime.simulation import generate_instance_batches
from repro.telemetry import get_telemetry

#: Default concurrent client connections.
DEFAULT_CLIENTS = 4
#: Default largest devices-per-request chunk.
DEFAULT_MAX_CHUNK = 16
#: Base seconds of the first retry backoff step.
BACKOFF_SECONDS = 0.02
#: Backoff multiplier per consecutive retry of one request.
BACKOFF_FACTOR = 2.0
#: Ceiling on a single computed backoff sleep (a server-sent
#: ``Retry-After`` may still floor the sleep above this).
BACKOFF_CAP = 0.25
#: Give up on one request after this many retry rounds (429 + 503 +
#: connection failures combined).
MAX_RETRIES = 500


class RetryBackoff:
    """Seeded, jittered exponential backoff for one client connection.

    Each retry of a request sleeps ``base * factor**attempt`` capped at
    ``cap``, scaled by a jitter factor in ``[0.75, 1.25)`` drawn from
    the client's own seeded generator -- concurrent clients retrying
    the same respawn window desynchronize instead of stampeding, yet
    every client's delay sequence is an exact replay of its seed (the
    same determinism discipline as the traffic itself).  A server-sent
    ``Retry-After`` (429 backpressure, 503 respawn windows) floors the
    sleep: the server's explicit schedule outranks the local guess.

    Every produced delay is recorded on :attr:`delays` so a load run
    can report its realized backoff and tests can assert replayability.
    """

    def __init__(
        self,
        seed_seq=None,
        base: float = BACKOFF_SECONDS,
        factor: float = BACKOFF_FACTOR,
        cap: float = BACKOFF_CAP,
    ):
        self._rng = np.random.default_rng(seed_seq)
        self.base = float(base)
        self.factor = float(factor)
        self.cap = float(cap)
        self.delays: list[float] = []

    def next_delay(self, attempt: int, retry_after: float | None = None) -> float:
        delay = min(self.cap, self.base * self.factor ** int(attempt))
        delay *= 0.75 + 0.5 * float(self._rng.random())
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        self.delays.append(delay)
        return delay


def parse_retry_after(headers: dict) -> float | None:
    """``Retry-After`` seconds from lower-cased response headers.

    ``None`` when absent or malformed -- a bad header must degrade to
    the local backoff guess, never break the retry loop.
    """
    raw = headers.get("retry-after", "").strip()
    if not raw:
        return None
    try:
        seconds = float(raw)
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


@dataclass
class TrafficPlan:
    """One device type's share of the generated traffic."""

    #: Registry device key the requests are addressed to.
    device: str
    #: Device under test that simulates the population.
    dut: object
    #: Devices to stream.
    n_devices: int
    #: Master seed of the population's per-instance seed tree.
    seed: int
    #: Optional pinned artifact version (``None`` = newest active).
    version: str | None = None
    #: Offline reference floor; when set, :func:`run_load` checks the
    #: served decisions of this plan against it.
    reference: TestFloor | None = None


@dataclass
class PlanOutcome:
    """Served-vs-offline outcome for one plan."""

    device: str
    n_devices: int
    n_requests: int
    n_retried: int
    #: Served decisions, reassembled in device order.
    decisions: np.ndarray
    #: Served bin names, reassembled in device order (``None`` when
    #: the server predates the binning layer).
    bins: object = None
    #: ``None`` when the plan carried no reference floor; ``True``
    #: requires served decisions *and* served bins to match the
    #: offline floor device for device.
    equivalent: bool | None = None

    def summary(self) -> str:
        verdict = {
            True: "bit-identical to offline floor",
            False: "MISMATCH vs offline floor",
            None: "not checked",
        }[self.equivalent]
        return "{}: {} devices in {} requests ({} retried)  {}".format(
            self.device, self.n_devices, self.n_requests, self.n_retried, verdict
        )


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    plans: list[PlanOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    n_clients: int = 0
    #: Per-request round-trip seconds (successful attempts only; the
    #: backoff sleeps of retried requests are excluded).  Collection
    #: order is whatever the clients interleaved to -- percentiles are
    #: order-independent, and capture never touches the decision
    #: arrays, so served≡offline bit-identity is unaffected.
    latencies_s: np.ndarray | None = None
    #: Worker label (``X-Repro-Worker``) -> that worker's share of
    #: ``latencies_s``.  Empty for single-process servers, which send
    #: no worker header.
    worker_latencies: dict = field(default_factory=dict)
    #: Every backoff sleep (seconds) the run's clients performed,
    #: concatenated per client in client order -- the realized retry
    #: schedule (deterministic per client given the run seed).
    retry_delays: np.ndarray | None = None

    @property
    def n_devices(self) -> int:
        return sum(plan.n_devices for plan in self.plans)

    @property
    def n_requests(self) -> int:
        return sum(plan.n_requests for plan in self.plans)

    @property
    def n_retried(self) -> int:
        return sum(plan.n_retried for plan in self.plans)

    @property
    def devices_per_minute(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.n_devices * 60.0 / self.wall_seconds

    @property
    def sustained_rps(self) -> float:
        """Completed requests per second over the whole run."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.n_requests / self.wall_seconds

    @property
    def equivalent(self) -> bool:
        """True when every checked plan matched its offline reference."""
        return all(plan.equivalent is not False for plan in self.plans)

    @staticmethod
    def _percentiles(latencies, wall_seconds: float, sustained_rps: float) -> dict:
        lat = np.asarray(latencies, dtype=float)
        p50, p95, p99 = np.percentile(lat, [50.0, 95.0, 99.0])
        return {
            "n_requests": int(lat.shape[0]),
            "p50_ms": round(float(p50) * 1e3, 4),
            "p95_ms": round(float(p95) * 1e3, 4),
            "p99_ms": round(float(p99) * 1e3, 4),
            "max_ms": round(float(lat.max()) * 1e3, 4),
            "mean_ms": round(float(lat.mean()) * 1e3, 4),
            "sustained_rps": round(sustained_rps, 3),
        }

    def latency_summary(self) -> dict:
        """p50/p95/p99/max/mean request latency (ms) + sustained RPS.

        Empty when no latencies were captured (zero requests).
        """
        if self.latencies_s is None or len(self.latencies_s) == 0:
            return {}
        return self._percentiles(self.latencies_s, self.wall_seconds,
                                 self.sustained_rps)

    def per_worker_summary(self) -> dict:
        """Worker label -> that worker's latency percentiles + RPS.

        Per-worker attribution for cluster runs: each worker's share
        of the requests (from the ``X-Repro-Worker`` response header),
        its own p50/p95/p99 and its sustained request rate over the
        run's wall clock.  Empty against a single-process server.
        """
        out = {}
        for label in sorted(self.worker_latencies):
            lat = self.worker_latencies[label]
            if len(lat) == 0:
                continue
            rps = len(lat) / self.wall_seconds if self.wall_seconds > 0 else 0.0
            out[label] = self._percentiles(lat, self.wall_seconds, rps)
        return out

    def summary(self) -> str:
        lines = [plan.summary() for plan in self.plans]
        lines.append(
            "total: {} devices / {} requests over {} client(s) in "
            "{:.2f}s  ({:,.0f} devices/min)".format(
                self.n_devices,
                self.n_requests,
                self.n_clients,
                self.wall_seconds,
                self.devices_per_minute,
            )
        )
        latency = self.latency_summary()
        if latency:
            lines.append(
                "latency: p50 {:.2f}ms  p95 {:.2f}ms  p99 {:.2f}ms  "
                "max {:.2f}ms  ({:,.1f} req/s sustained)".format(
                    latency["p50_ms"],
                    latency["p95_ms"],
                    latency["p99_ms"],
                    latency["max_ms"],
                    latency["sustained_rps"],
                )
            )
        for label, entry in self.per_worker_summary().items():
            lines.append(
                "  {}: {} requests  p50 {:.2f}ms  p99 {:.2f}ms  "
                "({:,.1f} req/s)".format(
                    label,
                    entry["n_requests"],
                    entry["p50_ms"],
                    entry["p99_ms"],
                    entry["sustained_rps"],
                )
            )
        return "\n".join(lines)


class HttpClient:
    """Minimal keep-alive HTTP/1.1 JSON client (stdlib asyncio).

    Safe for concurrent use: round trips on the single connection are
    serialized by an internal lock (HTTP/1.1 cannot interleave
    request/response pairs on one socket).
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = int(port)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()
        #: Response headers of the most recent round trip (lower-cased
        #: names) -- lets callers read ``X-Request-Id`` echoes without
        #: changing the ``(status, body)`` return shape.
        self.last_headers: dict[str, str] = {}

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def request(
        self,
        method: str,
        path: str,
        payload: dict | bytes | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict]:
        """One round trip; reconnects once on a dropped keep-alive.

        ``payload`` may be a dict (JSON-encoded here) or raw ``bytes``
        forwarded verbatim -- the cluster router proxies request bodies
        without re-serializing them.
        """
        async with self._lock:
            for attempt in (0, 1):
                if self._writer is None:
                    await self._connect()
                try:
                    return await self._round_trip(method, path, payload, headers)
                except (ConnectionError, asyncio.IncompleteReadError):
                    await self._close_connection()
                    if attempt:
                        raise
            raise AssertionError("unreachable")

    async def _round_trip(self, method, path, payload, headers=None):
        assert self._reader is not None and self._writer is not None
        if isinstance(payload, bytes):
            body = payload
        else:
            body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        extra = "".join(
            "{}: {}\r\n".format(name, value)
            for name, value in (headers or {}).items()
            if value
        )
        head = (
            "{} {} HTTP/1.1\r\n"
            "Host: {}:{}\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: {}\r\n"
            "{}"
            "Connection: keep-alive\r\n\r\n"
        ).format(method, path, self.host, self.port, len(body), extra)
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()

        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        reply_headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            reply_headers[name.strip().lower()] = value.strip()
        length = int(reply_headers.get("content-length", 0) or 0)
        self.last_headers = reply_headers
        reply = await self._reader.readexactly(length) if length else b""
        if reply_headers.get("content-type", "").startswith("application/json"):
            return status, (json.loads(reply) if reply else {})
        return status, {"text": reply.decode("utf-8", "replace")}

    async def _close_connection(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
        self._reader = self._writer = None

    async def close(self) -> None:
        async with self._lock:
            await self._close_connection()


def split_url(url: str) -> tuple[str, int]:
    """``http://host:port`` -> ``(host, port)``."""
    parts = urlsplit(url if "//" in url else "//" + url)
    host, port = parts.hostname, parts.port
    if not host or not port:
        raise ServiceError(
            "service URL must name a host and port, e.g. "
            "http://127.0.0.1:8731; got {!r}".format(url)
        )
    return host, port


def materialize_population(plan: TrafficPlan, batch_size: int = 1024):
    """The plan's full device population, in seed-tree order."""
    return np.vstack(
        list(
            generate_instance_batches(
                plan.dut,
                plan.n_devices,
                plan.seed,
                batch_size=min(batch_size, plan.n_devices),
            )
        )
    )


def build_requests(
    plans: list[TrafficPlan],
    max_chunk: int = DEFAULT_MAX_CHUNK,
    seed: int = 0,
) -> tuple[list[dict], dict[int, np.ndarray]]:
    """Deterministic request schedule over every plan's population.

    Returns ``(requests, populations)``: each request carries its plan
    index and the half-open device-index range it covers, and the
    interleaving across plans is a seeded shuffle -- the same inputs
    always produce the same traffic.
    """
    if max_chunk < 1:
        raise ServiceError("max_chunk must be positive")
    rng = np.random.default_rng(seed)
    requests = []
    populations = {}
    for plan_index, plan in enumerate(plans):
        rows = materialize_population(plan)
        populations[plan_index] = rows
        start = 0
        while start < rows.shape[0]:
            size = int(rng.integers(1, max_chunk + 1))
            stop = min(start + size, rows.shape[0])
            requests.append(
                {
                    "plan": plan_index,
                    "start": start,
                    "stop": stop,
                }
            )
            start = stop
    order = rng.permutation(len(requests))
    return [requests[i] for i in order], populations


async def run_load(
    host: str,
    port: int,
    plans: list[TrafficPlan],
    n_clients: int = DEFAULT_CLIENTS,
    max_chunk: int = DEFAULT_MAX_CHUNK,
    seed: int = 0,
) -> LoadReport:
    """Replay mixed traffic against a running service and verify it.

    Transient failures are retried with seeded, jittered exponential
    backoff (:class:`RetryBackoff`; a server-sent ``Retry-After``
    floors the sleep): 429 backpressure, 503 shard-respawn windows,
    and refused/dropped connections (a cluster worker dying mid-plan
    is respawned by its supervisor; dispositions are pure per-device
    functions, so replaying the request against the respawned worker
    cannot change a decision).  Raises
    :class:`~repro.errors.ServiceError` when the server rejects a
    request for any other reason, or when one request exhausts
    ``MAX_RETRIES``.
    """
    plans = list(plans)
    if not plans:
        raise ServiceError("at least one traffic plan is required")
    requests, populations = build_requests(plans, max_chunk, seed)
    decisions = {
        index: np.zeros(populations[index].shape[0], dtype=int)
        for index in range(len(plans))
    }
    served_bins = {
        index: np.empty(populations[index].shape[0], dtype=object)
        for index in range(len(plans))
    }
    n_requests = [0] * len(plans)
    n_retried = [0] * len(plans)
    latencies: list[float] = []
    worker_latencies: dict[str, list] = {}
    tel = get_telemetry()
    queue: asyncio.Queue = asyncio.Queue()
    for request in requests:
        queue.put_nowait(request)
    # One independent backoff stream per client, spawned from the run
    # seed -- the retry schedule replays exactly, like the traffic.
    n_clients = max(1, int(n_clients))
    backoffs = [
        RetryBackoff(child)
        for child in np.random.SeedSequence(seed).spawn(n_clients)
    ]

    async def worker(client_index: int) -> None:
        backoff = backoffs[client_index]
        client = HttpClient(host, port)
        try:
            while True:
                try:
                    request = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                plan = plans[request["plan"]]
                rows = populations[request["plan"]]
                payload = {
                    "device": plan.device,
                    "measurements": rows[request["start"] : request["stop"]].tolist(),
                }
                if plan.version is not None:
                    payload["version"] = plan.version
                status, reply = 0, {}
                for attempt in range(MAX_RETRIES):
                    t0 = time.perf_counter()
                    try:
                        status, reply = await client.request(
                            "POST", "/disposition", payload
                        )
                    except (OSError, asyncio.IncompleteReadError) as exc:
                        # Connection refused or dropped mid-round-trip:
                        # a worker is down and respawning.  Back off
                        # and replay the (idempotent) request.
                        status, reply = 0, {"error": str(exc)}
                    if status not in (0, 429, 503):
                        # Latency of the served attempt only: retries
                        # measure backpressure/respawn, not request
                        # service.
                        latency = time.perf_counter() - t0
                        latencies.append(latency)
                        served_by = client.last_headers.get("x-repro-worker")
                        if served_by:
                            worker_latencies.setdefault(served_by, []).append(
                                latency
                            )
                        tel.observe("repro_loadgen_request_seconds", latency)
                        break
                    n_retried[request["plan"]] += 1
                    retry_after = (
                        parse_retry_after(client.last_headers)
                        if status in (429, 503)
                        else None
                    )
                    await asyncio.sleep(
                        backoff.next_delay(attempt, retry_after)
                    )
                if status != 200:
                    raise ServiceError(
                        "service replied {} to a disposition request: {}".format(
                            status or "no response (connection failures)",
                            reply.get("error", reply),
                        )
                    )
                decisions[request["plan"]][
                    request["start"] : request["stop"]
                ] = reply["decisions"]
                if reply.get("bins") is not None:
                    served_bins[request["plan"]][
                        request["start"] : request["stop"]
                    ] = reply["bins"]
                n_requests[request["plan"]] += 1
        finally:
            await client.close()

    started = time.perf_counter()
    with tel.span("loadgen.run", requests=len(requests), clients=n_clients):
        workers = [
            asyncio.ensure_future(worker(i)) for i in range(n_clients)
        ]
        try:
            await asyncio.gather(*workers)
        finally:
            for task in workers:
                task.cancel()
            # Await the cancelled workers so each finally block closes
            # its client connection before the loop winds down.
            await asyncio.gather(*workers, return_exceptions=True)
    wall = time.perf_counter() - started

    outcomes = []
    for index, plan in enumerate(plans):
        # Old servers reply without bins; distinguish "not served"
        # from "served" so the equivalence check knows what to hold.
        plan_bins = served_bins[index]
        if all(b is None for b in plan_bins):
            plan_bins = None
        equivalent = None
        if plan.reference is not None:
            offline = plan.reference.run_stream(
                [populations[index]], keep_decisions=True
            )
            equivalent = bool(np.array_equal(offline.decisions, decisions[index]))
            if equivalent and plan_bins is not None:
                offline_names = np.asarray(offline.bin_names, dtype=object)[
                    offline.bins
                ]
                equivalent = bool(np.array_equal(offline_names, plan_bins))
        outcomes.append(
            PlanOutcome(
                device=plan.device,
                n_devices=populations[index].shape[0],
                n_requests=n_requests[index],
                n_retried=n_retried[index],
                decisions=decisions[index],
                bins=plan_bins,
                equivalent=equivalent,
            )
        )
    return LoadReport(
        plans=outcomes,
        wall_seconds=wall,
        n_clients=n_clients,
        latencies_s=np.asarray(latencies, dtype=float),
        worker_latencies={
            label: np.asarray(values, dtype=float)
            for label, values in worker_latencies.items()
        },
        retry_delays=np.asarray(
            [delay for b in backoffs for delay in b.delays], dtype=float
        ),
    )


def offline_reference(artifact, retest_policy: str = RETEST_FULL) -> TestFloor:
    """The offline floor a plan's served decisions are checked against.

    Monitoring is disabled: the reference exists to reproduce
    *decisions*, and decisions never depend on the monitor.
    """
    return TestFloor(artifact, retest_policy=retest_policy, monitor=False)


async def wait_healthy(host: str, port: int, timeout: float = 10.0) -> dict:
    """Poll ``/health`` until the service answers (CI startup races)."""
    deadline = time.perf_counter() + timeout
    last: Exception | None = None
    while time.perf_counter() < deadline:
        client = HttpClient(host, port)
        try:
            status, reply = await client.request("GET", "/health")
            if status == 200:
                return reply
        except OSError as exc:
            last = exc
        finally:
            await client.close()
        await asyncio.sleep(0.05)
    raise ServiceError(
        "service at {}:{} did not become healthy within {:g}s{}".format(
            host, port, timeout, " ({})".format(last) if last else ""
        )
    )
