"""Multi-worker serving scale-out: supervisor, sharding router, fan-out.

:class:`~repro.service.server.FloorService` is a single asyncio
process -- one core's worth of floor throughput.  This module scales it
horizontally without giving up one bit of the served ≡ offline
invariant:

* a **supervisor** (:class:`ClusterService`) spawns ``n_workers``
  worker *processes*, each running its own :class:`FloorService` on an
  ephemeral loopback port, primed from the cluster's **registry
  manifest** (the ordered list of ``(device, version, path)``
  registrations that is the cluster's source of truth);
* a shared-nothing **router** shards data-plane traffic by device-key
  hash -- :func:`shard_for` is a pure, stable function of ``(device,
  n_workers)`` (SHA-256, no process-randomized ``hash()``), so the
  same device key always lands on the same worker across requests,
  connections and restarts, and no state is shared between workers;
* **control-plane fan-out**: ``POST /artifacts`` and ``POST
  /artifacts/retire`` are applied to *every* worker atomically -- the
  operation commits to the manifest only when all workers accepted it,
  and a partial failure rolls the already-updated workers back to the
  manifest state, so a hot-swap is visible on all workers or none;
* **self-healing**: a health loop probes each worker; a crashed or
  unresponsive worker is killed, respawned and re-primed from the
  manifest.  While a shard is down its requests are answered ``503``
  with ``Retry-After`` -- never misrouted to a different worker (that
  would silently change which floor's drift monitor sees the traffic).

The router is the remote-shard backend of
:class:`~repro.service.server.HttpApp` (tier ``"cluster"``): the same
connection loop, route table and error map as a single
:class:`FloorService`, with :meth:`ClusterService._dispose` proxying
each ``/disposition`` to its shard over a per-connection keep-alive
client, and register/retire/list/metrics fanned out to the workers.

Because a disposition is a pure per-device function of the artifact
and the measurements, sharding is invisible in the decisions: a
cluster at any worker count serves bit-identical decisions to a single
worker and to an offline :class:`~repro.floor.engine.TestFloor` pass
(`tests/service/test_cluster.py` asserts this through the router at 2
workers, and the CI cluster round trip at 2 and 4).

Entry point: ``repro serve --workers N``.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass

from repro import __version__
from repro.errors import (
    ClusterDegradedError,
    DeadlineExceededError,
    JournalError,
    ReproError,
    ServiceError,
    UnknownArtifactError,
)
from repro.floor.engine import RETEST_FULL, check_retest_policy
from repro.service.batcher import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_LATENCY,
    DEFAULT_MAX_PENDING,
)
from repro.service.durability import StateJournal
from repro.service.loadgen import HttpClient, wait_healthy
from repro.service.registry import DEFAULT_MAX_RESIDENT
from repro.service.server import DEADLINE_HEADER, HttpApp, _required
from repro.telemetry import Telemetry, prometheus_text

#: Seconds between health probes of each worker.
DEFAULT_HEALTH_INTERVAL = 0.5
#: Seconds a worker gets to report its port and pass its first health
#: check (covers the interpreter + numpy import cost of a spawn).
SPAWN_TIMEOUT = 60.0
#: Seconds a health probe may take before the worker is declared dead.
PROBE_TIMEOUT = 5.0
#: Seconds a proxied control-plane call may take (artifact loads).
CONTROL_TIMEOUT = 60.0
#: Control-plane op -> (worker path, expected status, noun in errors).
_CONTROL_OPS = {
    "register": ("/artifacts", 201, "registration"),
    "retire": ("/artifacts/retire", 200, "retire"),
}
#: Spawn attempts per worker before the supervisor gives up (covers
#: transient startup failures: an ephemeral-port bind race, a worker
#: killed mid-handshake; each retry gets a fresh ephemeral port).
SPAWN_ATTEMPTS = 3


def shard_for(device: str, n_workers: int) -> int:
    """The worker index serving a device key -- pure and stable.

    SHA-256 of the UTF-8 key, not Python's ``hash()`` (which is
    randomized per process): the mapping is identical across router
    restarts, worker respawns and unrelated registrations, so a
    device's traffic always reaches the same shard (and therefore the
    same drift monitor) for a fixed worker count.
    """
    if n_workers < 1:
        raise ServiceError("n_workers must be at least 1")
    digest = hashlib.sha256(str(device).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_workers


def _worker_main(index, conn, manifest, host, service_kwargs):
    """Worker process entry point (spawn target; must be importable).

    Builds a registry from the manifest snapshot, starts a
    :class:`FloorService` on an ephemeral loopback port, reports
    ``("ok", port)`` (or ``("error", message)``) through the pipe, then
    serves until killed or until its supervisor exits.  Priming happens
    *before* the port is reported, so the router never routes to a
    half-primed worker.  The parent's sentinel becomes readable when
    the supervisor dies by any signal, SIGKILL included, so a worker
    never outlives it holding its port.
    """
    import asyncio

    from repro.service.registry import ArtifactRegistry
    from repro.service.server import FloorService

    async def main():
        loop = asyncio.get_running_loop()
        sentinel = multiprocessing.parent_process().sentinel
        serving = asyncio.current_task()

        def orphaned():
            loop.remove_reader(sentinel)
            serving.cancel()

        loop.add_reader(sentinel, orphaned)
        try:
            # Deterministic startup faults (tests only; the env var is
            # never set in production).  Imported lazily so the chaos
            # package stays off the production spawn path.
            if os.environ.get("REPRO_CHAOS_STARTUP"):
                from repro.chaos.inject import worker_startup_fault

                mode = worker_startup_fault(index)
                if mode == "handshake_death":
                    # Die before the pipe handshake, the shape of a
                    # worker crashing during interpreter startup.
                    os._exit(1)
                if mode == "bind_fail":
                    raise OSError(
                        98, "[chaos] address already in use: worker bind"
                    )
            registry = ArtifactRegistry(max_resident=service_kwargs.pop("max_resident"))
            for entry in manifest:
                registry.register(entry["device"], entry["version"], entry["path"])
                if entry["retired"]:
                    registry.retire(entry["device"], entry["version"])
            service = FloorService(
                registry, worker_label="w{}".format(index), **service_kwargs
            )
            await service.start(host, 0)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            conn.send(("error", "{}: {}".format(type(exc).__name__, exc)))
            conn.close()
            return
        conn.send(("ok", service.port))
        conn.close()
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass


@dataclass
class WorkerHandle:
    """Supervisor-side state for one worker process."""

    index: int
    process: object = None
    port: int = 0
    #: False while the shard is draining/respawning -- its requests are
    #: answered 503 instead of being misrouted.
    healthy: bool = False
    #: Times this shard has been respawned (observability).
    respawns: int = 0
    #: Bumped on every (re)spawn so routers drop stale connections.
    generation: int = 0

    @property
    def label(self) -> str:
        return "w{}".format(self.index)

    def describe(self) -> dict:
        pid = getattr(self.process, "pid", None)
        return {
            "port": self.port,
            "pid": pid,
            "healthy": self.healthy,
            "respawns": self.respawns,
        }


class ClusterService(HttpApp):
    """N worker processes behind a device-hash sharding router.

    The remote-shard backend of :class:`~repro.service.server.HttpApp`
    (tier ``"cluster"``).

    Parameters
    ----------
    registrations:
        Iterable of ``(device, version, path)`` artifact registrations
        applied to every worker at spawn (the initial manifest).  Only
        file paths are accepted -- each worker loads the artifact from
        its own disk through the restricted loader, exactly as a
        single :class:`FloorService` would.
    n_workers:
        Worker processes to spawn (>= 1).
    retest_policy, max_batch_size, max_latency, max_pending,
    max_resident:
        Forwarded to every worker's :class:`FloorService` /
        :class:`ArtifactRegistry`.
    admin_token:
        Control-plane shared secret, enforced *at the router* (workers
        only ever see loopback traffic from the router itself).
    health_interval:
        Seconds between worker health probes.
    telemetry:
        Router-side registry (spans, per-worker gauges, request
        histograms); defaults as in
        :class:`~repro.service.server.HttpApp`.
    state_dir:
        Directory for the control-plane write-ahead journal (``repro
        serve --state-dir``).  When set, the manifest is rebuilt from
        the journal at construction (so a supervisor ``kill -9``
        forgets nothing that was acked) and every subsequent
        register/retire is journaled -- fsync before the fan-out
        commits -- before it is acknowledged.  Constructor
        ``registrations`` whose ``(device, version)`` the journal
        already knows are skipped: the journal, which saw every
        hot-swap, outranks the restart command line.
    """

    tier = "cluster"

    def __init__(
        self,
        registrations=(),
        n_workers: int = 2,
        retest_policy: str = RETEST_FULL,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_latency: float = DEFAULT_MAX_LATENCY,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_resident: int = DEFAULT_MAX_RESIDENT,
        admin_token: str | None = None,
        health_interval: float = DEFAULT_HEALTH_INTERVAL,
        telemetry: Telemetry | None = None,
        state_dir: str | None = None,
    ):
        check_retest_policy(retest_policy)
        if n_workers < 1:
            raise ServiceError("n_workers must be at least 1")
        super().__init__(admin_token, telemetry)
        #: Ordered registration manifest -- the cluster's source of
        #: truth.  Workers are primed from it at every (re)spawn, and
        #: control-plane operations commit to it only after every
        #: worker accepted them.  Order carries hot-swap resolution:
        #: replaying the list reproduces newest-active-wins.
        self._manifest: list[dict] = []
        #: Control-plane write-ahead journal (``None`` = memory-only).
        self.journal: StateJournal | None = None
        if state_dir is not None:
            self.journal = StateJournal(state_dir)
            self._manifest = StateJournal.manifest_from_ops(
                self.journal.replay()
            )
        known = {(e["device"], e["version"]) for e in self._manifest}
        for device, version, path in registrations:
            key = (str(device), str(version))
            if key in known:
                # The journal already saw this key (and possibly later
                # hot-swaps of it); the restart command line must not
                # reorder history.
                continue
            self._manifest.append(
                {
                    "device": key[0],
                    "version": key[1],
                    "path": os.fspath(path),
                    "retired": False,
                }
            )
            known.add(key)
            self._journal_append(
                "register", key[0], key[1], path=os.fspath(path)
            )
        self.n_workers = int(n_workers)
        self.health_interval = float(health_interval)
        self._worker_kwargs = {
            "retest_policy": retest_policy,
            "max_batch_size": int(max_batch_size),
            "max_latency": float(max_latency),
            "max_pending": int(max_pending),
            "max_resident": int(max_resident),
        }
        self._workers: list[WorkerHandle] = [
            WorkerHandle(index=i) for i in range(self.n_workers)
        ]
        self._health_task: asyncio.Task | None = None
        #: Serializes control-plane fan-out with worker respawns, so a
        #: respawned worker is always primed from a settled manifest.
        self._control_lock = asyncio.Lock()
        self._ctx = multiprocessing.get_context("spawn")

    # -- lifecycle ---------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> "ClusterService":
        """Spawn every worker, then bind the router (``port=0`` = ephemeral)."""
        if self._server is not None:
            raise ServiceError("cluster is already started")
        try:
            await asyncio.gather(*(self._spawn(worker) for worker in self._workers))
        except Exception:
            await self._shutdown_workers()
            raise
        await super().start(host, port)
        self._health_task = asyncio.ensure_future(self._health_loop())
        return self

    async def stop(self) -> None:
        """Stop the router, then terminate every worker process."""
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        await super().stop()
        await self._shutdown_workers()

    async def _shutdown_workers(self) -> None:
        for worker in self._workers:
            worker.healthy = False
            process = worker.process
            if process is None:
                continue
            if process.is_alive():
                process.terminate()
        for worker in self._workers:
            process = worker.process
            if process is None:
                continue
            for _ in range(100):
                if not process.is_alive():
                    break
                await asyncio.sleep(0.02)
            else:
                process.kill()
            process.join(timeout=5)
            worker.process = None

    # -- worker supervision ------------------------------------------------
    async def _spawn(self, worker: WorkerHandle) -> None:
        """Start one worker, retrying transient startup failures.

        Each attempt is a fresh process asking for a fresh ephemeral
        port, so a bind race or a crash during the pipe handshake is
        survived by simply trying again; a deterministic failure (bad
        artifact path) still surfaces after :data:`SPAWN_ATTEMPTS`.
        """
        last_exc: Exception | None = None
        for attempt in range(SPAWN_ATTEMPTS):
            try:
                await self._spawn_once(worker)
                return
            except (ServiceError, OSError) as exc:
                last_exc = exc
                if attempt + 1 < SPAWN_ATTEMPTS:
                    self.telemetry.counter(
                        "repro_cluster_spawn_retries_total",
                        1,
                        worker=worker.label,
                    )
        raise ServiceError(
            "worker {} failed to start after {} attempts: {}".format(
                worker.index, SPAWN_ATTEMPTS, last_exc
            )
        ) from last_exc

    async def _spawn_once(self, worker: WorkerHandle) -> None:
        """Start one worker process and wait until it serves."""
        parent, child = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker.index,
                child,
                [dict(entry) for entry in self._manifest],
                "127.0.0.1",
                dict(self._worker_kwargs),
            ),
            daemon=True,
        )
        process.start()
        child.close()
        try:
            verdict, value = await self._await_message(parent, process)
        finally:
            parent.close()
        if verdict != "ok":
            process.join(timeout=5)
            raise ServiceError(
                "worker {} failed to start: {}".format(worker.index, value)
            )
        await wait_healthy("127.0.0.1", value, timeout=SPAWN_TIMEOUT)
        worker.process = process
        worker.port = value
        worker.generation += 1
        worker.healthy = True

    async def _await_message(self, parent, process):
        deadline = time.monotonic() + SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            if parent.poll():
                try:
                    return parent.recv()
                except EOFError:
                    # The worker died with the pipe open but nothing
                    # written: poll() wakes on the close, recv() hits
                    # EOF.  Type it so the spawn retry loop can treat
                    # it like any other startup crash.
                    raise ServiceError(
                        "worker process closed the handshake pipe "
                        "during startup (exit code {})".format(
                            process.exitcode
                        )
                    ) from None
            if not process.is_alive():
                raise ServiceError(
                    "worker process exited with code {} during "
                    "startup".format(process.exitcode)
                )
            await asyncio.sleep(0.02)
        process.kill()
        raise ServiceError(
            "worker did not report a port within {:g}s".format(SPAWN_TIMEOUT)
        )

    async def _respawn(self, worker: WorkerHandle) -> None:
        """Kill + respawn one worker, re-primed from the manifest."""
        async with self._control_lock:
            worker.healthy = False
            process = worker.process
            if process is not None:
                if process.is_alive():
                    process.kill()
                process.join(timeout=5)
                worker.process = None
            await self._spawn(worker)
            worker.respawns += 1
            self.telemetry.counter(
                "repro_cluster_respawns_total", 1, worker=worker.label
            )

    async def _probe(self, worker: WorkerHandle) -> bool:
        try:
            status, _ = await self._call_worker(
                worker, "GET", "/health", timeout=PROBE_TIMEOUT
            )
        except (OSError, asyncio.TimeoutError):
            return False
        return status == 200

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            for worker in self._workers:
                process = worker.process
                dead = process is None or not process.is_alive()
                if not dead and worker.healthy:
                    dead = not await self._probe(worker)
                if dead or not worker.healthy:
                    worker.healthy = False
                    try:
                        await self._respawn(worker)
                    except (ReproError, OSError):
                        # Spawn failed (e.g. an artifact file vanished
                        # from disk); the shard stays 503 and the next
                        # tick retries.
                        pass
                self.telemetry.gauge(
                    "repro_cluster_worker_up",
                    1.0 if worker.healthy else 0.0,
                    worker=worker.label,
                )

    # -- data plane --------------------------------------------------------
    def worker_for(self, device: str) -> WorkerHandle:
        """The shard handle a device key routes to."""
        return self._workers[shard_for(device, self.n_workers)]

    def _backend(self, conn: dict, worker: WorkerHandle) -> HttpClient:
        """The front connection's keep-alive client to a shard.

        Held in the connection's state, so concurrent clients never
        serialize on a shared backend socket, and keyed by the
        worker's generation, so a respawned shard gets a fresh client.
        A pre-respawn client stays in the state until the app closes
        it with the connection; its worker is gone, so it holds at
        most one dead socket.
        """
        key = (worker.index, worker.generation)
        client = conn.get(key)
        if client is None:
            client = conn[key] = HttpClient("127.0.0.1", worker.port)
        return client

    async def _dispose(self, request, body, headers, deadline, conn):
        """Proxy the body verbatim to the device's shard."""
        device = _required(request, "device")
        worker = self.worker_for(device)
        if not worker.healthy:
            raise ClusterDegradedError(
                "shard {} for device {!r} is respawning; retry "
                "shortly".format(worker.label, device)
            )
        proxy_headers = {"X-Request-Id": headers.get("x-request-id", "")}
        if deadline is not None:
            # Forward the *remaining* budget, so the worker and its
            # batcher see the clock the caller sees.
            remaining_ms = (deadline - time.monotonic()) * 1000.0
            if remaining_ms <= 0:
                raise DeadlineExceededError(
                    "deadline budget expired at the router; re-issue "
                    "with a fresh X-Repro-Deadline-Ms"
                )
            proxy_headers[DEADLINE_HEADER] = "{:.3f}".format(remaining_ms)
        client = self._backend(conn, worker)
        try:
            status, reply = await client.request(
                "POST", "/disposition", body, headers=proxy_headers
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            # The worker died between health probes: surface the
            # respawn window, never reroute to another shard.
            worker.healthy = False
            raise ClusterDegradedError(
                "shard {} for device {!r} went down mid-request; "
                "retry shortly".format(worker.label, device)
            ) from None
        served_by = client.last_headers.get("x-repro-worker", worker.label)
        return status, reply, (("X-Repro-Worker", served_by),)

    # -- control plane (atomic fan-out) ------------------------------------
    async def _call_worker(
        self,
        worker: WorkerHandle,
        method: str,
        path: str,
        payload: dict | None = None,
        timeout: float = CONTROL_TIMEOUT,
    ) -> tuple[int, dict]:
        """One round trip to one worker on a fresh connection."""
        client = HttpClient("127.0.0.1", worker.port)
        try:
            return await asyncio.wait_for(
                client.request(method, path, payload), timeout=timeout
            )
        finally:
            await client.close()

    async def _post_worker(
        self, worker: WorkerHandle, path: str, payload: dict
    ) -> tuple[int, dict]:
        return await self._call_worker(worker, "POST", path, payload)

    async def _get_worker(self, worker: WorkerHandle, path: str) -> tuple[int, dict]:
        return await self._call_worker(worker, "GET", path)

    async def _scrape(self, worker: WorkerHandle, path: str) -> tuple[int, dict] | None:
        """GET ``path`` from a healthy worker; ``None`` if it is down.

        A worker that died since the last health probe fails the call:
        it is marked unhealthy for the health loop to respawn, and the
        fan-in serves what the other workers answered instead of
        failing the whole request.
        """
        if not worker.healthy:
            return None
        try:
            return await self._get_worker(worker, path)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            worker.healthy = False
            return None

    def _journal_append(
        self, op: str, device: str, version: str, path: str | None = None
    ) -> None:
        """Durably journal one op; OSError becomes a typed 507.

        No-op without a journal.  Called *after* every worker accepted
        the operation and *before* the manifest commits: a failed
        append leaves the manifest unchanged, so the caller's rollback
        restores the workers to exactly the durable state.
        """
        if self.journal is None:
            return
        try:
            self.journal.append(op, device, version, path=path)
        except OSError as exc:
            raise JournalError(
                "{} {}@{} is not durable (journal append failed: "
                "{})".format(op, device, version, exc)
            ) from exc

    def _require_full_strength(self) -> None:
        down = [w.label for w in self._workers if not w.healthy]
        if down:
            raise ClusterDegradedError(
                "control-plane operations need every worker up; {} "
                "respawning".format(", ".join(down))
            )

    async def _restore_device(self, worker: WorkerHandle, device: str) -> None:
        """Replay the manifest's entries for one device onto one worker.

        The rollback primitive: re-registering every entry in manifest
        order restores the worker's newest-active-wins resolution for
        the device to the last committed state.
        """
        for entry in self._manifest:
            if entry["device"] != device:
                continue
            key = {"device": device, "version": entry["version"]}
            await self._post_worker(worker, "/artifacts", dict(key, path=entry["path"]))
            if entry["retired"]:
                await self._post_worker(worker, "/artifacts/retire", key)

    def _manifest_entry(self, device: str, version: str) -> dict | None:
        """The manifest's registration of one key, if any."""
        for entry in self._manifest:
            if entry["device"] == device and entry["version"] == version:
                return entry
        return None

    async def _fan_out(self, op: str, payload: dict, rollback) -> dict:
        """Apply one control-plane op on every worker, all-or-none.

        The op is journaled once every worker accepted it.  On a
        partial failure each already-updated worker is put back to the
        manifest state by ``rollback(worker)``; a worker that cannot be
        rolled back over HTTP (it died too) is marked unhealthy, so its
        respawn re-primes it from the committed manifest.  Returns the
        first worker's reply.
        """
        path, expect, noun = _CONTROL_OPS[op]
        device, version = payload["device"], payload["version"]
        done: list[WorkerHandle] = []
        first_reply: dict = {}
        try:
            for worker in self._workers:
                status, reply = await self._post_worker(worker, path, payload)
                if status != expect:
                    raise ServiceError(
                        "worker {} refused the {} ({}): {}".format(
                            worker.label, noun, status, reply.get("error", reply)
                        )
                    )
                done.append(worker)
                first_reply = first_reply or reply
            self._journal_append(op, device, version, path=payload.get("path"))
        except Exception as exc:
            for worker in done:
                try:
                    await rollback(worker)
                except (ReproError, OSError, asyncio.IncompleteReadError):
                    worker.healthy = False
            message = (
                "{} {}@{} rolled back ({} of {} workers had applied it): "
                "{}".format(op, device, version, len(done), self.n_workers, exc)
            )
            if isinstance(exc, JournalError):
                # Every worker accepted, but the op is not durable:
                # surface 507 so the caller knows a crash would forget
                # it (the workers were rolled back above).
                raise JournalError(message) from exc
            raise ServiceError(message) from exc
        return first_reply

    async def register_artifact(self, device: str, version: str, path: str) -> dict:
        """Register/hot-swap an artifact on every worker, atomically.

        Commits to the manifest only when all workers accepted the
        registration.  On a partial failure every already-updated
        worker is rolled back to the manifest state (a brand-new key is
        retired; a replayed manifest restores hot-swap order), so the
        swap is visible everywhere or nowhere.
        """
        device, version, path = str(device), str(version), os.fspath(path)
        key = {"device": device, "version": version}
        async with self._control_lock:
            self._require_full_strength()
            old = self._manifest_entry(device, version)

            async def rollback(worker: WorkerHandle) -> None:
                if old is None:
                    await self._post_worker(worker, "/artifacts/retire", key)
                await self._restore_device(worker, device)

            reply = await self._fan_out("register", dict(key, path=path), rollback)
            if old is not None:
                self._manifest.remove(old)
            self._manifest.append(dict(key, path=path, retired=False))
            return reply

    async def retire_artifact(self, device: str, version: str) -> dict:
        """Retire a version on every worker, atomically (with rollback)."""
        device, version = str(device), str(version)
        async with self._control_lock:
            self._require_full_strength()
            entry = self._manifest_entry(device, version)
            if entry is None:
                known = ", ".join(
                    "{}@{}".format(e["device"], e["version"]) for e in self._manifest
                )
                raise UnknownArtifactError(
                    "unknown artifact {}@{}; registered: {}".format(
                        device, version, known or "none"
                    )
                )
            reply = await self._fan_out(
                "retire",
                {"device": device, "version": version},
                lambda worker: self._restore_device(worker, device),
            )
            entry["retired"] = True
            return reply

    async def _register(self, device, version, path):
        reply = await self.register_artifact(device, version, path)
        reply["n_workers"] = self.n_workers
        return reply

    async def _retire(self, device, version):
        reply = await self.retire_artifact(device, version)
        reply["n_workers"] = self.n_workers
        return reply

    # -- observability -----------------------------------------------------
    def health(self) -> dict:
        n_healthy = sum(1 for w in self._workers if w.healthy)
        return {
            "status": "ok" if n_healthy == self.n_workers else "degraded",
            "version": __version__,
            "uptime_seconds": time.time() - self._started_unix,
            "n_workers": self.n_workers,
            "n_healthy": n_healthy,
            "n_artifacts": len(self._manifest),
            "n_http_requests": self.n_http_requests,
            "workers": {w.label: w.describe() for w in self._workers},
        }

    async def artifacts(self) -> dict:
        """Fanned-out registry listing with a cross-worker consistency bit.

        ``consistent`` is True when every worker that answered lists
        exactly the same ``(device, version, retired)`` registrations --
        the observable form of the atomic-fan-out guarantee.  A worker
        that is down, or dies mid-listing, is left out of
        ``per_worker``.
        """
        per_worker: dict[str, list] = {}
        listings: dict[str, set] = {}
        rows: list = []
        for worker in self._workers:
            answer = await self._scrape(worker, "/artifacts")
            if answer is None:
                continue
            status, reply = answer
            if status != 200:
                raise ServiceError(
                    "worker {} refused the listing ({})".format(
                        worker.label, status
                    )
                )
            keys = sorted(
                "{}@{}{}".format(
                    row["device"],
                    row["version"],
                    " (retired)" if row["retired"] else "",
                )
                for row in reply["artifacts"]
            )
            per_worker[worker.label] = keys
            listings[worker.label] = frozenset(keys)
            if not rows:
                rows = reply["artifacts"]
        consistent = len(set(listings.values())) <= 1
        return {
            "artifacts": rows,
            "consistent": consistent,
            "n_workers": self.n_workers,
            "per_worker": per_worker,
        }

    async def metrics(self) -> dict:
        """Aggregated serving metrics with per-worker breakdown.

        Worker metrics are re-published into the router's telemetry
        registry under the same ``repro_service_*`` gauge names with a
        ``worker`` label, so one Prometheus scrape of the router sees
        the whole cluster.
        """
        workers_out: dict[str, dict] = {}
        total_devices = 0
        total_rejected = 0
        for worker in self._workers:
            self.telemetry.gauge(
                "repro_cluster_worker_up",
                1.0 if worker.healthy else 0.0,
                worker=worker.label,
            )
            # A down shard (status 0: no answer), one that dies
            # mid-scrape, or one that answers an error is reported
            # stale in a partial snapshot.
            status, reply = await self._scrape(worker, "/metrics") or (0, {})
            stale = status != 200
            self.telemetry.gauge(
                "repro_cluster_worker_stale", float(stale), worker=worker.label
            )
            if stale:
                workers_out[worker.label] = {"healthy": False, "stale": True}
                continue
            reply["healthy"] = True
            reply["stale"] = False
            reply["respawns"] = worker.respawns
            workers_out[worker.label] = reply
            total_devices += reply.get("total_devices", 0)
            total_rejected += reply.get("total_rejected", 0)
            for label, entry in reply.get("artifacts", {}).items():
                for name in ("devices_per_minute", "queue_depth"):
                    self.telemetry.gauge(
                        "repro_service_" + name,
                        entry.get(name, 0),
                        artifact=label,
                        worker=worker.label,
                    )
        return {
            "uptime_seconds": time.time() - self._started_unix,
            "n_http_requests": self.n_http_requests,
            "n_workers": self.n_workers,
            "total_devices": total_devices,
            "total_rejected": total_rejected,
            "workers": workers_out,
        }

    async def metrics_prometheus(self) -> str:
        await self.metrics()  # refresh the per-worker gauges
        return prometheus_text(self.telemetry)

    # -- fault injection (tests and benchmarks) ----------------------------
    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker process (the health loop will respawn it).

        Test/bench hook for exercising the drain → respawn → readmit
        path; never called in normal operation.
        """
        process = self._workers[index].process
        if process is not None and process.is_alive():
            process.kill()

    def __repr__(self) -> str:
        healthy = sum(1 for w in self._workers if w.healthy)
        return "ClusterService({}/{} workers up, {} registrations)".format(
            healthy, self.n_workers, len(self._manifest)
        )
