"""repro.service -- the async multi-artifact test-floor service.

PR 3 made the compacted test program a deployable artifact served by
one in-process :class:`~repro.floor.engine.TestFloor`.  This package
takes the floor out of the single-process, single-artifact world: an
asyncio service that dispositions concurrent traffic for many device
types and artifact versions at once, with micro-batching and explicit
backpressure.

``repro.service.registry``
    :class:`ArtifactRegistry` -- versioned ``(device, version)``
    artifact store: load through the restricted artifact loader,
    hot-swap by registering a newer version, retire, SHA-256
    checksum pinning, LRU-bounded resident set.
``repro.service.batcher``
    :class:`MicroBatcher` -- coalesces concurrent small requests into
    vectorized floor batches (size + latency flush triggers, bounded
    queue with 429-style rejection); decisions stay bit-identical to
    direct :class:`TestFloor` runs at any coalescing pattern.  A pure
    queue: it reports every queue event through its ``on_flush`` hook
    and keeps no counters.
``repro.service.server``
    :class:`HttpApp` -- the one stdlib-asyncio HTTP/JSON app of both
    tiers (connection loop, route table, error map): ``/disposition``,
    ``/artifacts`` (+ register/retire), ``/health``, ``/metrics``.
    :class:`FloorService` is its local-batcher backend; it records the
    batchers' events in its telemetry registry, the one serving ledger
    that both the JSON and the Prometheus ``/metrics`` read.
``repro.service.loadgen``
    :class:`TrafficPlan` / :func:`run_load` -- deterministic seed-tree
    load generator that replays mixed multi-device traffic and
    asserts served decisions equal an offline floor pass; against a
    cluster it attributes latency per worker and retries through
    shard-respawn windows.
``repro.service.cluster``
    :class:`ClusterService` -- horizontal scale-out: N worker
    processes each running a :class:`FloorService`, fronted by the
    app's remote-shard backend, a device-hash sharding router
    (:func:`shard_for`), with the control
    plane fanned out to every worker atomically and crashed workers
    respawned from the registry manifest.  Decisions are bit-identical
    at any worker count.
``repro.service.durability``
    :class:`StateJournal` -- append-only, checksummed write-ahead
    journal of control-plane operations (``repro serve --state-dir``):
    register/hot-swap/retire are fsync'd before they are acknowledged,
    and both service tiers replay the journal at startup, so a
    ``kill -9`` of the supervisor forgets nothing it ever acked.

CLI surface: ``repro serve`` (host a registry of artifacts;
``--workers N`` scales out, ``--state-dir`` makes the control plane
crash-safe) and ``repro loadgen`` (drive + verify a running service).
"""

from repro.service.batcher import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_LATENCY,
    DEFAULT_MAX_PENDING,
    MicroBatcher,
)
from repro.service.cluster import ClusterService, WorkerHandle, shard_for
from repro.service.durability import JournalWarning, StateJournal
from repro.service.loadgen import (
    HttpClient,
    LoadReport,
    PlanOutcome,
    RetryBackoff,
    TrafficPlan,
    offline_reference,
    run_load,
    split_url,
    wait_healthy,
)
from repro.service.registry import ArtifactRegistry, RegistryEntry
from repro.service.server import FloorService, HttpApp

__all__ = [
    "ArtifactRegistry",
    "ClusterService",
    "DEFAULT_MAX_BATCH_SIZE",
    "DEFAULT_MAX_LATENCY",
    "DEFAULT_MAX_PENDING",
    "FloorService",
    "HttpApp",
    "HttpClient",
    "JournalWarning",
    "LoadReport",
    "MicroBatcher",
    "PlanOutcome",
    "RegistryEntry",
    "RetryBackoff",
    "StateJournal",
    "TrafficPlan",
    "WorkerHandle",
    "offline_reference",
    "run_load",
    "shard_for",
    "split_url",
    "wait_healthy",
]
