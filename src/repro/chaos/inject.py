"""Seeded fault plans and the hook installer.

Determinism model
-----------------

A :class:`FaultPlan` spawns one ``SeedSequence`` child per injection
*site* in a fixed order, so every site's schedule is an independent,
replayable stream -- injecting at one site never perturbs another
site's draws (the same spawning discipline the data plane uses for
per-instance simulation).  The sites:

``cluster.response`` / ``service.response``
    Consulted through ``repro.service.server.RESPONSE_FAULT_HOOK``,
    which the shared HTTP app calls with its tier (cluster router /
    single-process service) just before a ``/disposition`` response
    is written: ``delay`` sleeps,
    ``drop`` closes the connection without a response, ``reset``
    aborts the transport (RST).  All three are *post-decision* faults:
    the disposition already ran, and because dispositions are pure
    per-device functions, the client's retry replays to an identical
    decision.
``journal.append``
    Consulted by :meth:`repro.service.durability.StateJournal.append`:
    ``disk_full`` raises ``OSError(ENOSPC)`` before any byte lands,
    ``torn`` writes half the record then raises -- the on-disk shape
    of a crash mid-append, which the next recovery scan must truncate.
``shard.write``
    Consulted by :func:`repro.data.shard.write_shard` before the
    atomic publish: ``torn`` leaves a deliberately truncated file at
    the destination and raises -- the shape of a crash on a
    filesystem without atomic replace, which the shard reader must
    reject as :class:`~repro.errors.DatasetError`.

Worker SIGKILL is not a hook: killing is driven *by the test* from
:meth:`FaultPlan.kill_schedule` (seeded times and victims), because
the supervisor's kill path (:meth:`ClusterService.kill_worker`) is
already a first-class test surface.

Worker *startup* faults cross a process boundary (spawned workers
cannot see the parent's hooks), so they travel via the
``REPRO_CHAOS_STARTUP`` environment variable read by
:func:`worker_startup_fault` inside the worker entry point: the first
spawn of each worker index fails in the requested way (dies before
the pipe handshake, or reports a bind failure), later spawns succeed
-- exercising the supervisor's spawn-retry path deterministically.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ServiceError
from repro.telemetry import get_telemetry

#: Injection sites, in SeedSequence spawn order.  Appending new sites
#: keeps existing seeds' schedules stable; reordering would not.
SITES = (
    "cluster.response",
    "service.response",
    "journal.append",
    "shard.write",
)

#: Fault kinds drawn at each site.
SITE_KINDS = {
    "cluster.response": ("delay", "drop", "reset"),
    "service.response": ("delay", "drop", "reset"),
    "journal.append": ("disk_full", "torn"),
    "shard.write": ("torn",),
}

#: Environment variable carrying worker-startup faults across the
#: process spawn boundary: ``<marker_dir>:<mode>`` with mode one of
#: ``handshake_death`` or ``bind_fail``.
STARTUP_ENV = "REPRO_CHAOS_STARTUP"

#: Startup fault modes (see :func:`worker_startup_fault`).
STARTUP_MODES = ("handshake_death", "bind_fail")


class SiteSchedule:
    """One site's deterministic fault stream.

    Each consultation draws from the site's own seeded generator:
    with probability ``rate`` (and while under ``max_faults``) it
    yields ``(kind, delay_s)``, else ``None``.  The draw sequence is a
    pure function of the site's SeedSequence child, so a chaos run
    replays exactly from the plan's one integer seed.
    """

    def __init__(self, site, seed_seq, rate, max_faults):
        self.site = site
        self.kinds = SITE_KINDS[site]
        self.rate = float(rate)
        self.max_faults = int(max_faults)
        self._rng = np.random.default_rng(seed_seq)
        self.n_consulted = 0
        #: Every fired fault as ``(consultation index, kind)``.
        self.fired: list[tuple[int, str]] = []

    def draw(self):
        index = self.n_consulted
        self.n_consulted += 1
        # Always burn exactly two draws per consultation so the
        # stream's alignment is independent of which branch fires.
        hit = self._rng.random() < self.rate
        kind = self.kinds[int(self._rng.integers(len(self.kinds)))]
        if not hit or len(self.fired) >= self.max_faults:
            return None
        self.fired.append((index, kind))
        delay_s = 0.01 + 0.04 * float(self._rng.random())
        return kind, delay_s


class FaultPlan:
    """Every fault schedule of one chaos run, from one integer seed.

    Parameters
    ----------
    seed:
        Master seed; ``SeedSequence(seed)`` spawns one child per site
        (in :data:`SITES` order) plus one for the kill schedule.
    rate:
        Per-consultation fault probability at each site.
    max_faults:
        Cap on fired faults per site (keeps a long load run from
        drowning in injected noise while still exercising every path).
    """

    def __init__(self, seed, rate=0.05, max_faults=8):
        self.seed = int(seed)
        root = np.random.SeedSequence(self.seed)
        children = root.spawn(len(SITES) + 1)
        self.schedules = {
            site: SiteSchedule(site, child, rate, max_faults)
            for site, child in zip(SITES, children[: len(SITES)])
        }
        self._kill_seq = children[len(SITES)]

    def schedule(self, site) -> SiteSchedule:
        try:
            return self.schedules[site]
        except KeyError:
            raise ServiceError(
                "unknown chaos site {!r}; known: {}".format(
                    site, ", ".join(SITES)
                )
            ) from None

    def kill_schedule(self, n_workers, n_kills, span_s=2.0):
        """Seeded worker-SIGKILL schedule for a live chaos run.

        Returns ``[(at_seconds, worker_index), ...]`` sorted by time:
        ``n_kills`` kills spread over ``span_s`` seconds of load, each
        victim drawn uniformly.  Driven by the test (which owns the
        cluster handle); deterministic given the plan's seed.
        """
        rng = np.random.default_rng(self._kill_seq)
        times = np.sort(rng.uniform(0.1, span_s, size=int(n_kills)))
        victims = rng.integers(0, int(n_workers), size=int(n_kills))
        return [
            (float(t), int(v)) for t, v in zip(times, victims)
        ]

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "sites": {
                site: {
                    "n_consulted": sched.n_consulted,
                    "fired": [
                        {"at": index, "kind": kind}
                        for index, kind in sched.fired
                    ],
                }
                for site, sched in self.schedules.items()
            },
        }


class FaultInjector:
    """Install a :class:`FaultPlan` into the production fault hooks.

    A context manager: entering replaces the module-level hooks in
    :mod:`repro.service.server`, :mod:`repro.service.cluster`,
    :mod:`repro.service.durability` and :mod:`repro.data.shard` with
    closures over the plan's schedules; exiting restores whatever was
    there before.  ``sites`` restricts injection to a subset.

    Fired faults are counted per ``(site, kind)`` both on the
    injector (:attr:`fired`) and as the telemetry counter
    ``repro_chaos_faults_total`` -- a chaos run's injected-fault
    ledger is part of its observable record.
    """

    def __init__(self, plan: FaultPlan, sites=None):
        self.plan = plan
        self.sites = tuple(sites) if sites is not None else SITES
        unknown = [s for s in self.sites if s not in SITES]
        if unknown:
            raise ServiceError(
                "unknown chaos site(s): {}".format(", ".join(unknown))
            )
        self.fired: dict[tuple[str, str], int] = {}
        self._saved: dict[str, object] = {}

    def _record(self, site, kind):
        key = (site, kind)
        self.fired[key] = self.fired.get(key, 0) + 1
        get_telemetry().counter(
            "repro_chaos_faults_total", 1, site=site, kind=kind
        )

    def n_fired(self, site=None) -> int:
        return sum(
            count
            for (s, _), count in self.fired.items()
            if site is None or s == site
        )

    # -- the hook closures -------------------------------------------------
    def _response_hook(self, tier, path):
        """``tier`` is ``"cluster"`` or ``"service"``; only the
        data plane (``/disposition``) is perturbed -- faulting health
        probes would just race the supervisor's own respawn logic."""
        site = tier + ".response"
        if site not in self.sites or path != "/disposition":
            return None
        decision = self.plan.schedule(site).draw()
        if decision is not None:
            self._record(site, decision[0])
        return decision

    def _journal_hook(self, record):
        if "journal.append" not in self.sites:
            return None
        decision = self.plan.schedule("journal.append").draw()
        if decision is None:
            return None
        self._record("journal.append", decision[0])
        return decision[0]

    def _shard_hook(self, path):
        if "shard.write" not in self.sites:
            return None
        decision = self.plan.schedule("shard.write").draw()
        if decision is None:
            return None
        self._record("shard.write", decision[0])
        return decision[0]

    # -- install/restore ---------------------------------------------------
    def __enter__(self) -> "FaultInjector":
        from repro.data import shard as shard_module
        from repro.service import durability as durability_module
        from repro.service import server as server_module

        self._saved = {
            "server": server_module.RESPONSE_FAULT_HOOK,
            "journal": durability_module.JOURNAL_FAULT_HOOK,
            "shard": shard_module.SHARD_FAULT_HOOK,
        }
        server_module.RESPONSE_FAULT_HOOK = self._response_hook
        durability_module.JOURNAL_FAULT_HOOK = self._journal_hook
        shard_module.SHARD_FAULT_HOOK = self._shard_hook
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.data import shard as shard_module
        from repro.service import durability as durability_module
        from repro.service import server as server_module

        server_module.RESPONSE_FAULT_HOOK = self._saved["server"]
        durability_module.JOURNAL_FAULT_HOOK = self._saved["journal"]
        shard_module.SHARD_FAULT_HOOK = self._saved["shard"]
        self._saved = {}


def worker_startup_fault(index) -> str | None:
    """The startup fault (if any) this worker spawn must exhibit.

    Reads ``REPRO_CHAOS_STARTUP=<marker_dir>:<mode>``; the first spawn
    of each worker index claims a marker file in ``marker_dir`` and
    returns ``mode`` (``handshake_death`` -- exit before the pipe
    handshake -- or ``bind_fail`` -- report a bind failure through the
    pipe).  Every later spawn of that index finds the marker and
    returns ``None``, so the supervisor's retry succeeds.  Returns
    ``None`` (zero overhead) when the variable is unset -- the
    production path.
    """
    spec = os.environ.get(STARTUP_ENV)
    if not spec:
        return None
    marker_dir, _, mode = spec.rpartition(":")
    if mode not in STARTUP_MODES or not marker_dir:
        raise ServiceError(
            "malformed {}={!r}; expected <marker_dir>:<mode> with mode "
            "in {}".format(STARTUP_ENV, spec, "/".join(STARTUP_MODES))
        )
    marker = os.path.join(marker_dir, "worker-{}.fired".format(int(index)))
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return None
    os.close(fd)
    return mode


def corrupt_file(path, seed, n_bytes=8) -> list[int]:
    """Deterministically flip ``n_bytes`` bytes of a file in place.

    The corrupted-artifact / corrupted-shard fault: offsets are drawn
    from ``default_rng(seed)`` over the file's interior (skipping the
    first 16 bytes so container magics survive and the corruption
    reaches content validation, not just format sniffing).  Returns
    the flipped offsets so a test can report exactly what it broke.
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    if size < 32:
        raise ServiceError(
            "file {} is too small ({} bytes) to corrupt "
            "meaningfully".format(path, size)
        )
    rng = np.random.default_rng(seed)
    offsets = sorted(
        int(o) for o in rng.integers(16, size, size=int(n_bytes))
    )
    with open(path, "r+b") as handle:
        for offset in offsets:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
    return offsets
