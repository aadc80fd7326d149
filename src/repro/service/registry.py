"""Versioned test-program artifact registry for the floor service.

A production floor serves many device types at once, and every device
type is periodically recalibrated (retrain, redeploy -- see
:mod:`repro.floor.monitor`).  The registry is the service's source of
truth for *which* compacted program dispositions *what*:

* artifacts are keyed by ``(device, version)``; registering a newer
  version of a device **hot-swaps** it -- new traffic that does not
  pin a version resolves to the newest active registration, while
  pinned in-flight requests keep the exact program they asked for;
* ``retire`` takes a version out of rotation without touching files;
* file-backed entries are **checksum-pinned**: the SHA-256 of the
  artifact file is recorded at registration, and every reload verifies
  it, so a file silently replaced on disk can never serve under an old
  registration (re-register to bless new bytes);
* loading always goes through the restricted unpickler of
  :meth:`repro.floor.artifact.TestProgramArtifact.loads`, so a
  registry path can point at untrusted storage; each file is read
  once, hashed and unpickled from the same buffer (pin verification
  happens *before* any unpickling on reloads);
* the resident set is **LRU-bounded**: at most ``max_resident``
  file-backed artifact objects stay in memory (object-backed
  registrations are pinned on top of the bound), colder file-backed
  entries are dropped and transparently reloaded (and re-verified) on
  next use.

The registry itself is synchronous and cheap; the asyncio service
calls it from the event loop (loads are rare control-plane events,
dispositions never touch the disk).
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ServiceError, UnknownArtifactError
from repro.floor.artifact import TestProgramArtifact

#: Default bound on in-memory artifact objects.
DEFAULT_MAX_RESIDENT = 8


def _read_and_hash(path: str) -> tuple[str, bytes]:
    """One read of an artifact file: ``(sha256 hexdigest, bytes)``.

    Hashing the very buffer the artifact is then built from is what
    makes checksum pinning exact -- a file swapped on disk at any
    point cannot desynchronize the recorded digest from the resident
    artifact.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    return hashlib.sha256(blob).hexdigest(), blob


@dataclass
class RegistryEntry:
    """One registered ``(device, version)`` artifact."""

    device: str
    version: str
    #: Artifact file path; ``None`` for entries registered from an
    #: in-memory object (those are pinned resident -- nothing to
    #: reload them from).
    path: str | None
    #: SHA-256 of the file at registration time (``None`` when
    #: object-backed).
    checksum: str | None
    #: Unix time of registration.
    registered_unix: float
    #: Retired entries stay listed (audit trail) but never serve.
    retired: bool = False
    #: Monotonic registration sequence (hot-swap resolution order).
    sequence: int = 0
    #: Snapshot of cheap artifact facts for listings, so describing a
    #: non-resident entry does not force a reload.
    summary: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        return (self.device, self.version)

    def describe(self, resident: bool) -> dict:
        """JSON-ready listing row (the ``/artifacts`` endpoint)."""
        out = {
            "device": self.device,
            "version": self.version,
            "path": self.path,
            "checksum": self.checksum,
            "registered_unix": self.registered_unix,
            "retired": self.retired,
            "resident": resident,
        }
        out.update(self.summary)
        return out


def _summarize(artifact: TestProgramArtifact) -> dict:
    provenance = artifact.provenance
    return {
        "kept": list(artifact.kept),
        "n_eliminated": len(artifact.eliminated),
        "lookup": artifact.lookup is not None,
        "trained_device": provenance.get("device"),
        "train_seed": provenance.get("train_seed"),
    }


class ArtifactRegistry:
    """Load, hot-swap and retire test-program artifacts by key.

    Parameters
    ----------
    max_resident:
        Upper bound on artifact objects held in memory.  Object-backed
        entries (registered from a live
        :class:`~repro.floor.artifact.TestProgramArtifact`) are pinned
        and do not count toward evictions; file-backed entries beyond
        the bound are dropped coldest-first and reloaded on demand.
    loader:
        Artifact construction hook ``(blob, source) -> artifact``
        (tests stub it); defaults to the restricted
        :meth:`TestProgramArtifact.loads`.  Taking bytes rather than a
        path keeps the recorded checksum and the resident artifact
        derived from one read of the file -- there is no window in
        which the file can change between hashing and loading.
    """

    def __init__(self, max_resident: int = DEFAULT_MAX_RESIDENT, loader=None):
        if max_resident < 1:
            raise ServiceError("max_resident must be at least 1")
        self.max_resident = int(max_resident)
        self._loader = (
            loader if loader is not None else TestProgramArtifact.loads
        )
        self._entries: dict[tuple[str, str], RegistryEntry] = {}
        #: key -> artifact, in least-recently-used order (first = coldest).
        self._resident: OrderedDict[tuple[str, str], TestProgramArtifact] = (
            OrderedDict()
        )
        #: Object-backed keys that can never be evicted.
        self._pinned: set[tuple[str, str]] = set()
        self._sequence = 0
        self._lock = threading.RLock()
        #: Reloads forced by LRU eviction (observability).
        self.n_reloads = 0

    # -- control plane -----------------------------------------------------
    def register(
        self,
        device: str,
        version: str,
        source: str | os.PathLike | TestProgramArtifact,
    ) -> RegistryEntry:
        """Register (or hot-swap in) an artifact under ``(device, version)``.

        ``source`` is an artifact file path -- loaded immediately
        through the restricted loader, checksum recorded -- or a live
        artifact object.  Re-registering an existing key replaces it
        (same-key hot-swap: fresh bytes, fresh checksum).
        """
        device = str(device)
        version = str(version)
        if isinstance(source, TestProgramArtifact):
            artifact, path, checksum = source, None, None
        else:
            path = os.fspath(source)
            checksum, blob = _read_and_hash(path)
            artifact = self._loader(blob, path)
        with self._lock:
            self._sequence += 1
            entry = RegistryEntry(
                device=device,
                version=version,
                path=path,
                checksum=checksum,
                registered_unix=time.time(),
                sequence=self._sequence,
                summary=_summarize(artifact),
            )
            self._entries[entry.key] = entry
            self._pinned.discard(entry.key)
            if path is None:
                self._pinned.add(entry.key)
            self._resident.pop(entry.key, None)
            self._resident[entry.key] = artifact
            self._evict()
            return entry

    def retire(self, device: str, version: str) -> RegistryEntry:
        """Take a version out of rotation and drop it from memory."""
        with self._lock:
            entry = self._entry(device, version)
            entry.retired = True
            self._resident.pop(entry.key, None)
            self._pinned.discard(entry.key)
            return entry

    # -- data plane --------------------------------------------------------
    def resolve(self, device: str, version: str | None = None) -> tuple[str, str]:
        """The exact ``(device, version)`` key a request lands on.

        ``version=None`` resolves to the newest active registration for
        the device -- the hot-swap path.  Raises
        :class:`~repro.errors.ServiceError` when nothing can serve.
        """
        device = str(device)
        with self._lock:
            if version is not None:
                entry = self._entry(device, str(version))
                if entry.retired:
                    raise UnknownArtifactError(
                        "artifact {}@{} is retired".format(device, version)
                    )
                return entry.key
            live = [
                entry
                for entry in self._entries.values()
                if entry.device == device and not entry.retired
            ]
            if not live:
                raise UnknownArtifactError(
                    "no active artifact registered for device {!r}".format(device)
                )
            return max(live, key=lambda entry: entry.sequence).key

    def get(
        self, device: str, version: str | None = None
    ) -> tuple[tuple[str, str], TestProgramArtifact]:
        """Resolve a key and return ``(key, artifact)``, loading if cold."""
        with self._lock:
            key = self.resolve(device, version)
            artifact = self._resident.get(key)
            if artifact is not None:
                self._resident.move_to_end(key)
                return key, artifact
            entry = self._entries[key]
            # Only file-backed entries can be cold (object-backed ones
            # are pinned resident until retired).  The pin is checked
            # against the bytes read *before* they reach the
            # unpickler: swapped bytes are never parsed, let alone
            # served.
            assert entry.path is not None
            checksum, blob = _read_and_hash(entry.path)
            if checksum != entry.checksum:
                raise ServiceError(
                    "artifact file {!r} changed on disk since {}@{} was "
                    "registered (checksum {}... != registered {}...); "
                    "re-register to serve the new bytes".format(
                        entry.path,
                        entry.device,
                        entry.version,
                        checksum[:12],
                        (entry.checksum or "")[:12],
                    )
                )
            artifact = self._loader(blob, entry.path)
            self.n_reloads += 1
            self._resident[key] = artifact
            self._evict()
            return key, artifact

    # -- views -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RegistryEntry]:
        return iter(list(self._entries.values()))

    def __contains__(self, key) -> bool:
        """Whether ``(device, version)`` is registered (retired counts)."""
        device, version = key
        with self._lock:
            return (str(device), str(version)) in self._entries

    def entry(self, device: str, version: str) -> RegistryEntry:
        """The registration record for an exact key."""
        with self._lock:
            return self._entry(device, version)

    def resident_keys(self) -> tuple[tuple[str, str], ...]:
        """Keys currently held in memory, coldest first."""
        with self._lock:
            return tuple(self._resident)

    def describe(self) -> list[dict]:
        """JSON-ready listing of every registration."""
        with self._lock:
            return [
                entry.describe(resident=entry.key in self._resident)
                for entry in sorted(
                    self._entries.values(), key=lambda e: e.sequence
                )
            ]

    # -- internals ---------------------------------------------------------
    def _entry(self, device: str, version: str) -> RegistryEntry:
        try:
            return self._entries[(str(device), str(version))]
        except KeyError:
            raise UnknownArtifactError(
                "unknown artifact {}@{}; registered: {}".format(
                    device,
                    version,
                    ", ".join(
                        "{}@{}".format(*key) for key in sorted(self._entries)
                    )
                    or "none",
                )
            ) from None

    def _evict(self) -> None:
        # The bound governs the evictable (file-backed) set only: if
        # pinned entries counted toward it, enough of them would force
        # every file-backed get() into a load-then-immediately-evict
        # reload thrash.
        evictable = [key for key in self._resident if key not in self._pinned]
        overflow = len(evictable) - self.max_resident
        for key in evictable[:max(overflow, 0)]:
            del self._resident[key]

    def __repr__(self) -> str:
        return "ArtifactRegistry({} registered, {} resident, bound {})".format(
            len(self._entries), len(self._resident), self.max_resident
        )
