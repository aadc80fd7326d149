"""Registry semantics: versioning, hot-swap, retirement, LRU, checksums."""

import hashlib
import shutil

import pytest

from repro.errors import ServiceError, UnknownArtifactError
from repro.service import ArtifactRegistry


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class TestRegisterAndResolve:
    def test_register_from_path_records_checksum(self, saved):
        registry = ArtifactRegistry()
        entry = registry.register("synthA", "1", saved["lookup"])
        assert entry.checksum == _sha256(saved["lookup"])
        assert entry.path == saved["lookup"]
        assert not entry.retired

    def test_get_returns_key_and_artifact(self, registry, lookup_pair):
        key, artifact = registry.get("synthA")
        assert key == ("synthA", "1")
        assert artifact.kept == lookup_pair[1].kept

    def test_register_from_object_is_served(self, live_pair):
        registry = ArtifactRegistry()
        registry.register("obj", "1", live_pair[1])
        key, artifact = registry.get("obj")
        assert key == ("obj", "1")
        assert artifact is live_pair[1]

    def test_unknown_device_raises(self, registry):
        with pytest.raises(UnknownArtifactError):
            registry.resolve("nope")

    def test_unknown_version_raises_and_names_registered(self, registry):
        with pytest.raises(UnknownArtifactError, match="synthA@1"):
            registry.resolve("synthA", "9")

    def test_latest_wins_without_pin(self, registry, saved):
        registry.register("synthA", "2", saved["swap"])
        assert registry.resolve("synthA") == ("synthA", "2")
        # A pinned request still reaches the older version.
        assert registry.resolve("synthA", "1") == ("synthA", "1")

    def test_describe_lists_every_registration(self, registry, saved):
        registry.register("synthA", "2", saved["swap"])
        listing = registry.describe()
        keys = {(row["device"], row["version"]) for row in listing}
        assert keys == {("synthA", "1"), ("synthA", "2"), ("synthB", "1")}
        assert all("checksum" in row and "kept" in row for row in listing)


class TestRetire:
    def test_retired_version_stops_serving(self, registry):
        registry.retire("synthA", "1")
        with pytest.raises(UnknownArtifactError, match="retired"):
            registry.resolve("synthA", "1")
        with pytest.raises(UnknownArtifactError):
            registry.resolve("synthA")

    def test_retire_falls_back_to_previous_active(self, registry, saved):
        registry.register("synthA", "2", saved["swap"])
        registry.retire("synthA", "2")
        assert registry.resolve("synthA") == ("synthA", "1")

    def test_retired_entry_stays_listed(self, registry):
        registry.retire("synthA", "1")
        rows = {(r["device"], r["version"]): r for r in registry.describe()}
        assert rows[("synthA", "1")]["retired"] is True


class TestResidencyBound:
    def test_lru_evicts_and_reloads_transparently(self, saved):
        registry = ArtifactRegistry(max_resident=1)
        registry.register("synthA", "1", saved["lookup"])
        registry.register("synthB", "1", saved["live"])
        # Only one artifact may be resident at a time.
        assert len(registry.resident_keys()) == 1
        _, first = registry.get("synthA")
        _, second = registry.get("synthB")
        before = registry.n_reloads
        _, again = registry.get("synthA")
        assert registry.n_reloads > before
        # The reloaded artifact is the same program, not the other one.
        assert again.kept == first.kept
        assert (again.specifications.names == first.specifications.names)
        assert (second.specifications.names != first.specifications.names)

    def test_object_backed_entries_are_pinned(self, saved, live_pair):
        registry = ArtifactRegistry(max_resident=1)
        registry.register("obj", "1", live_pair[1])
        registry.register("synthA", "1", saved["lookup"])
        registry.get("synthA")
        # The object-backed entry survives any amount of file churn.
        _, artifact = registry.get("obj")
        assert artifact is live_pair[1]

    def test_pinned_entries_ride_on_top_of_the_budget(self, saved,
                                                      live_pair):
        """A pinned object-backed entry must not consume the
        file-backed residency budget: with max_resident=1 a single
        file-backed artifact stays resident instead of reloading on
        every get()."""
        registry = ArtifactRegistry(max_resident=1)
        registry.register("obj", "1", live_pair[1])  # pinned
        registry.register("synthA", "1", saved["lookup"])
        registry.get("synthA")
        before = registry.n_reloads
        registry.get("synthA")
        assert registry.n_reloads == before
        assert set(registry.resident_keys()) == {("obj", "1"),
                                                 ("synthA", "1")}

    def test_max_resident_must_be_positive(self):
        with pytest.raises(ServiceError):
            ArtifactRegistry(max_resident=0)


class TestChecksumPinning:
    def test_changed_file_refuses_to_reload(self, saved):
        registry = ArtifactRegistry(max_resident=1)
        registry.register("synthA", "1", saved["lookup"])
        registry.register("synthB", "1", saved["live"])  # evicts synthA
        # The file silently changes on disk (still a valid artifact --
        # the checksum, not the loader, must catch it).
        shutil.copyfile(saved["swap"], saved["lookup"])
        with pytest.raises(ServiceError, match="changed on disk"):
            registry.get("synthA")

    def test_reregistering_blesses_new_bytes(self, saved):
        registry = ArtifactRegistry(max_resident=1)
        registry.register("synthA", "1", saved["lookup"])
        shutil.copyfile(saved["swap"], saved["lookup"])
        entry = registry.register("synthA", "1", saved["lookup"])
        assert entry.checksum == _sha256(saved["lookup"])
        registry.get("synthA")  # serves without complaint

    def test_checksum_describes_the_loaded_bytes_exactly(self, saved):
        """Registration reads the file once: the bytes hashed and the
        bytes the artifact is built from are the same buffer, so a
        file swapped at any point mid-registration cannot
        desynchronize the recorded digest from the resident
        artifact."""
        from repro.floor import TestProgramArtifact

        seen = {}

        def recording_loader(blob, source):
            seen["blob"] = blob
            # The file changes under the registry mid-load --
            # irrelevant, the buffer already in hand is what serves.
            shutil.copyfile(saved["swap"], source)
            return TestProgramArtifact.loads(blob, source=source)

        registry = ArtifactRegistry(loader=recording_loader)
        entry = registry.register("synthA", "1", saved["lookup"])
        assert entry.checksum == hashlib.sha256(seen["blob"]).hexdigest()
        # What is resident is the lookup program, not the swap bytes
        # the file now holds.
        _, artifact = registry.get("synthA")
        assert artifact.lookup is not None

    def test_swapped_bytes_are_never_unpickled_on_reload(self, saved):
        """On a cold reload the pin is verified against the bytes read
        before they reach the unpickler."""
        from repro.floor import TestProgramArtifact

        loaded_sources = []

        def loader(blob, source):
            loaded_sources.append(source)
            return TestProgramArtifact.loads(blob, source=source)

        registry = ArtifactRegistry(max_resident=1, loader=loader)
        registry.register("synthA", "1", saved["lookup"])
        registry.register("synthB", "1", saved["live"])  # evicts synthA
        shutil.copyfile(saved["swap"], saved["lookup"])
        loaded_sources.clear()
        with pytest.raises(ServiceError, match="changed on disk"):
            registry.get("synthA")
        assert loaded_sources == []
