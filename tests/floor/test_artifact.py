"""Test-program artifact persistence, validation and security."""

import pickle

import numpy as np
import pytest

from repro.core.guardband import GuardBandedClassifier
from repro.core.specs import Specification, SpecificationSet
from repro.errors import ArtifactError
from repro.floor import TestFloor as Floor
from repro.floor import TestProgramArtifact as Artifact
from repro.floor.artifact import MAGIC, SCHEMA_VERSION
from repro.learn import SVC

from tests.synthetic import make_synthetic_dataset


class TestRoundTrip:
    def test_save_load_preserves_program(self, tmp_path, artifact,
                                         populations):
        _, test = populations
        path = tmp_path / "program.rtp"
        artifact.save(path)
        loaded = Artifact.load(path)

        assert loaded.kept == artifact.kept
        assert loaded.eliminated == artifact.eliminated
        assert loaded.specifications == artifact.specifications
        assert loaded.baseline == artifact.baseline
        assert loaded.train_metrics == artifact.train_metrics
        assert (loaded.cost_model.test_costs
                == artifact.cost_model.test_costs)

    def test_reloaded_decisions_bit_identical(self, tmp_path, artifact,
                                              populations):
        _, test = populations
        path = tmp_path / "program.rtp"
        artifact.save(path)
        loaded = Artifact.load(path)
        before = Floor(artifact).run_dataset(
            test, keep_decisions=True)
        after = Floor(loaded).run_dataset(test, keep_decisions=True)
        assert np.array_equal(before.decisions, after.decisions)
        assert before.total_cost == after.total_cost

    def test_provenance_header(self, artifact):
        prov = artifact.provenance
        assert prov["device"] == "synthetic"
        assert prov["train_seed"] == 1
        assert prov["generation"] == "per-instance"
        assert prov["n_train"] == 400
        assert prov["repro_version"]
        assert prov["kept"] == artifact.kept

    def test_lookup_survives_round_trip(self, tmp_path, artifact,
                                        populations):
        _, test = populations
        art = Artifact(
            artifact.model, artifact.specifications,
            cost_model=artifact.cost_model,
            baseline=artifact.baseline,
            provenance=artifact.provenance).with_lookup(resolution=21)
        path = tmp_path / "lut.rtp"
        art.save(path)
        loaded = Artifact.load(path)
        assert loaded.lookup is not None
        assert np.array_equal(loaded.lookup.table, art.lookup.table)
        values = test.project(art.kept).values
        assert np.array_equal(loaded.lookup.classify(values),
                              art.lookup.classify(values))

    def test_unpicklable_model_factory_is_dropped_on_save(self, tmp_path):
        train = make_synthetic_dataset(n=120, seed=5)
        model = GuardBandedClassifier(
            train.names[:3], delta=0.05,
            model_factory=lambda: SVC(C=20.0)).fit(train)
        art = Artifact(model, train.specifications)
        path = tmp_path / "lambda.rtp"
        art.save(path)                       # lambda must not be pickled
        loaded = Artifact.load(path)
        assert loaded.model.model_factory is None
        # The in-memory model keeps its factory (save must not mutate).
        assert art.model.model_factory is not None
        X = train.values[:7]
        assert np.array_equal(loaded.model.predict_measurements(X[:, :3]),
                              model.predict_measurements(X[:, :3]))

    def test_saved_bytes_do_not_depend_on_scoring(self, tmp_path,
                                                  artifact, populations):
        """Hot-path caches never reach the file: scoring through a
        floor first leaves the saved bytes unchanged."""
        _, test = populations
        path = tmp_path / "program.rtp"
        artifact.save(path)
        loaded = Artifact.load(path)
        cold_path = tmp_path / "cold.rtp"
        loaded.save(cold_path)
        Floor(loaded).run_dataset(test)
        Floor(loaded.with_lookup(resolution=9)).run_dataset(test)
        loaded.lookup = None
        warm_path = tmp_path / "warm.rtp"
        loaded.save(warm_path)
        assert warm_path.read_bytes() == cold_path.read_bytes()


class TestValidation:
    def test_junk_file_rejected(self, tmp_path):
        path = tmp_path / "junk.rtp"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(ArtifactError, match="cannot read"):
            Artifact.load(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "magic.rtp"
        path.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(ArtifactError, match="not a repro"):
            Artifact.load(path)

    def test_future_schema_version_rejected(self, tmp_path, artifact):
        path = tmp_path / "future.rtp"
        artifact.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["schema_version"] = SCHEMA_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ArtifactError, match="schema version"):
            Artifact.load(path)

    def test_missing_state_rejected(self, tmp_path):
        path = tmp_path / "empty.rtp"
        path.write_bytes(pickle.dumps(
            {"magic": MAGIC, "schema_version": SCHEMA_VERSION,
             "state": {"provenance": {}}}))
        with pytest.raises(ArtifactError, match="missing required"):
            Artifact.load(path)

    def test_malicious_global_rejected(self, tmp_path):
        """The restricted unpickler must refuse non-repro callables."""
        class Evil:
            def __reduce__(self):
                import os

                return (os.system, ("echo pwned > /tmp/pwned",))

        path = tmp_path / "evil.rtp"
        path.write_bytes(pickle.dumps(
            {"magic": MAGIC, "schema_version": SCHEMA_VERSION,
             "state": Evil()}))
        with pytest.raises(ArtifactError, match="disallowed global"):
            Artifact.load(path)

    def test_numpy_exec_gadget_rejected(self, tmp_path):
        """A blanket numpy allowance would resolve exec gadgets such
        as numpy.testing's runstring; only the three array
        reconstruction globals may load."""
        import numpy.testing

        runstring = numpy.testing._private.utils.runstring

        class Gadget:
            def __reduce__(self):
                return (runstring, ("import os\nos.system('true')", {}))

        path = tmp_path / "gadget.rtp"
        path.write_bytes(pickle.dumps(
            {"magic": MAGIC, "schema_version": SCHEMA_VERSION,
             "state": Gadget()}))
        with pytest.raises(ArtifactError, match="disallowed global"):
            Artifact.load(path)

    def test_spec_name_mismatch_rejected(self, artifact):
        other = SpecificationSet([
            Specification("x{}".format(i), "u", 0.0, -1.0, 1.0)
            for i in range(len(artifact.specifications))])
        with pytest.raises(ArtifactError, match="names differ"):
            artifact.validate_specifications(other)

    def test_range_mismatch_rejected(self, artifact):
        specs = list(artifact.specifications)
        s0 = specs[0]
        specs[0] = Specification(s0.name, s0.unit, s0.nominal,
                                 s0.low, s0.high * 2.0)
        with pytest.raises(ArtifactError, match="range"):
            artifact.validate_specifications(SpecificationSet(specs))

    def test_matching_bench_accepted(self, artifact, populations):
        train, _ = populations
        assert artifact.validate_specifications(
            train.specifications) is artifact

    def test_model_features_must_be_in_specs(self, populations,
                                             compaction):
        train, _ = populations
        with pytest.raises(ArtifactError, match="missing"):
            Artifact(
                compaction.model,
                train.specifications.subset(train.names[:1]))


class TestDescribe:
    def test_describe_mentions_key_facts(self, artifact):
        text = artifact.describe()
        assert "schema v{}".format(SCHEMA_VERSION) in text
        assert "synthetic" in text
        assert "kept" in text and "eliminated" in text
