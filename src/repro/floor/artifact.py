"""Deployable test-program artifacts: train once, disposition forever.

A :class:`~repro.core.compaction.CompactionResult` is ephemeral -- it
lives in the process that ran the greedy loop.  The artifact layer
turns it into a *deployable unit*: one versioned file holding
everything the production floor needs to disposition devices --

* the kept specification test set and the full specification universe
  it was compacted from (names **and** acceptability ranges; a program
  is only valid against the exact ranges it was trained for);
* the trained guard-banded SVM pair, with an optional pre-built
  :class:`~repro.tester.lookup.LookupTable` (paper Section 3.3 --
  "negligible cost" on the tester);
* the guard-band parameters and the insertion-aware
  :class:`~repro.core.costmodel.TestCostModel` (Section 6);
* the :class:`~repro.floor.monitor.DriftBaseline` -- training-time
  per-spec statistics the floor monitors the live stream against;
* a provenance header: repro version, schema version, device name,
  generation scheme, training seed and the held-out metrics the
  program was accepted with.

Loading validates the file's magic and schema version and can validate
specification compatibility against a target bench before any device
is dispositioned (:meth:`TestProgramArtifact.validate_specifications`).

The payload is a pickle, but loading goes through a **restricted
unpickler** with an explicit allowlist: :mod:`repro` classes, the
handful of numpy array-reconstruction globals an artifact actually
serializes, ``collections.OrderedDict`` and a few safe builtins.
Everything else -- including the rest of numpy, whose ``testing``
helpers contain exec gadgets -- is refused, so an artifact file cannot
smuggle in arbitrary callables.
"""

import copy
import dataclasses
import io
import pickle
import time

from repro.core.specs import SpecificationSet
from repro.errors import ArtifactError
from repro.floor.monitor import DriftBaseline
from repro.rules.engine import ToleranceProfile
from repro.tester.lookup import LookupTable

#: File-format identifier stored in every artifact.
MAGIC = "repro/test-program"
#: Current artifact schema version.  Bump on any incompatible change
#: to the saved state; :meth:`TestProgramArtifact.load` refuses files
#: from other versions with an actionable message.
#:
#: v2 adds the optional multi-bin state: a tolerance profile (stored
#: as its plain JSON dict, never pickled objects) and a one-vs-rest
#: grade bank.  v1 files keep loading -- they simply carry neither,
#: which the floor treats as the degenerate 2-bin (pass/fail) case.
SCHEMA_VERSION = 2

#: Schema versions :meth:`TestProgramArtifact.loads` accepts.
COMPATIBLE_VERSIONS = (1, 2)

#: Builtin names the restricted unpickler will resolve.
_SAFE_BUILTINS = frozenset({
    "complex", "frozenset", "set", "bytearray", "range", "slice",
})

#: The exact numpy globals an artifact payload references (array and
#: scalar reconstruction; ``numpy.core`` is the pre-2.0 module path).
#: Nothing else from numpy resolves -- a blanket ``numpy.*`` allowance
#: would expose exec gadgets such as ``numpy.testing``'s helpers.
_SAFE_NUMPY_GLOBALS = frozenset({
    ("numpy", "ndarray"),
    ("numpy", "dtype"),
    ("numpy.core.multiarray", "_reconstruct"),
    ("numpy._core.multiarray", "_reconstruct"),
    ("numpy.core.multiarray", "scalar"),
    ("numpy._core.multiarray", "scalar"),
})


class _ArtifactUnpickler(pickle.Unpickler):
    """Unpickler restricted to the allowlist documented above."""

    def find_class(self, module, name):
        allowed = (
            module == "repro" or module.startswith("repro.")
            or (module, name) in _SAFE_NUMPY_GLOBALS
            or (module == "collections" and name == "OrderedDict")
            or (module == "builtins" and name in _SAFE_BUILTINS)
        )
        if allowed:
            return super().find_class(module, name)
        raise ArtifactError(
            "artifact references disallowed global {}.{}; the file is "
            "not a trustworthy repro test-program artifact".format(
                module, name))


def _sanitized_model(model):
    """A prediction-only shallow copy safe to pickle.

    A deployed program never refits, so the training-time model
    factory -- which may be an unpicklable closure -- is dropped.
    (Training Grams never reach the file: they live for one fit, and
    SVC's ``__getstate__`` excludes them besides.)
    """
    model = copy.copy(model)
    model.model_factory = None
    return model


class TestProgramArtifact:
    """A compacted test program packaged for deployment.

    Build one with :meth:`from_result`, persist with :meth:`save`,
    rehydrate on the floor with :meth:`load`, and hand it to
    :class:`repro.floor.engine.TestFloor` to disposition streams.

    Parameters
    ----------
    model:
        Fitted :class:`~repro.core.guardband.GuardBandedClassifier`.
    specifications:
        The *complete* :class:`~repro.core.specs.SpecificationSet` the
        program was compacted from (kept and eliminated tests).
    cost_model:
        Optional :class:`~repro.core.costmodel.TestCostModel` covering
        every specification test.
    lookup:
        Optional pre-built :class:`~repro.tester.lookup.LookupTable`
        (see :meth:`with_lookup`).
    baseline:
        Optional :class:`~repro.floor.monitor.DriftBaseline`.
    train_metrics:
        The :class:`~repro.core.metrics.ClassificationReport` the
        program was accepted with (held-out evaluation at train time).
    provenance:
        Free-form dict of training provenance; :meth:`from_result`
        fills the standard keys.
    profile:
        Optional :class:`~repro.rules.engine.ToleranceProfile` (or its
        :meth:`~repro.rules.engine.ToleranceProfile.to_dict` payload)
        for multi-bin disposition.  Validated -- including overlap and
        coverage checks -- against the specification set immediately,
        so a corrupt or overlapping profile is rejected at
        construction/load time, never on the floor.
    bank:
        Optional fitted :class:`~repro.learn.ovr.OneVsRestSVCBank`
        grading shipped devices (see :meth:`with_profile`).
    """

    def __init__(self, model, specifications, cost_model=None,
                 lookup=None, baseline=None, train_metrics=None,
                 provenance=None, profile=None, bank=None):
        if not isinstance(specifications, SpecificationSet):
            specifications = SpecificationSet(specifications)
        missing = set(model.feature_names) - set(specifications.names)
        if missing:
            raise ArtifactError(
                "model feature(s) missing from the specification set: "
                "{}".format(sorted(missing)))
        if profile is not None:
            if not isinstance(profile, ToleranceProfile):
                profile = ToleranceProfile.from_dict(profile)
            profile.validate(specifications)
        if bank is not None and profile is None:
            raise ArtifactError(
                "a grade bank without a tolerance profile is "
                "meaningless; attach the profile too")
        self.model = model
        self.specifications = specifications
        self.cost_model = cost_model
        self.lookup = lookup
        self.baseline = baseline
        self.train_metrics = train_metrics
        self.provenance = dict(provenance or {})
        self.profile = profile
        self.bank = bank

    # -- construction ------------------------------------------------------
    @classmethod
    def from_result(cls, result, train, cost_model=None, device=None,
                    train_seed=None, lookup_resolution=None,
                    extra_provenance=None):
        """Package a compaction run for deployment.

        Parameters
        ----------
        result:
            The :class:`~repro.core.compaction.CompactionResult`.
        train:
            The training :class:`~repro.process.dataset.SpecDataset`
            the run used -- supplies the full specification set and
            the drift baseline statistics.
        cost_model:
            Optional cost model to ship with the program.
        device, train_seed:
            Provenance: DUT name (e.g. ``OpAmpBench.name``) and the
            Monte-Carlo seed of the training population.  The header
            also records the generation scheme, always
            ``"per-instance"`` (per-slot seed-tree streams).
        lookup_resolution:
            When given (an int, or ``"auto"`` for the default sizing),
            a lookup table is built immediately.
        extra_provenance:
            Additional provenance entries merged into the header.
        """
        provenance = {
            "repro_version": _repro_version(),
            "created_unix": time.time(),
            "device": device,
            "train_seed": train_seed,
            "generation": "per-instance",
            "n_train": len(train),
            "tolerance": result.tolerance,
            "order": tuple(result.order),
            "kept": tuple(result.kept),
            "eliminated": tuple(result.eliminated),
            "train_metrics_summary": result.final_report.summary(),
        }
        provenance.update(dict(extra_provenance or {}))
        baseline = DriftBaseline.from_dataset(
            train, result.model.feature_names,
            guard_rate=result.final_report.guard_rate)
        artifact = cls(
            model=result.model,
            specifications=train.specifications,
            cost_model=cost_model,
            baseline=baseline,
            train_metrics=result.final_report,
            provenance=provenance,
        )
        if lookup_resolution is not None:
            artifact = artifact.with_lookup(
                resolution=(None if lookup_resolution == "auto"
                            else int(lookup_resolution)))
        return artifact

    def with_lookup(self, resolution=None):
        """A shallow copy carrying a grid lookup table built from the
        model; ``self`` is left as it is, so floors built from a
        shared artifact keep scoring the live model."""
        artifact = copy.copy(self)
        artifact.lookup = LookupTable(self.model, resolution=resolution)
        return artifact

    def with_profile(self, profile, train=None, model_factory=None,
                     train_bank=True):
        """Attach a tolerance profile (and optionally train its bank).

        Parameters
        ----------
        profile:
            A :class:`~repro.rules.engine.ToleranceProfile` (or its
            dict form); validated against the artifact's
            specifications -- overlap, coverage, unknown specs.
        train:
            Optional training
            :class:`~repro.process.dataset.SpecDataset`.  When given,
            the drift baseline gains per-bin training rates (so the
            floor can chart per-bin drift), and -- with ``train_bank``
            and at least two grade bins -- a one-vs-rest grade bank is
            fitted on the *passing* training devices' normalized kept
            measurements, sharing one Gram matrix and SMO warm starts
            across the member fits.
        model_factory:
            Zero-argument callable building each bank member
            (default ``SVC(C=50.0, gamma="scale")``).

        Returns ``self``.
        """
        if not isinstance(profile, ToleranceProfile):
            profile = ToleranceProfile.from_dict(profile)
        profile.validate(self.specifications)
        self.profile = profile
        self.bank = None
        if train is None:
            return self
        import numpy as np

        from repro.rules.binning import bin_histogram, grade_indices

        bound = profile.bind(train.specifications)
        truth_bins = bound.assign(train.values)
        counts = bin_histogram(truth_bins, bound.bins)
        if self.baseline is not None:
            self.baseline = dataclasses.replace(
                self.baseline,
                bin_rates={name: counts[name] / len(train)
                           for name in bound.bins})
        grades = grade_indices(bound)
        default = profile.bin_index(profile.default_bin)
        passing = truth_bins != default
        if train_bank and len(grades) >= 2 and int(passing.sum()) >= 2:
            from repro.learn.ovr import OneVsRestSVCBank

            X = train.normalized_values(self.kept)[passing]
            y = np.asarray(bound.bins, dtype=object)[truth_bins[passing]]
            self.bank = OneVsRestSVCBank(
                tuple(bound.bins[g] for g in grades),
                model_factory=model_factory).fit(X, y)
        return self

    # -- views -------------------------------------------------------------
    @property
    def kept(self):
        """Names of the tests the floor must still apply."""
        return tuple(self.model.feature_names)

    @property
    def eliminated(self):
        """Names of the tests the model replaces."""
        return tuple(
            n for n in self.specifications.names
            if n not in set(self.model.feature_names))

    def validate_specifications(self, specifications):
        """Check the artifact matches a target bench's specifications.

        Names must match exactly (same tests, same column order) and
        every acceptability range must be identical -- a program is a
        decision rule over *these* ranges; running it against different
        ones silently changes every disposition.  Raises
        :class:`~repro.errors.ArtifactError` on any mismatch.
        """
        if not isinstance(specifications, SpecificationSet):
            specifications = getattr(specifications, "specifications",
                                     specifications)
        if not isinstance(specifications, SpecificationSet):
            specifications = SpecificationSet(specifications)
        if specifications.names != self.specifications.names:
            raise ArtifactError(
                "specification names differ from the artifact's: bench "
                "has {}, artifact was trained on {}".format(
                    list(specifications.names),
                    list(self.specifications.names)))
        for mine, theirs in zip(self.specifications, specifications):
            if (mine.low, mine.high) != (theirs.low, theirs.high):
                raise ArtifactError(
                    "acceptability range of {!r} differs from the "
                    "artifact's: bench [{:g}, {:g}] vs artifact "
                    "[{:g}, {:g}]".format(
                        mine.name, theirs.low, theirs.high,
                        mine.low, mine.high))
        return self

    # -- persistence -------------------------------------------------------
    def save(self, path):
        """Write the artifact to ``path`` as one versioned file."""
        model = _sanitized_model(self.model)
        lookup = self.lookup
        if lookup is not None:
            lookup = copy.copy(lookup)
            lookup._model = _sanitized_model(lookup._model)
        payload = {
            "magic": MAGIC,
            "schema_version": SCHEMA_VERSION,
            "state": {
                "model": model,
                "specifications": self.specifications,
                "cost_model": self.cost_model,
                "lookup": lookup,
                "baseline": self.baseline,
                "train_metrics": self.train_metrics,
                "provenance": self.provenance,
                # The profile travels as its plain JSON dict -- bin
                # contracts stay reviewable in the file and the
                # restricted unpickler never has to trust rule code.
                "profile": (None if self.profile is None
                            else self.profile.to_dict()),
                "bank": self.bank,
            },
        }
        blob = pickle.dumps(payload, protocol=4)
        with open(path, "wb") as handle:
            handle.write(blob)
        return self

    @classmethod
    def load(cls, path):
        """Load and validate an artifact written by :meth:`save`."""
        with open(path, "rb") as handle:
            blob = handle.read()
        return cls.loads(blob, source=str(path))

    @classmethod
    def loads(cls, blob, source="<bytes>"):
        """Validate and build an artifact from :meth:`save` bytes.

        ``source`` only labels error messages.  Callers that must pin
        a checksum to the exact bytes served (the service registry)
        read the file once and hash the same buffer they pass here.
        """
        try:
            payload = _ArtifactUnpickler(io.BytesIO(blob)).load()
        except ArtifactError:
            raise
        except Exception as exc:
            raise ArtifactError(
                "cannot read test-program artifact {!r}: {}".format(
                    source, exc)) from exc
        if (not isinstance(payload, dict)
                or payload.get("magic") != MAGIC):
            raise ArtifactError(
                "{!r} is not a repro test-program artifact".format(
                    source))
        version = payload.get("schema_version")
        if version not in COMPATIBLE_VERSIONS:
            raise ArtifactError(
                "artifact {!r} has schema version {!r}; this repro "
                "build reads versions {} -- re-deploy the program "
                "with a matching version".format(
                    source, version, list(COMPATIBLE_VERSIONS)))
        state = payload.get("state")
        required = ("model", "specifications", "provenance")
        if (not isinstance(state, dict)
                or any(key not in state for key in required)):
            raise ArtifactError(
                "artifact {!r} is missing required state".format(
                    source))
        # v1 files predate the binning layer: they carry no profile or
        # bank, and the floor runs them as the degenerate 2-bin case.
        # The constructor re-validates any v2 profile against the
        # specifications, so a corrupt/overlapping profile in the file
        # is rejected here with a clean RuleError.
        return cls(
            model=state["model"],
            specifications=state["specifications"],
            cost_model=state.get("cost_model"),
            lookup=state.get("lookup"),
            baseline=state.get("baseline"),
            train_metrics=state.get("train_metrics"),
            provenance=state["provenance"],
            profile=state.get("profile"),
            bank=state.get("bank"),
        )

    def describe(self):
        """Multi-line human-readable artifact summary."""
        prov = self.provenance
        lines = [
            "TestProgramArtifact (schema v{})".format(SCHEMA_VERSION),
            "  device: {}  repro: {}  generation: {}  seed: {}".format(
                prov.get("device", "?"),
                prov.get("repro_version", "?"),
                prov.get("generation", "?"),
                prov.get("train_seed", "?")),
            "  kept ({}): {}".format(len(self.kept),
                                     ", ".join(self.kept)),
            "  eliminated ({}): {}".format(
                len(self.eliminated),
                ", ".join(self.eliminated) or "-"),
            "  lookup: {}".format(self.lookup or "none"),
            "  cost model: {}".format(self.cost_model or "none"),
            "  profile: {}".format(
                "{} ({} bins, bank {})".format(
                    self.profile.name, self.profile.n_bins,
                    "fitted" if self.bank is not None else "none")
                if self.profile is not None
                else "none (degenerate 2-bin)"),
        ]
        if self.train_metrics is not None:
            lines.append(
                "  accepted with: {}".format(self.train_metrics.summary()))
        return "\n".join(lines)

    def __repr__(self):
        return ("TestProgramArtifact({} kept, {} eliminated, "
                "device={!r})".format(
                    len(self.kept), len(self.eliminated),
                    self.provenance.get("device")))


def _repro_version():
    import repro

    return repro.__version__
