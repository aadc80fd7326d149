"""repro -- reproduction of "Specification Test Compaction for Analog
Circuits and MEMS" (Biswas, Li, Blanton, Pileggi -- DATE 2005).

The package is organized as a set of substrates plus the paper's core
contribution:

``repro.circuit``
    A from-scratch modified-nodal-analysis (MNA) analog circuit simulator
    (DC, AC, transient) standing in for Cadence Spectre.
``repro.opamp``
    A two-stage CMOS operational amplifier DUT and its eleven
    specification measurements (paper Table 1).
``repro.mems``
    A folded-flexure MEMS accelerometer DUT measured at three
    temperatures (paper Table 2).
``repro.process``
    Monte-Carlo process-variation modeling and training-data generation
    (paper Fig. 1).
``repro.learn``
    A from-scratch support-vector-machine classifier (SMO solver),
    one-vs-rest banks and model-selection utilities.
``repro.core``
    The paper's contribution: statistical-learning-based specification
    test compaction with guard banding, grid data compaction, test
    ordering and cost modeling (paper Fig. 2, Sections 3-4).  Each
    guard-banded pair builds one Gram matrix for its strict and loose
    fits and warm-starts the loose SMO run from the strict solution;
    with ``n_jobs > 1`` the greedy loop evaluates candidates
    speculatively in worker processes -- bitwise the serial result.
``repro.tester``
    The grid lookup table a tester consults in place of the live SVM
    pair (paper Section 3.3).
``repro.runtime``
    The production runtime: deterministic multi-process Monte-Carlo
    generation (per-instance seed streams, bit-identical at any worker
    count) and the process pools shared by every fan-out.
``repro.floor``
    The production test floor: deployable test-program artifacts
    (save a trained program to one versioned file, load it on any
    floor), the streaming :class:`~repro.floor.engine.TestFloor`
    disposition engine (the one kernel for offline populations and
    streams alike) with pluggable retest policies (Section 4.2), online
    distribution-drift monitoring and per-lot yield/escape/cost/
    throughput reporting.

Quickstart::

    from repro import compact_specification_tests
    from repro.opamp import OpAmpBench

    bench = OpAmpBench()
    result = compact_specification_tests(
        bench.generate_dataset(n_instances=300, seed=1),
        bench.generate_dataset(n_instances=150, seed=2),
        tolerance=0.02,
    )
    print(result.summary())
"""

__version__ = "1.0.0"

__all__ = [
    "CompactionPipeline",
    "compact_specification_tests",
    "Specification",
    "SpecificationSet",
    "SpecDataset",
    "TestFloor",
    "TestProgramArtifact",
    "__version__",
]

_LAZY_EXPORTS = {
    "CompactionPipeline": ("repro.core.pipeline", "CompactionPipeline"),
    "compact_specification_tests": (
        "repro.core.pipeline", "compact_specification_tests"),
    "Specification": ("repro.core.specs", "Specification"),
    "SpecificationSet": ("repro.core.specs", "SpecificationSet"),
    "SpecDataset": ("repro.process.dataset", "SpecDataset"),
    "TestFloor": ("repro.floor.engine", "TestFloor"),
    "TestProgramArtifact": ("repro.floor.artifact", "TestProgramArtifact"),
}


def __getattr__(name):
    """Lazily resolve the public API (keeps subpackages independent)."""
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            "module {!r} has no attribute {!r}".format(__name__, name))
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value
