"""High-level one-call API for specification test compaction.

:class:`CompactionPipeline` bundles the configuration of the greedy
compactor, and :func:`compact_specification_tests` is the single entry
point used by the quickstart example::

    from repro import compact_specification_tests
    result = compact_specification_tests(train, test, tolerance=0.01)
    print(result.summary())
"""

from repro.core.compaction import TestCompactor
from repro.core.grid import GridCompactor
from repro.errors import CompactionError


class CompactionPipeline:
    """Configuration facade over :class:`~repro.core.compaction.TestCompactor`.

    Parameters mirror :class:`TestCompactor`, plus:

    grid_resolution:
        When set, training data is grid-compacted at this resolution
        before every model fit (paper Section 4.3).
    """

    def __init__(self, tolerance=0.01, guard_band=0.05, order=None,
                 model_factory=None, grid_resolution=None,
                 count_guard_as_error=False, min_kept=1, n_jobs=1):
        grid = (GridCompactor(grid_resolution)
                if grid_resolution is not None else None)
        self.compactor = TestCompactor(
            tolerance=tolerance,
            guard_band=guard_band,
            order=order,
            model_factory=model_factory,
            grid_compactor=grid,
            count_guard_as_error=count_guard_as_error,
            min_kept=min_kept,
            n_jobs=n_jobs,
        )

    def run(self, train, test):
        """Run the greedy compaction; returns a ``CompactionResult``.

        ``train`` / ``test`` may be in-RAM
        :class:`~repro.process.dataset.SpecDataset` objects or sharded
        :class:`~repro.data.store.ShardedSpecDataset` stores; sharded
        inputs are materialized through ``to_dataset()``, which is
        bit-identical to the in-RAM generation of the same rows (the
        compaction search re-slices the training set per candidate, so
        it runs on the materialized form).
        """
        if hasattr(train, "to_dataset"):
            train = train.to_dataset()
        if hasattr(test, "to_dataset"):
            test = test.to_dataset()
        return self.compactor.run(train, test)

    def run_simulated(self, dut, n_train, n_test, seed=0, sim_jobs=None,
                      dataset_root=None):
        """Paper Fig. 1 end to end: simulate the populations, then run.

        The training population is generated with ``seed`` and the
        held-out population with ``seed + 1``, one
        :func:`repro.process.montecarlo.generate_dataset` call each,
        fanned out over ``sim_jobs`` workers -- the result is
        identical at any ``sim_jobs``.

        ``dataset_root`` sources both populations from manifested
        shard stores under that directory instead
        (:func:`repro.data.ensure_dataset`): existing rows are
        memory-mapped and only the shortfall is simulated, and the
        rows are bit-identical to the direct generation.
        """
        if dataset_root is not None:
            from repro.data import ensure_dataset

            train = ensure_dataset(dataset_root, dut, n_train, seed,
                                   n_jobs=sim_jobs).head(n_train)
            test = ensure_dataset(dataset_root, dut, n_test, seed + 1,
                                  n_jobs=sim_jobs).head(n_test)
            return self.run(train, test)
        from repro.process.montecarlo import generate_dataset

        train = generate_dataset(dut, n_train, seed, n_jobs=sim_jobs)
        test = generate_dataset(dut, n_test, seed + 1, n_jobs=sim_jobs)
        return self.run(train, test)

    def deploy(self, train, test, cost_model=None, device=None,
               train_seed=None, lookup_resolution=None,
               extra_provenance=None):
        """Compact and package for the production floor.

        Runs :meth:`run` and wraps the result in a
        :class:`~repro.floor.artifact.TestProgramArtifact` (drift
        baseline from ``train``, provenance header, optional lookup
        table and cost model).  Returns ``(result, artifact)``; call
        ``artifact.save(path)`` to ship it and
        :class:`repro.floor.engine.TestFloor` to serve it.
        """
        from repro.floor.artifact import TestProgramArtifact

        result = self.run(train, test)
        artifact = TestProgramArtifact.from_result(
            result, train, cost_model=cost_model, device=device,
            train_seed=train_seed, lookup_resolution=lookup_resolution,
            extra_provenance=extra_provenance)
        return result, artifact

    def run_many(self, pairs):
        """Batch-compact ``(train, test)`` pairs, in input order.

        Delegates to :meth:`~repro.core.compaction.TestCompactor.run_many`.
        """
        return self.compactor.run_many(pairs)

    def evaluate_elimination(self, train, test, eliminated):
        """Evaluate one fixed eliminated set (no greedy search).

        Returns ``(model, report)``; used for block experiments such
        as the MEMS hot/cold elimination of paper Table 3.
        """
        return self.compactor.evaluate_subset(train, test, eliminated)


def compact_specification_tests(train, test, tolerance=0.01,
                                guard_band=0.05, order=None,
                                model_factory=None, grid_resolution=None,
                                count_guard_as_error=False, n_jobs=1):
    """Compact a specification test set with statistical learning.

    Parameters
    ----------
    train, test:
        :class:`~repro.process.dataset.SpecDataset` pairs measured
        against the complete specification set (training data builds
        the models; test data estimates their prediction error).
    tolerance:
        User error tolerance ``e_T`` (fraction of all devices).
    guard_band:
        Guard-band half-width as a fraction of each acceptability
        range.
    order:
        Examination order (strategy object, name sequence or ``None``).
    model_factory:
        Override the underlying classifier.
    grid_resolution:
        Optional training-data grid compaction resolution.
    count_guard_as_error:
        Count guard-band devices toward the acceptance error.
    n_jobs:
        Worker processes for speculative candidate evaluation (see
        :class:`~repro.core.compaction.TestCompactor`); the result is
        the same at any value.

    Returns
    -------
    CompactionResult
    """
    if len(train) == 0 or len(test) == 0:
        raise CompactionError("train and test datasets must be non-empty")
    pipeline = CompactionPipeline(
        tolerance=tolerance, guard_band=guard_band, order=order,
        model_factory=model_factory, grid_resolution=grid_resolution,
        count_guard_as_error=count_guard_as_error, n_jobs=n_jobs)
    return pipeline.run(train, test)
