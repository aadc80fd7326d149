"""The Monte-Carlo training-data generation loop (paper Fig. 1).

``generate_dataset`` repeatedly: samples a process-perturbed parameter
set, sets up and simulates the device, takes the specification
measurements and stores them -- until the requested number of training
instances is reached.  Each population is one call; the scheduler
behind it is :func:`repro.runtime.simulation.generate_instance_batches`.

Seeding
-------

Every instance slot draws from its own child stream of
``numpy.random.SeedSequence(seed)`` (resamples after simulation
failures stay inside the slot's stream).  Results are a pure function
of ``(dut, seed, slot)``, so generation parallelizes across processes
(``n_jobs``) with **bit-identical output at any worker count**, and
the first ``k`` rows of an ``n``-instance run equal a ``k``-instance
run.  See :mod:`repro.runtime.simulation` for the engine.

The DUT protocol
----------------

Any object with these three members can be used as a device under test:

``specifications``
    A :class:`~repro.core.specs.SpecificationSet` naming the measured
    columns and their acceptability ranges.
``sample_parameters(rng)``
    Draw one process-disturbed parameter object.
``measure(params)``
    Simulate the instance and return a 1-D value array aligned with
    ``specifications``.
``measure_batch(params_list)`` (optional)
    Simulate many instances at once, returning one entry per input:
    either a value row or the :class:`~repro.errors.ReproError` that
    instance's ``measure`` would have raised.  ``measure_batch`` is
    used when present: generation then routes whole slot waves through
    it (for the real benches, the vectorized MNA kernel of
    :mod:`repro.circuit.batch`), so the produced dataset must be
    identical to ``measure`` per instance.  Without it, every slot is
    simulated through ``measure``.

:class:`repro.opamp.OpAmpBench` and :class:`repro.mems.AccelerometerBench`
implement it; so can user-provided devices.  For parallel generation
both members must be pure functions (workers operate on pickled DUT
copies).
"""

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.process.dataset import SpecDataset

def default_max_failures(n_instances):
    """The documented default failure budget of a generation run."""
    return max(10, n_instances // 10)


@dataclass
class GenerationReport:
    """Bookkeeping for one Monte-Carlo generation run.

    ``n_failed`` is the authoritative failure count; ``failures``
    retains only the most recent :data:`MAX_STORED_FAILURES` messages
    so a pathological DUT in a million-instance run cannot grow an
    unbounded list.  ``elapsed_s`` is the wall-clock spent simulating
    (stamped by every generation entry point), so benches, the CLI
    ``dataset`` commands and the shard stores of :mod:`repro.data` all
    report throughput from the same figure.
    """

    n_requested: int
    n_simulated: int = 0
    n_failed: int = 0
    failures: list = field(default_factory=list)
    elapsed_s: float = 0.0

    #: Cap on retained failure messages (count is never capped).
    MAX_STORED_FAILURES = 50

    @property
    def instances_per_minute(self):
        """Generation throughput (0.0 until ``elapsed_s`` is stamped)."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return 60.0 * self.n_requested / self.elapsed_s

    def record_failure(self, message):
        """Count one failure, keeping at most the newest messages."""
        self.n_failed += 1
        self.failures.append(message)
        if len(self.failures) > self.MAX_STORED_FAILURES:
            del self.failures[:len(self.failures)
                              - self.MAX_STORED_FAILURES]

    def __str__(self):
        return ("GenerationReport(requested={}, simulated={}, "
                "failed={}, {:.0f} inst/min)".format(
                    self.n_requested, self.n_simulated, self.n_failed,
                    self.instances_per_minute))


class BatchPopulation:
    """Per-instance bookkeeping for ``measure_batch`` implementations.

    The DUT protocol's batched hook must confine every failure --
    parameter validation, circuit build, batched solve, measurement
    extraction -- to its own instance, mirroring what the scalar
    ``measure`` would have raised for that instance alone.  This
    helper centralizes that pattern (both real benches use it):
    ``values[k]`` accumulates instance ``k``'s measurements and
    ``errors[k]`` its first failure; an instance with an error drops
    out of every subsequent stage.
    """

    def __init__(self, n):
        self.values = [dict() for _ in range(n)]
        self.errors = [None] * n

    def live(self):
        """Indices of instances with no recorded failure, in order."""
        return [k for k in range(len(self.errors))
                if self.errors[k] is None]

    def build(self, factory, items):
        """``factory(items[k])`` per live instance, failures confined.

        Returns ``(keys, objects)``: the instance indices that built
        successfully and the built objects, aligned.
        """
        keys, objects = [], []
        for k in self.live():
            try:
                objects.append(factory(items[k]))
            except ReproError as exc:
                self.errors[k] = exc
            else:
                keys.append(k)
        return keys, objects

    def absorb(self, keys, batch_errors):
        """Record per-instance batch failures; returns surviving keys."""
        survivors = []
        for pos, k in enumerate(keys):
            if batch_errors[pos] is not None:
                self.errors[k] = batch_errors[pos]
            else:
                survivors.append(k)
        return survivors

    def extract(self, k, fn, *args):
        """Run one instance's measurement extraction, failure-confined."""
        try:
            self.values[k].update(fn(*args))
        except ReproError as exc:
            self.errors[k] = exc

    def rows(self, names):
        """One value row (or the instance's first error) per instance."""
        out = []
        for k in range(len(self.errors)):
            if self.errors[k] is not None:
                out.append(self.errors[k])
            else:
                out.append(np.array([self.values[k][name]
                                     for name in names]))
        return out


def generate_dataset(dut, n_instances, seed, on_error="resample",
                     max_failures=None, return_report=False,
                     n_jobs=None):
    """Generate a labeled Monte-Carlo :class:`SpecDataset` for ``dut``.

    Parameters
    ----------
    dut:
        Device under test implementing the DUT protocol (see module
        docstring).
    n_instances:
        Number of device instances in the returned dataset.
    seed:
        Non-negative integer seed for the random process disturbances;
        generation is fully reproducible (see the module docstring).
    on_error:
        ``"resample"`` (default): when a simulation fails to converge
        or a measurement cannot be extracted, record the failure and
        draw a fresh instance.  ``"raise"``: propagate the first error.
    max_failures:
        Abort (raise) at exactly this many failures (at least 1) with
        ``"resample"``; defaults to ``max(10, n_instances // 10)``.
    return_report:
        When True, return ``(dataset, GenerationReport)``.
    n_jobs:
        Worker processes for the instance simulations (``None``/``1``
        serial, ``-1`` one per CPU); the result is bit-identical at
        any worker count.

    Returns
    -------
    SpecDataset or (SpecDataset, GenerationReport)

    A bad size, seed, budget or ``on_error`` raises
    :class:`~repro.errors.DatasetError` from the scheduler,
    :func:`repro.runtime.simulation.generate_instance_batches`.
    """
    from repro.runtime.simulation import generate_instances

    values, report = generate_instances(
        dut, n_instances, seed, n_jobs=n_jobs, on_error=on_error,
        max_failures=max_failures)
    dataset = SpecDataset(dut.specifications, values)
    if return_report:
        return dataset, report
    return dataset
