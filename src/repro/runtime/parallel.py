"""Process-pool plumbing shared by compaction and generation.

The speculative compactor (:mod:`repro.core.compaction`) and the
Monte-Carlo scheduler (:mod:`repro.runtime.simulation`) build their
pools here, so worker-count resolution and pool construction are
decided in exactly one place.  Everything shipped to a worker must be
picklable; module-level task functions plus an ``initializer`` that
parks large shared state (datasets, compactor configuration) in a
worker global keep the per-task payload small.
"""

import os
from concurrent.futures import ProcessPoolExecutor

from repro.errors import CompactionError


def cpu_count():
    """Usable CPU count (``os.cpu_count`` with a floor of 1)."""
    return max(1, os.cpu_count() or 1)


def resolve_n_jobs(n_jobs):
    """Normalize an ``n_jobs`` request to a positive worker count.

    ``None`` and ``1`` mean serial; ``-1`` (or any negative value)
    means one worker per CPU; positive integers pass through.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        raise CompactionError("n_jobs must not be 0 (use 1 for serial)")
    if n_jobs < 0:
        return cpu_count()
    return n_jobs


def make_pool(n_jobs, initializer=None, initargs=()):
    """A :class:`ProcessPoolExecutor` with ``n_jobs`` workers.

    The caller is responsible for using it as a context manager (or
    calling ``shutdown``).  Callers must check ``n_jobs > 1`` first;
    asking for a pool of one is almost always a mistake, so it raises.
    """
    n_jobs = resolve_n_jobs(n_jobs)
    if n_jobs <= 1:
        raise CompactionError("make_pool needs n_jobs > 1")
    return ProcessPoolExecutor(max_workers=n_jobs,
                               initializer=initializer,
                               initargs=initargs)

