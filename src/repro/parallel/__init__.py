"""Parallel query execution over one read-only ring.

The ring is a frozen read-only structure (three wavelet matrices plus
three cumulative-count arrays), so a pool of forked worker *processes*
can read the parent's own copy and run disjoint pieces of the same LTJ
search — the parallelisation the paper's single-index-order design
invites.  Nothing is exported or copied: a worker inherits the ring
through ``fork`` and touches the parent's pages.

- :mod:`repro.parallel.slices` — split the first join variable's value
  domain into balanced, boundary-snapped ``[a, b)`` slices.
- :mod:`repro.parallel.pool` — the one process pool (:class:`TaskPool`):
  per-worker task queues, a shared cancellation flag, inline rescue of
  dead workers' tasks; the bulk builder runs on it too.
- :mod:`repro.parallel.system` — :class:`ParallelRingIndex`, the
  drop-in :class:`~repro.core.system.RingIndex` that runs each query as
  slice tasks (:func:`~repro.parallel.system.run_slice`) on the pool and
  merges their blocks deterministically.
"""

from repro.parallel.slices import SlicePlan, plan_slices
from repro.parallel.pool import TaskError, TaskPool, merge_blocks
from repro.parallel.system import ParallelRingIndex

__all__ = [
    "ParallelRingIndex",
    "SlicePlan",
    "TaskError",
    "TaskPool",
    "merge_blocks",
    "plan_slices",
]
