"""The process pool the bulk builder runs its passes on.

- :mod:`repro.parallel.pool` — :class:`TaskPool`: forked workers with
  per-worker task queues, one module-level executor resolved per task,
  inline rescue of dead workers' tasks and respawn after the batch.
  :mod:`repro.graph.bulkload` runs its wavelet, counts and shard tasks
  on it.
"""

from repro.parallel.pool import PoolUnavailable, TaskError, TaskPool

__all__ = ["PoolUnavailable", "TaskError", "TaskPool"]
