"""Performance observability the engine itself imports.

- :mod:`repro.perf.counters` — :data:`KERNEL_COUNTERS`, a process-global
  registry of per-kernel call/op/time counters
  (:class:`KernelCounters`) recorded by the batch kernels when enabled,
  plus the ``plan.*`` planner events;
- :mod:`repro.perf.hostmeta` — ``peak_rss_bytes()``, the high-water
  mark the out-of-core builder reports per worker.

Op accounting composes with the reliability layer: a batch call that
performs ``k`` logical lookups charges ``k`` ops to the active
:class:`~repro.reliability.budget.ResourceBudget` (via ``tick_many``)
exactly as ``k`` scalar calls would, so op budgets, timeouts and
cancellation behave identically on both paths.

Timing lives outside ``src/``: ``benchmarks/e2e/`` (declared by
``BENCHMARK.json``) reads these counters for its per-layer metrics.
"""

from repro.perf.counters import KERNEL_COUNTERS, KernelCounters, measuring

__all__ = ["KERNEL_COUNTERS", "KernelCounters", "measuring"]
