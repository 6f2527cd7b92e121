"""Per-kernel operation/time counters for the succinct hot paths.

A *kernel* is one named primitive of the succinct stack — e.g.
``bits.step_many`` or ``wavelet.extract_at`` — and every batch
implementation reports three numbers per call when measurement is on:

- ``calls``   — Python-level invocations (what the interpreter paid);
- ``ops``     — logical scalar-equivalent lookups served (what a scalar
  implementation would have paid, and what the
  :class:`~repro.reliability.budget.ResourceBudget` is charged);
- ``seconds`` — wall-clock time inside the kernel.

``ops / calls`` is therefore the vectorisation factor actually achieved
on a workload (``benchmarks/e2e`` reports it as
``sequences.wavelet_matrix.batch_ops_per_call``), and ``ops / seconds``
the kernel throughput.

Measurement is **off by default** and costs one attribute check per
kernel call when off.  Turn it on around a region with
:func:`measuring`::

    with measuring() as counters:
        index.evaluate(query)
    print(counters.snapshot())

The registry is process-global (like the fault-injection registry in
:mod:`repro.reliability.faults`) so the kernels need no plumbing; it is
not thread-safe — enable it from one measuring thread at a time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class KernelCounters:
    """Registry of per-kernel ``calls`` / ``ops`` / ``seconds`` totals."""

    __slots__ = ("enabled", "_calls", "_ops", "_seconds")

    def __init__(self) -> None:
        self.enabled = False
        self._calls: dict[str, int] = {}
        self._ops: dict[str, int] = {}
        self._seconds: dict[str, float] = {}

    def reset(self) -> None:
        """Drop every recorded total (measurement flag untouched)."""
        self._calls.clear()
        self._ops.clear()
        self._seconds.clear()

    def record(self, kernel: str, ops: int, seconds: float = 0.0) -> None:
        """Account one kernel call serving ``ops`` logical lookups."""
        self._calls[kernel] = self._calls.get(kernel, 0) + 1
        self._ops[kernel] = self._ops.get(kernel, 0) + int(ops)
        self._seconds[kernel] = self._seconds.get(kernel, 0.0) + seconds

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, float]]:
        """``{kernel: {calls, ops, seconds, ops_per_call}}``, sorted."""
        out: dict[str, dict[str, float]] = {}
        for kernel in sorted(self._calls):
            calls = self._calls[kernel]
            ops = self._ops[kernel]
            out[kernel] = {
                "calls": calls,
                "ops": ops,
                "seconds": self._seconds[kernel],
                "ops_per_call": ops / calls if calls else 0.0,
            }
        return out

    def ops(self, kernel: str) -> int:
        """Total logical ops recorded for ``kernel`` (0 if never seen)."""
        return self._ops.get(kernel, 0)

    def calls(self, kernel: str) -> int:
        """Total calls recorded for ``kernel`` (0 if never seen)."""
        return self._calls.get(kernel, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"KernelCounters({state}, kernels={len(self._calls)})"


#: The process-global registry the batch kernels report into.
KERNEL_COUNTERS = KernelCounters()


@contextmanager
def measuring(reset: bool = True) -> Iterator[KernelCounters]:
    """Enable :data:`KERNEL_COUNTERS` for the duration of the block."""
    if reset:
        KERNEL_COUNTERS.reset()
    previous = KERNEL_COUNTERS.enabled
    KERNEL_COUNTERS.enabled = True
    try:
        yield KERNEL_COUNTERS
    finally:
        KERNEL_COUNTERS.enabled = previous


def timed_record(kernel: str, ops: int, started: float) -> None:
    """Record ``kernel`` with wall time since ``started`` (perf_counter)."""
    KERNEL_COUNTERS.record(kernel, ops, time.perf_counter() - started)


def event(kernel: str, ops: int = 1) -> None:
    """Count an untimed event iff measurement is on.

    The cache layer reports its outcomes through this — ``cache.hit`` /
    ``cache.miss`` / ``cache.store`` / ``cache.evict`` /
    ``cache.coalesced`` — so one :func:`measuring` block captures the
    serving stack end to end alongside the succinct kernels.
    """
    if KERNEL_COUNTERS.enabled:
        KERNEL_COUNTERS.record(kernel, ops)
