""":class:`ParallelRingIndex` — the pool-backed drop-in ring system.

Construction builds the ordinary serial :class:`RingIndex`, exports its
ring into shared memory once, and spawns the worker pool.  At query
time the driver:

1. computes the elimination order (the same cardinality-guided §4.3
   order the serial engine would use — workers receive it explicitly so
   every process runs the identical plan);
2. asks the slice planner for a balanced, boundary-snapped partition of
   the first variable's domain;
3. fans the slices out over the pool, folding worker op counts and
   engine stats back into the parent budget, and merges the blocks in
   slice order — the output is byte-identical to the serial
   enumeration, including the *prefix* semantics of ``partial=True``
   under timeout/cancellation.

Whenever fanning out is impossible or pointless — no shared join
variable, fewer than two non-empty slices, an unexportable ring, a
fully dead pool — the query silently runs on the inherited serial
engine instead: parallelism is an optimisation, never a requirement.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.interface import QueryCancelled, QueryTimeout
from repro.core.system import RingIndex
from repro.graph.dataset import Graph
from repro.graph.model import BasicGraphPattern, Var
from repro.parallel import pool as pool_mod
from repro.parallel.pool import PoolUnavailable, WorkerPool
from repro.parallel.shm import ShmExportError, export_ring
from repro.parallel.slices import plan_slices
from repro.reliability.budget import ResourceBudget


class ParallelRingIndex(RingIndex):
    """LTJ over the ring, range-partitioned across worker processes.

    Parameters
    ----------
    workers:
        Worker processes to spawn (each attaches the shared ring
        zero-copy).
    num_slices:
        Slices per query; defaults to ``2 * workers`` so the fastest
        worker picks up slack from skewed slices.
    start_method:
        ``multiprocessing`` start method (default ``fork``, overridable
        via ``REPRO_PARALLEL_START_METHOD``).

    Only the plain (uncompressed, plain-counts) ring is shareable;
    requesting a compressed one raises
    :class:`~repro.parallel.shm.ShmExportError` at construction.
    """

    name = "ParallelRing"

    def __init__(
        self,
        graph: Graph,
        workers: int = 2,
        num_slices: Optional[int] = None,
        start_method: Optional[str] = None,
        leap_memo_size: int = 1 << 16,
        **engine_options,
    ) -> None:
        super().__init__(
            graph, compressed=False, leap_memo_size=leap_memo_size, **engine_options
        )
        self._shared = export_ring(self._ring)
        self._start_pool(
            self._shared.handle, workers, num_slices, start_method, engine_options
        )

    @classmethod
    def from_ring(
        cls,
        ring,
        graph: Graph,
        *,
        workers: int = 2,
        num_slices: Optional[int] = None,
        start_method: Optional[str] = None,
        **engine_options,
    ) -> "ParallelRingIndex":
        """Parallel driver over a prebuilt ring (no index construction).

        This is how ``ParallelRingIndex.load(path, mmap=True)`` serves a
        frozen pack: a pack-backed ring skips the shm export entirely —
        workers map the pack *file* (:class:`~repro.parallel.shm.PackHandle`)
        and the page cache is the shared memory, so a 100 GB index fans
        out across workers in O(working set) RAM.  Rings without a pack
        behind them (shm-attached, hand-built) export as usual.
        """
        index = RingIndex.from_ring.__func__(cls, ring, graph, **engine_options)
        pack_path = getattr(ring, "_pack_path", None)
        if pack_path is not None and getattr(ring, "_pack_mmap", False):
            from repro.parallel.shm import PackHandle

            index._shared = None
            handle = PackHandle(pack_path)
        else:
            index._shared = export_ring(ring)
            handle = index._shared.handle
        index._start_pool(
            handle, workers, num_slices, start_method, engine_options
        )
        return index

    def _start_pool(
        self, handle, workers, num_slices, start_method, engine_options
    ) -> None:
        """Spawn the workers over ``handle``, each running the parent's
        engine configuration; a pool that cannot start leaves the index
        degraded (every query runs serially)."""
        self._workers = max(1, int(workers))
        self._num_slices = int(num_slices) if num_slices else 2 * self._workers
        try:
            self._pool: Optional[WorkerPool] = WorkerPool(
                handle,
                workers=self._workers,
                engine_opts=engine_options,
                start_method=start_method,
            )
        except PoolUnavailable:
            self._pool = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def pool(self) -> Optional[WorkerPool]:
        return self._pool

    def pool_stats(self) -> dict:
        """Worker-pool telemetry (empty when degraded to serial)."""
        return self._pool.stats() if self._pool is not None else {}

    def cache_generation(self) -> int:
        """Constant token: the frozen ring is immutable, so cached
        results never go stale.  A serving cache sits *above* the
        parallel driver — cached rows are served without touching the
        worker pool at all."""
        return 0

    def close(self) -> None:
        """Stop the workers and release the shared segment."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._shared is not None:
            self._shared.close()

    def __enter__(self) -> "ParallelRingIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- the parallel driver -------------------------------------------------

    def _solutions(
        self,
        bgp: BasicGraphPattern,
        timeout,
        var_order: Optional[Sequence[Var]] = None,
        stats: Optional[dict] = None,
    ) -> Iterable[dict[Var, int]]:
        budget = ResourceBudget.coerce(timeout)
        pool = self._pool
        if pool is None or not pool.alive:
            yield from self._engine.evaluate(
                bgp, timeout=budget, var_order=var_order, stats=stats
            )
            return

        # The engine's own preamble, so the parent, the planner and
        # every worker agree on the same live iterators and order.
        analysed = self._engine._analyse(bgp, var_order)
        if analysed is None:
            return  # some pattern is unsatisfiable
        live, by_var, order, _lonely_by_iter = analysed

        # Dynamic policies: the sliced (and per-worker pinned) first
        # variable is the policy's own depth-0 choice, so workers only
        # re-rank depths >= 1 and the merged slices reproduce the serial
        # policy enumeration byte for byte.  Slices may diverge in the
        # deeper order — each worker re-ranks against its own narrowed
        # ranges — but those choices are deterministic functions of the
        # shared ring state, identical to what the serial search decides
        # at the same node.
        pin_first = var_order is None and self._engine.policy != "static"
        if pin_first and order:
            v0 = self._engine.first_variable(order, by_var, stats)
            if v0 is not order[0]:
                order = [v0] + [v for v in order if v is not v0]

        plan = plan_slices(live, bgp, order, self._num_slices) if order else None
        if plan is None or not plan.viable:
            yield from self._engine.evaluate(
                bgp, timeout=budget, var_order=var_order, stats=stats
            )
            return

        def serial_fallback(first_range):
            # Dead-worker rescue: re-run the slice in this process,
            # charging the parent budget directly (its ticks are already
            # accounted, hence ops=0 in the returned block).
            rows: list = []
            slice_stats: dict = {}
            status = "ok"
            row_demand = getattr(budget, "row_demand", None)
            if row_demand is not None:
                # Same cap the pool hands its workers: the consumer never
                # needs more than the remaining row allowance from any
                # single slice, so a rescue may stop there too.
                max_rows = max(row_demand - budget.solutions, 0)
            else:
                max_rows = None
            try:
                if max_rows is None or max_rows > 0:
                    for solution in self._engine.evaluate(
                        bgp,
                        timeout=budget,
                        var_order=None if pin_first else order,
                        stats=slice_stats,
                        first_range=first_range,
                        first_var=order[0] if pin_first else None,
                    ):
                        rows.append(solution)
                        if max_rows is not None and len(rows) >= max_rows:
                            break
            except QueryTimeout:
                status = "timeout"
            except QueryCancelled:
                status = "cancelled"
            except Exception as exc:
                status = "error"
                slice_stats["error"] = f"{type(exc).__name__}: {exc}"
            return (status, rows, slice_stats, 0)

        try:
            blocks = pool.run_slices(
                bgp, order, plan.slices, budget, serial_fallback,
                pin_first=pin_first,
            )
        except PoolUnavailable:
            yield from self._engine.evaluate(
                bgp, timeout=budget, var_order=var_order, stats=stats
            )
            return

        # Called through the module so the ``parallel.slice_merge``
        # chaos site (which patches the module attribute) intercepts it.
        rows, bad, merged_stats, worker_ops = pool_mod.merge_blocks(blocks)
        budget.ops += worker_ops  # fold the fan-out into the governor
        if stats is not None:
            for key, value in merged_stats.items():
                if isinstance(value, (int, float)):
                    stats[key] = stats.get(key, 0) + value
            stats["slices"] = len(plan.slices)
        yield from rows
        if bad == "error":
            raise RuntimeError(
                "parallel worker failed: "
                + str(merged_stats.get("error", "unknown error"))
            )
        if bad is not None:
            # Prefer the parent's own verdict (it distinguishes a true
            # deadline from an external cancellation); fall back to the
            # slice's status when the parent governor is still fine
            # (e.g. a per-slice op sub-budget fired first).
            budget.check()
            if bad == "cancelled":
                raise QueryCancelled("query cancelled during parallel execution")
            raise QueryTimeout("resource budget exhausted during parallel execution")
