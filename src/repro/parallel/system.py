""":class:`ParallelRingIndex` — the pool-backed drop-in ring system.

Construction builds the ordinary serial :class:`RingIndex` (or wraps a
prebuilt ring), registers the ring in this module's :data:`_RINGS`
under an integer token, and only then starts a :class:`TaskPool` whose
executor is :func:`run_slice`.  The pool's workers are forked, so each
one already holds the ring: the arrays sit at the parent's addresses,
in the pages the parent has (RAM, or the pack file's mapping), and a
slice task carries the token, never index data.  Workers respawned
after a crash are forked later from the same parent and inherit the
same ring.  At query time the driver:

1. computes the elimination order (the same cardinality-guided §4.3
   order the serial engine would use — every slice task carries it
   explicitly so every process runs the identical plan);
2. asks the slice planner for a balanced, boundary-snapped partition of
   the first variable's domain;
3. runs one slice task per slice on the pool, folding the tasks' op
   counts and engine stats back into the parent budget, and merges the
   blocks in slice order — the output is byte-identical to the serial
   enumeration, including the *prefix* semantics of ``partial=True``
   under timeout/cancellation.

A worker killed mid-query costs latency, never rows: the pool re-runs
its slices in this process through the same :func:`run_slice`, over
the same registered ring.  Whenever fanning out is impossible or
pointless — no shared join variable, fewer than two non-empty slices, a
pool that cannot run — the query silently runs on the inherited serial
engine instead: parallelism is an optimisation, never a requirement.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from repro.core.interface import QueryCancelled, QueryTimeout
from repro.core.iterators import RingIterator
from repro.core.ltj import LeapfrogTrieJoin
from repro.core.system import RingIndex
from repro.graph.dataset import Graph
from repro.graph.model import BasicGraphPattern, Var
from repro.parallel import pool as pool_mod
from repro.parallel.pool import (
    Block,
    PoolUnavailable,
    TaskError,
    TaskPool,
    cancel_token,
)
from repro.parallel.slices import plan_slices
from repro.reliability.budget import ResourceBudget

_SLICE_EXECUTOR = "repro.parallel.system:run_slice"

#: ``token -> ring`` of every open :class:`ParallelRingIndex`.  Filled
#: before the index's pool forks, so workers (and their respawns) find
#: the ring here by inheritance; the inline rescue reads the same entry.
_RINGS: dict = {}
_TOKENS = itertools.count()


def run_slice(task) -> Block:
    """Run one slice task: the serial engine restricted to one slice.

    ``task`` is ``(token, bgp, var_order, first_range, spec)``; ``spec``
    holds the engine options, the sub-budget (``timeout``, ``max_ops``,
    ``tick_mask``; cancellation comes from the pool's
    :func:`~repro.parallel.pool.cancel_token`), the row cap
    ``max_solutions`` and ``pin_first``.  Returns the block
    ``(status, rows, stats, ops)``: timeout, cancellation and errors are
    statuses, never exceptions, so a slice's partial rows reach the
    prefix merge.
    """
    token, bgp, var_order, first_range, spec = task
    ring = _RINGS[token]
    engine = LeapfrogTrieJoin(
        lambda pattern: RingIterator(ring, pattern), ring.n, **spec["engine"]
    )
    budget = ResourceBudget(
        timeout=spec["timeout"],
        max_ops=spec["max_ops"],
        token=cancel_token(),
        tick_mask=spec["tick_mask"],
    )
    rows: list[dict[Var, int]] = []
    stats: dict = {}
    status = "ok"
    max_rows = spec["max_solutions"]
    # Dynamic variable-selection policies: pin only the sliced first
    # variable and let every deeper depth re-rank, so this slice's
    # subtree enumeration matches the serial policy search node for node.
    pin_first = spec["pin_first"]
    try:
        if max_rows is None or max_rows > 0:
            for solution in engine.evaluate(
                bgp,
                timeout=budget,
                var_order=None if pin_first else var_order,
                stats=stats,
                first_range=first_range,
                first_var=var_order[0] if pin_first else None,
            ):
                rows.append(solution)
                # A capped block keeps status "ok": the parent never
                # consumes more than max_rows rows in total, so it
                # cannot need the tail this break abandons.
                if max_rows is not None and len(rows) >= max_rows:
                    break
    except QueryTimeout:
        status = "timeout"
    except QueryCancelled:
        status = "cancelled"
    except Exception as exc:  # reported through the block's status
        status = "error"
        stats["error"] = f"{type(exc).__name__}: {exc}"
    return (status, rows, stats, budget.ops)


class ParallelRingIndex(RingIndex):
    """LTJ over the ring, range-partitioned across worker processes.

    Parameters
    ----------
    workers:
        Worker processes to fork (each inherits the ring; nothing is
        copied).
    num_slices:
        Slices per query; defaults to ``2 * workers`` so the fastest
        worker picks up slack from skewed slices.

    Any ring fans out — plain, compressed (C-Ring) or memory-mapped —
    since workers read the parent's own copy.  The constructor builds a
    plain ring; :meth:`from_ring` wraps any other.
    """

    name = "ParallelRing"

    def __init__(
        self,
        graph: Graph,
        workers: int = 2,
        num_slices: Optional[int] = None,
        **engine_options,
    ) -> None:
        super().__init__(graph, compressed=False, **engine_options)
        self._start_pool(workers, num_slices, engine_options)

    @classmethod
    def from_ring(
        cls,
        ring,
        graph: Graph,
        *,
        workers: int = 2,
        num_slices: Optional[int] = None,
        **engine_options,
    ) -> "ParallelRingIndex":
        """Parallel driver over a prebuilt ring (no index construction).

        This is how ``ParallelRingIndex.load(path, mmap=True)`` serves a
        frozen pack: the forked workers inherit the parent's mapping of
        the pack, so a 100 GB index fans out across workers in
        O(working set) RAM, and they keep reading the file that was
        opened even if a new pack is later published at the same path.
        """
        index = RingIndex.from_ring.__func__(cls, ring, graph, **engine_options)
        index._start_pool(workers, num_slices, engine_options)
        return index

    def _start_pool(self, workers, num_slices, engine_options) -> None:
        """Register the ring, then fork the slice pool, every task
        running the parent's engine configuration; a pool that cannot
        start leaves the index degraded (every query runs serially)."""
        self._token = next(_TOKENS)
        self._engine_options = dict(engine_options)
        _RINGS[self._token] = self._ring
        self._workers = max(1, int(workers))
        self._num_slices = int(num_slices) if num_slices else 2 * self._workers
        try:
            self._pool: Optional[TaskPool] = TaskPool(
                _SLICE_EXECUTOR, workers=self._workers
            )
        except PoolUnavailable:
            self._pool = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def pool(self) -> Optional[TaskPool]:
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
        """Stop the workers and drop the ring's registration."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        _RINGS.pop(self._token, None)

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

        def serial():
            return self._engine.evaluate(
                bgp, timeout=budget, var_order=var_order, stats=stats
            )

        if pool is None:
            yield from serial()
            return

        # The engine's own preamble, so the parent, the planner and
        # every slice task agree on the same live iterators and order.
        analysed = self._engine._analyse(bgp, var_order)
        if analysed is None:
            return  # some pattern is unsatisfiable
        live, by_var, order, _lonely_by_iter = analysed

        # Dynamic policies: the sliced (and per-task pinned) first
        # variable is the policy's own depth-0 choice, so slice tasks
        # only re-rank depths >= 1 and the merged slices reproduce the
        # serial policy enumeration byte for byte.  Slices may diverge
        # in the deeper order — each re-ranks against its own narrowed
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
            yield from serial()
            return

        if budget.max_ops is not None:
            remaining_ops = max(budget.max_ops - budget.ops, 1)
            sub_ops = max(remaining_ops // len(plan.slices), 1)
        else:
            sub_ops = None
        if budget.row_demand is not None:
            # The parent consumes at most L raw rows total, so it can
            # never need more than L rows from any single block: capping
            # each slice at the remaining L preserves first-L-rows
            # identity while sparing workers the (possibly huge) slice
            # tail.  row_demand is only set when no dedup sits between
            # the stream and the consumer (see BaseQuerySystem.evaluate).
            sub_solutions = max(budget.row_demand - budget.solutions, 0)
        else:
            sub_solutions = None
        spec = {
            "engine": self._engine_options,
            "timeout": budget.remaining_time(),
            "max_ops": sub_ops,
            "tick_mask": budget.tick_mask,
            "max_solutions": sub_solutions,
            "pin_first": pin_first,
        }
        tasks = [(self._token, bgp, order, slc, spec) for slc in plan.slices]
        try:
            blocks = pool.run(tasks, budget=budget)
        except (PoolUnavailable, TaskError):
            yield from serial()
            return

        # Called through the module so the ``parallel.slice_merge``
        # chaos site (which patches the module attribute) intercepts it.
        rows, bad, merged_stats, slice_ops = pool_mod.merge_blocks(blocks)
        budget.ops += slice_ops  # fold the fan-out into the governor
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
