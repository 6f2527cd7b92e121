"""Robust scatter-gather evaluation over a :class:`ShardedRingIndex`.

The coordinator is where the distributed-systems discipline lives; the
evaluation strategy itself is the simplest one that is *provably
correct* for subject-hash shards:

1. **Scatter per pattern** — each triple pattern of the BGP is a
   sub-query any shard can answer from its own partition alone.  A
   pattern whose subject is a constant routes to the single owning
   shard; every other pattern fans out to all shards.  Dispatches go
   through each shard's broker (bounded admission, watchdog) as a
   sub-:class:`~repro.core.system.Request` — the one pattern, no limit,
   and the deadline/op cap of a sub-budget of the parent
   :class:`~repro.reliability.budget.ResourceBudget`
   (:meth:`~repro.reliability.budget.ResourceBudget.sub_budget`).
2. **Gather with failure handling** — every shard call is failable:
   transient errors (admission sheds, endpoint down, injected faults,
   shard-side stalls) are retried under a bounded
   :class:`~repro.serving.breaker.RetryPolicy` whose backoff is clamped
   to the parent's remaining time; a per-shard
   :class:`~repro.serving.breaker.CircuitBreaker` refuses calls to a
   shard that keeps failing.  Shard ops are folded into the parent
   budget exactly once per attempt (:meth:`ResourceBudget.fold`).
3. **Local join** — the matched triples are reconstructed from the
   pattern bindings, unioned into a small local
   :class:`~repro.graph.dataset.Graph`, and the *full* BGP is joined
   locally by a fresh :class:`~repro.core.system.RingIndex`.  Joins
   therefore never depend on shard boundaries; sharding only
   distributes the *scan* work.
4. **Canonical order** — final rows are sorted by their canonical
   variable ids (:func:`repro.cache.canonical.canonicalize`), making
   the output deterministic, independent of gather timing and variable
   names, and therefore safe to cache byte-identically.  ``limit`` is
   applied after the sort; stopping at it is not a truncation.

**Partial-result contract.**  A shard that fails any of its sub-queries
(after retries / breaker refusal) is excluded *entirely*: the result
equals an exact evaluation over the union of the surviving shards'
partitions — a deterministic subset of the true answer, never a
half-shard mixture.  With ``partial=True`` that degraded result is
returned with ``truncated=True`` and a :class:`ShardReport` on
``result.shards`` naming exactly which shards answered; with
``partial=False`` (the default) the coordinator raises
:class:`ShardUnavailable` instead of silently under-reporting.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.cache.canonical import canonicalize
from repro.core.interface import (
    QueryCancelled,
    QueryError,
    QueryTimeout,
    UnsupportedQueryError,
)
from repro.core.system import (
    Countable,
    QueryResult,
    Request,
    RingIndex,
    admit_rows,
    finish,
)
from repro.graph.dataset import Graph
from repro.graph.model import BasicGraphPattern, Var
from repro.graph.parser import parse_bgp  # noqa: F401 - trace seam (ROADMAP item 15)
from repro.reliability.budget import ResourceBudget
from repro.serving.breaker import CircuitBreaker, RetryPolicy
from repro.serving.sharding import ShardedRingIndex

__all__ = ["ShardCoordinator", "ShardReport", "ShardUnavailable"]

#: Errors that indicate a broken *query*, not a broken shard — they
#: propagate immediately, are never retried, and never trip a breaker.
_PERMANENT_ERRORS = (UnsupportedQueryError, QueryCancelled, ValueError, TypeError)


class ShardUnavailable(QueryError):
    """A shard could not answer and the caller required complete results.

    Carries the failed shard ids in ``shard_ids``.
    """

    def __init__(self, message: str, shard_ids: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.shard_ids = tuple(shard_ids)


class ShardReport:
    """Which shards contributed to a result (``QueryResult.shards``).

    ``failovers`` names the shards whose :class:`ReplicaSet` transparently
    failed over to a secondary during this query — the answer is still
    complete and byte-identical; the report just makes the event visible.
    """

    __slots__ = ("answered", "failed", "retries", "complete", "failovers")

    def __init__(self, answered, failed, retries, failovers=()) -> None:
        self.answered = tuple(sorted(answered))
        self.failed = tuple(sorted(failed))
        self.retries = retries
        self.failovers = tuple(sorted(failovers))
        self.complete = not self.failed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "complete" if self.complete else "partial"
        return (
            f"ShardReport({kind}, answered={self.answered}, "
            f"failed={self.failed}, retries={self.retries}, "
            f"failovers={self.failovers})"
        )


# -- fault sites -------------------------------------------------------------
# Module-level indirection so the chaos harness can monkeypatch the exact
# seams a real transport would expose (see reliability/faults.py:
# ``shard.dispatch`` / ``shard.gather``).


def dispatch_shard(endpoint, request):
    """Submit one sub-request to one shard endpoint (fault site)."""
    return endpoint.submit(request)


def gather_block(future, timeout):
    """Collect one shard future (fault site)."""
    return future.result(timeout=timeout)


#: Waiting indefinitely on an unbudgeted shard call would turn a wedged
#: shard into a wedged coordinator; cap every gather instead.
DEFAULT_GATHER_TIMEOUT = 30.0


class ShardCoordinator(Countable):
    """Fault-tolerant scatter-gather front of a :class:`ShardedRingIndex`.

    Exposes the :meth:`~repro.core.system.BaseQuerySystem.evaluate`
    surface (so brokers, caches, and the CLI drop it in anywhere an
    index goes) plus the cache hooks ``cache_generation`` (the shard
    generation vector) and ``cache_plan_signature`` (constant — the
    coordinator's canonical sort makes row order plan-independent).

    Parameters
    ----------
    shards:
        The sharded index to coordinate.
    retry_policy:
        Backoff schedule for transient per-shard failures.
    breaker_factory:
        Zero-argument callable building one breaker per shard (defaults
        to ``CircuitBreaker()``); pass a lambda to tune thresholds or
        inject a test clock.
    shard_timeout:
        Optional per-dispatch deadline (seconds); always additionally
        clamped to the parent budget's remaining time.
    gather_timeout:
        Hard cap on any single gather wait (a wedged shard must not
        wedge the coordinator even on unbudgeted queries).
    """

    name = "ShardedRing"

    def __init__(
        self,
        shards: ShardedRingIndex,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_factory=None,
        shard_timeout: Optional[float] = None,
        gather_timeout: float = DEFAULT_GATHER_TIMEOUT,
    ) -> None:
        self.shards = shards
        self.retry_policy = retry_policy or RetryPolicy()
        make = breaker_factory or CircuitBreaker
        self.breakers = [make() for _ in range(shards.n_shards)]
        self.shard_timeout = shard_timeout
        self.gather_timeout = gather_timeout
        self._stats = {
            "queries": 0,
            "partial_results": 0,
            "shard_calls": 0,
            "shard_failures": 0,
            "retries": 0,
            "breaker_refusals": 0,
        }

    # -- delegation -----------------------------------------------------------

    @property
    def graph(self) -> Graph:
        return self.shards.graph

    def insert(self, s: int, p: int, o: int) -> bool:
        return self.shards.insert(s, p, o)

    def delete(self, s: int, p: int, o: int) -> bool:
        return self.shards.delete(s, p, o)

    def cache_generation(self):
        return self.shards.cache_generation()

    def cache_plan_signature(self, encoded) -> tuple:
        """Constant signature: the canonical sort makes the coordinator's
        row order independent of any engine plan, so the cache key needs
        no plan component (see ``CachedQuerySystem._key_info``)."""
        return ((), ())

    # -- evaluation ------------------------------------------------------------

    def evaluate(
        self,
        query,
        *,
        cancellation=None,
        budget: Optional[ResourceBudget] = None,
        **fields,
    ) -> QueryResult:
        """Distributed :meth:`BaseQuerySystem.evaluate` (same contract,
        plus the partial-result semantics documented on the module)."""
        self._stats["queries"] += 1
        request = Request.of(query, **fields)
        encoded = self.graph.encode_bgp(request.bgp)
        if budget is None:
            budget = request.budget(cancellation)
        if encoded is None:  # a constant is absent from the dictionary
            out = QueryResult()
            out.budget = budget
            out.shards = ShardReport(range(self.shards.n_shards), (), 0)
            return out

        failover_base = self._failover_snapshot()
        if request.limit == 0:
            # No row can be admitted, so no shard is asked; the local join
            # over nothing still honours a budget spent on entry.
            gathered = range(self.shards.n_shards), set(), 0, [], None
        else:
            gathered = self._scatter_gather(encoded, budget, request.partial)
        answered, failed, retries, triples, interrupted = gathered
        failovers = [
            sid
            for sid, (before, after) in enumerate(
                zip(failover_base, self._failover_snapshot())
            )
            if after > before
        ]
        if failed and not request.partial:
            raise ShardUnavailable(
                f"shards {sorted(failed)} unavailable and partial=False",
                shard_ids=sorted(failed),
            )

        out = self._local_join(encoded, triples, budget, request)
        out.shards = ShardReport(answered, failed, retries, failovers)
        if interrupted is not None and out.interrupted_by is None:
            out.interrupted_by = interrupted
        if failed:
            out.truncated = True
            if out.interrupted_by is None:
                out.interrupted_by = "shard-failure"
            self._stats["partial_results"] += 1
        return finish(self.graph, request, out)

    def _failover_snapshot(self) -> list[int]:
        """Per-shard replica-failover counters (0 for plain endpoints)."""
        return [
            int(getattr(ep, "failovers", 0)) for ep in self.shards.endpoints
        ]

    # -- scatter / gather ------------------------------------------------------

    def _scatter_gather(self, encoded, budget, partial):
        """Run every (pattern, shard) sub-query.

        Returns ``(answered, failed, retries, matched_triples,
        interrupted_or_None)``.  A shard that fails *any* of its
        sub-queries is excluded entirely (all its matches dropped) so
        the surviving data is the exact union of whole partitions.
        """
        tasks = []  # [shard_id, single-pattern BGP, first-attempt future]
        for pattern in encoded.patterns:
            single = BasicGraphPattern([pattern])
            for sid in self._targets(pattern):
                tasks.append([sid, single, None])

        failed: set[int] = set()
        retries = 0
        interrupted: Optional[str] = None
        try:
            budget.poll()  # a budget spent on entry dispatches nothing
        except (QueryTimeout, QueryCancelled) as exc:
            if not partial:
                raise
            interrupted = (
                "cancelled" if isinstance(exc, QueryCancelled) else "timeout"
            )
            failed.update(sid for sid, _single, _future in tasks)
        # First-attempt fan-out: one submit per task, every shard working
        # concurrently under its own broker before any gather blocks.
        for task in tasks:
            if task[0] not in failed:
                task[2] = self._try_dispatch(task[0], task[1], budget)

        rows_by_shard: dict[int, list] = {}
        for i, (sid, single, future) in enumerate(tasks):
            if sid in failed:
                continue
            try:
                rows, used = self._gather_with_retry(sid, single, future, budget)
            except (QueryTimeout, QueryCancelled) as exc:
                if not partial:
                    raise
                # The PARENT budget tripped: no time for the remaining
                # gathers either — collect only what is already done.
                interrupted = (
                    "cancelled" if isinstance(exc, QueryCancelled) else "timeout"
                )
                failed.add(sid)
                for later_sid, later_single, later_future in tasks[i + 1 :]:
                    if later_sid in failed:
                        continue
                    rows = self._drain_finished(later_future, budget)
                    if rows is None:
                        failed.add(later_sid)
                    else:
                        rows_by_shard.setdefault(later_sid, []).append(
                            (later_single.patterns[0], rows)
                        )
                break
            retries += used
            if rows is None:
                failed.add(sid)
            else:
                rows_by_shard.setdefault(sid, []).append((single.patterns[0], rows))

        answered = set(range(self.shards.n_shards)) - failed
        triples = {
            _bind_triple(pattern, row)
            for sid, blocks in rows_by_shard.items()
            if sid not in failed
            for pattern, rows in blocks
            for row in rows
        }
        return answered, failed, retries, triples, interrupted

    def _targets(self, pattern) -> list[int]:
        """Shards that can own matches of ``pattern``: the single owner
        when the subject is a constant, every shard otherwise."""
        if not isinstance(pattern.s, Var):
            return [self.shards.shard_for(int(pattern.s))]
        return list(range(self.shards.n_shards))

    def _try_dispatch(self, sid, single, budget):
        """One dispatch attempt; ``None`` when refused or failed (the
        gather phase owns retries for it).  The shard answers every match
        of the one pattern or fails: no limit, never ``partial``."""
        breaker = self.breakers[sid]
        if not breaker.allow():
            self._stats["breaker_refusals"] += 1
            return None
        self._stats["shard_calls"] += 1
        sub = budget.sub_budget(timeout=self.shard_timeout)
        try:
            return dispatch_shard(
                self.shards.endpoints[sid],
                Request(single, timeout=sub.timeout, max_ops=sub.max_ops),
            )
        except _PERMANENT_ERRORS:
            raise
        except Exception:
            self._stats["shard_failures"] += 1
            breaker.record_failure()
            return None

    def _gather_with_retry(self, sid, single, future, budget):
        """Collect one sub-query, retrying transient failures.

        Returns ``(rows, retries_used)``; rows is ``None`` when the
        shard is given up on.  Permanent conditions — the *parent*
        budget tripping (:class:`QueryTimeout`/:class:`QueryCancelled`),
        a broken query — propagate immediately.
        """
        breaker = self.breakers[sid]
        retries_used = 0
        delays = self.retry_policy.delays()
        while True:
            if future is not None:
                try:
                    result = gather_block(future, self._gather_deadline(budget))
                except _PERMANENT_ERRORS:
                    raise
                except QueryTimeout:
                    # The shard's sub-deadline fired.  When the parent is
                    # also out of time that is permanent (check() raises);
                    # otherwise the shard stalled — retry may reach a
                    # healthy incarnation.
                    budget.check()
                    self._stats["shard_failures"] += 1
                    breaker.record_failure()
                except Exception:
                    self._stats["shard_failures"] += 1
                    breaker.record_failure()
                else:
                    breaker.record_success()
                    if getattr(result, "budget", None) is not None:
                        budget.fold(result.budget)
                    return list(result), retries_used
            # This attempt failed (or the breaker refused the dispatch).
            delay = next(delays, None)
            if delay is None:
                return None, retries_used
            remaining = budget.remaining_time()
            if remaining is not None:
                budget.check()  # permanent when the parent expired
                delay = min(delay, remaining)
            if delay > 0:
                time.sleep(delay)
            budget.check()
            retries_used += 1
            self._stats["retries"] += 1
            future = self._try_dispatch(sid, single, budget)

    def _drain_finished(self, future, budget):
        """Non-blocking salvage of an already-completed first attempt
        (used when the parent budget trips mid-gather)."""
        if future is None or not future.done():
            return None
        try:
            result = future.result(timeout=0)
        except BaseException:
            return None
        if getattr(result, "budget", None) is not None:
            budget.fold(result.budget)
        return list(result)

    def _gather_deadline(self, budget) -> float:
        remaining = budget.remaining_time()
        if remaining is None:
            return self.gather_timeout
        # Slightly past the shard's own sub-deadline, so the shard-side
        # QueryTimeout (a classified, typed error) wins the race against
        # the raw concurrent.futures timeout.
        return min(self.gather_timeout, remaining + 0.05)

    # -- local join ------------------------------------------------------------

    def _local_join(self, encoded, triples, budget, request) -> QueryResult:
        """Join the gathered triples locally; canonically order rows."""
        if triples:
            arr = np.array(sorted(triples), dtype=np.int64)
        else:
            arr = np.empty((0, 3), dtype=np.int64)
        local_graph = Graph(
            arr,
            n_nodes=self.graph.n_nodes,
            n_predicates=self.graph.n_predicates,
        )
        local = RingIndex(local_graph)
        sub = budget.sub_budget()
        # No limit here: a pre-sort cutoff would make the output depend
        # on engine enumeration order, breaking canonical determinism.
        result = local.evaluate(encoded, budget=sub, partial=request.partial)
        budget.fold(sub)

        mapping = canonicalize(encoded).mapping
        order = sorted(mapping, key=lambda v: mapping[v])
        project = request.project
        keep = [v for v in order if v in set(project)] if project is not None else order
        rows = sorted(
            ({v: row[v] for v in keep if v in row} for row in result),
            key=lambda row: tuple(row.get(v, -1) for v in keep),
        )
        out = QueryResult()
        out.budget = budget
        admit_rows(
            out, rows, budget, request.limit, None if project is None else keep
        )
        out.truncated = result.truncated
        out.interrupted_by = result.interrupted_by
        return out

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        out = dict(self._stats)
        out["breakers"] = [b.stats() for b in self.breakers]
        out["shards"] = self.shards.stats()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardCoordinator({self.shards!r})"


def _bind_triple(pattern, row) -> tuple[int, int, int]:
    """Reconstruct the matched triple from a pattern and its bindings."""
    return tuple(
        int(row[term]) if isinstance(term, Var) else int(term)
        for term in pattern.terms
    )
