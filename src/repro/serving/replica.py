"""Primary/secondary replication of one shard partition.

A :class:`ReplicaSet` wraps N :class:`~repro.serving.endpoint.EngineEndpoint`
members holding *the same partition* and presents the single-endpoint
surface to the coordinator — replication is invisible above this layer
except for the ``failovers`` counter the
:class:`~repro.serving.coordinator.ShardReport` samples.  The set keeps
only routing, failover, write fan-out and catch-up; restarting dead
members is the :class:`~repro.serving.supervisor.ShardSupervisor`'s job,
under its one flap cap, exactly as for a solo shard.

**Reads** go to the primary; when the primary dies mid-call (an
:class:`~repro.serving.endpoint.EndpointDown` — process death, pipe
reset, engine gone) the set *fails over*: it promotes the next clean
live replica (module-level :func:`promote_replica`, fault site
``replica.failover``) and transparently resubmits, resolving the same
outer future.  Because every clean replica holds the identical
partition and the coordinator canonically sorts rows, a failed-over
answer is byte-identical to the one the dead primary would have
produced — complete, cacheable, no ``truncated`` flag.  Typed query
errors (timeout, rejection, bad query) are *not* failed over: they mean
the replica is up and the query itself is the problem, so they
propagate for the coordinator's retry/breaker machinery to handle.

**Freshness is an incarnation.**  A replica is *clean* only at the
incarnation it was last known to hold the partition at: its starting
one, or the one it was last caught up at.  Any restart — by the
supervisor, a RESTART command or a direct ``restart()`` on the member —
moves the incarnation and so makes the replica stale without anyone
marking it; a missed write (dead, or the write errored) marks it stale
too.  Stale replicas are excluded from reads until :meth:`catch_up`
reconciles them from a clean peer by triple-set diff (the durable
transports recover their own acknowledged prefix from the WAL, so the
diff only covers the missed tail).  A set with no clean live member
reports ``alive == False`` and the coordinator degrades to the
flagged-partial contract — replication narrows the failure window, it
never fabricates data.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Optional, Sequence

from repro.core.system import Request, Submitting
from repro.serving.endpoint import EndpointDown, generation_entry

__all__ = ["ReplicaSet", "promote_replica"]


def promote_replica(replica_set: "ReplicaSet", rid: int) -> None:
    """Make replica ``rid`` the primary (fault site ``replica.failover``)."""
    replica_set._set_primary(rid)


def _is_replica_death(exc: BaseException) -> bool:
    """Failures that mean *this replica* is gone (failover is sound),
    as opposed to typed query failures the replica answered with."""
    return isinstance(
        exc, (EndpointDown, EOFError, BrokenPipeError, ConnectionError)
    )


class ReplicaSet(Submitting):
    """N same-partition endpoints behind one endpoint surface.

    ``replicas`` are the member endpoints (any :class:`EngineEndpoint`
    transport; index 0 starts as primary), all holding the partition at
    their current incarnation.
    """

    def __init__(self, replicas: Sequence) -> None:
        self.replicas = list(replicas)
        if not self.replicas:
            raise ValueError("need at least one replica")
        self._lock = threading.RLock()
        self._write_lock = threading.Lock()
        self._primary = 0
        #: Per replica, the incarnation it is known clean at (``None``
        #: after a missed write).
        self._clean_at: list = [r.incarnation for r in self.replicas]
        self._counters = {
            "failovers": 0,
            "failover_errors": 0,
            "catch_ups": 0,
            "catch_up_failures": 0,
            "write_misses": 0,
        }

    # -- routing --------------------------------------------------------------

    @property
    def primary(self) -> int:
        with self._lock:
            return self._primary

    def _set_primary(self, rid: int) -> None:
        with self._lock:
            self._primary = rid

    def _stale(self, rid: int) -> bool:
        """Replica ``rid`` may lack writes: it missed one, or it has
        restarted since it was last known clean."""
        with self._lock:
            clean_at = self._clean_at[rid]
        return clean_at != self.replicas[rid].incarnation

    def _eligible(self, exclude=()) -> list[int]:
        """Clean live replica ids, primary first."""
        with self._lock:
            primary = self._primary
        order = [primary] + [
            rid for rid in range(len(self.replicas)) if rid != primary
        ]
        return [
            rid
            for rid in order
            if rid not in exclude
            and self.replicas[rid].alive
            and not self._stale(rid)
        ]

    # -- reads (submit + transparent failover) --------------------------------

    def submit(self, query, **fields) -> Future:
        """Submit a :class:`Request` (or ``query`` plus its fields) to
        the primary, failing over on replica death."""
        request = Request.of(query, **fields)
        outer: Future = Future()
        self._attempt(outer, request, tried=set())
        return outer

    def _attempt(self, outer: Future, request, tried: set) -> None:
        candidates = self._eligible(exclude=tried)
        if not candidates:
            outer.set_exception(
                EndpointDown("no live replica holds this partition")
            )
            return
        rid = candidates[0]
        with self._lock:
            primary = self._primary
        if rid != primary and primary not in candidates and primary not in tried:
            # The primary is ineligible (dead or dirty) before we even
            # submitted: promote the read target so the event is counted
            # and later queries route to the new primary directly.
            try:
                promote_replica(self, rid)
            except Exception:
                with self._lock:
                    self._counters["failover_errors"] += 1
                outer.set_exception(
                    EndpointDown("replica promotion failed; shard degraded")
                )
                return
            with self._lock:
                self._counters["failovers"] += 1
        tried.add(rid)
        try:
            inner = self.replicas[rid].submit(request)
        except Exception as exc:
            self._after_failure(outer, request, tried, rid, exc)
            return
        inner.add_done_callback(
            lambda f: self._on_inner_done(outer, request, tried, rid, f)
        )

    def _on_inner_done(self, outer, request, tried, rid, inner) -> None:
        exc = inner.exception()
        if exc is None:
            if not outer.done():
                outer.set_result(inner.result())
            return
        self._after_failure(outer, request, tried, rid, exc)

    def _after_failure(self, outer, request, tried, rid, exc) -> None:
        if not _is_replica_death(exc):
            if not outer.done():
                outer.set_exception(exc)
            return
        # This replica is gone.  Fail over when another clean live one
        # remains; otherwise surface the death (coordinator degrades to
        # the flagged-partial contract).
        candidates = self._eligible(exclude=tried)
        if not candidates:
            if not outer.done():
                outer.set_exception(exc)
            return
        if rid == self.primary:
            try:
                promote_replica(self, candidates[0])
            except Exception:
                # Failover itself failed (chaos site): degrade to a
                # plain shard failure — never a wrong answer.
                with self._lock:
                    self._counters["failover_errors"] += 1
                if not outer.done():
                    outer.set_exception(exc)
                return
        with self._lock:
            self._counters["failovers"] += 1
        self._attempt(outer, request, tried)

    # -- writes (fan-out + dirty tracking) ------------------------------------

    def insert(self, s: int, p: int, o: int) -> bool:
        return self._write("insert", (s, p, o))

    def delete(self, s: int, p: int, o: int) -> bool:
        return self._write("delete", (s, p, o))

    def _write(self, verb: str, triple) -> bool:
        with self._write_lock:
            results: dict[int, bool] = {}
            for rid, replica in enumerate(self.replicas):
                if not replica.alive:
                    self._mark_dirty(rid)
                    continue
                try:
                    results[rid] = bool(getattr(replica, verb)(*triple))
                except Exception:
                    self._mark_dirty(rid)
            if not results:
                raise EndpointDown("no replica accepted the write")
            primary = self.primary
            return results[primary] if primary in results else results[min(results)]

    def _mark_dirty(self, rid: int) -> None:
        with self._lock:
            if self._clean_at[rid] is not None:
                self._clean_at[rid] = None
                self._counters["write_misses"] += 1

    # -- catch-up (WAL-recovered replicas reconcile the missed tail) ----------

    def catch_up(self) -> int:
        """Reconcile every stale live replica from a clean live peer by
        set diff; returns how many were caught up.  Never raises: a
        failed catch-up is counted and the replica stays stale."""
        caught = 0
        for rid, replica in enumerate(self.replicas):
            if not (replica.alive and self._stale(rid)):
                continue
            sources = self._eligible(exclude=(rid,))
            if not sources:
                break  # no clean peer to copy from
            source = self.replicas[sources[0]]
            try:
                with self._write_lock:  # freeze writes while diffing
                    incarnation = replica.incarnation
                    want = {tuple(map(int, t)) for t in source.dump()}
                    have = {tuple(map(int, t)) for t in replica.dump()}
                    for t in have - want:
                        replica.delete(*t)
                    for t in want - have:
                        replica.insert(*t)
            except Exception:
                with self._lock:
                    self._counters["catch_up_failures"] += 1
                continue
            with self._lock:
                self._clean_at[rid] = incarnation
                self._counters["catch_ups"] += 1
            caught += 1
        return caught

    # -- lifecycle ------------------------------------------------------------

    def kill(self, rid: Optional[int] = None) -> None:
        """Crash one replica (default: the primary) — chaos lever."""
        self.replicas[self.primary if rid is None else rid].kill()

    def restart(self) -> None:
        """Restart every dead replica, then catch up every stale one
        (the RESTART lever; the supervisor restarts members itself)."""
        for replica in self.replicas:
            replica.restart()
        self.catch_up()

    def shutdown(self, checkpoint: bool = True) -> None:
        for replica in self.replicas:
            replica.shutdown(checkpoint=checkpoint)

    # -- the EngineEndpoint surface -------------------------------------------

    def health_check(self) -> bool:
        return any(
            self.replicas[rid].health_check() for rid in self._eligible()
        )

    @property
    def alive(self) -> bool:
        return bool(self._eligible())

    @property
    def incarnation(self) -> tuple:
        return tuple(r.incarnation for r in self.replicas)

    @property
    def failovers(self) -> int:
        """Total transparent read failovers (sampled by ShardReport)."""
        with self._lock:
            return self._counters["failovers"]

    @property
    def n_triples(self) -> int:
        eligible = self._eligible()
        return self.replicas[eligible[0]].n_triples if eligible else 0

    def dump(self) -> list[tuple[int, int, int]]:
        eligible = self._eligible()
        if not eligible:
            raise EndpointDown("no live replica holds this partition")
        return self.replicas[eligible[0]].dump()

    def cache_generation(self):
        """Per-replica generation vector with down/dirty markers.

        Any death, restart, promotion-relevant state change, or missed
        write perturbs the vector, so cached results keyed on it can
        only be invalidated too eagerly, never kept stale.
        """
        return tuple(
            ("dirty", r.incarnation)
            if r.alive and self._stale(rid)
            else generation_entry(r)
            for rid, r in enumerate(self.replicas)
        )

    def stats(self) -> dict:
        with self._lock:
            out = dict(self._counters, primary=self._primary)
        incarnation = self.incarnation
        out.update(
            alive=self.alive,
            incarnation=incarnation,
            restarts=list(incarnation),
            dirty=[self._stale(rid) for rid in range(len(self.replicas))],
            replicas=[r.stats() for r in self.replicas],
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        live = sum(r.alive for r in self.replicas)
        return (
            f"ReplicaSet({live}/{len(self.replicas)} live, "
            f"primary={self.primary}, failovers={self.failovers})"
        )
