"""Shard supervision: health checks and automatic restart.

A :class:`ShardSupervisor` is a daemon thread that periodically probes
every member endpoint of a
:class:`~repro.serving.sharding.ShardedRingIndex` (``alive`` +
``health_check``) and restarts any member found dead.  A member is a
solo shard's endpoint, or each replica of a
:class:`~repro.serving.replica.ReplicaSet`: the supervisor is the one
restart policy, with one flap cap, whatever the transport.  For durable
shards a restart goes through the factory's
``DurableDynamicRing.recover`` path (a respawn through WAL recovery for
a process shard), so the member comes back with every acknowledged
write and a bumped ``incarnation`` — the coordinator's half-open
breaker probes then find a healthy engine and re-close the circuit, and
the cache layer's shard-generation vector changes so no stale entry
survives the crash.  A restarted replica is stale by its new
incarnation, so each sweep ends by asking the set to catch it up.

The actual restart goes through the module-level :func:`restart_shard`
(fault site ``shard.restart``), so chaos drills can make *recovery
itself* fail and assert the supervisor degrades to counting the failure
rather than dying.  A restart counts only when the member's incarnation
moved: restarting a member that is alive but fails its probe is a no-op
in every transport, and must not spend the flap cap.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.serving.replica import ReplicaSet
from repro.serving.sharding import ShardedRingIndex

__all__ = ["ShardSupervisor", "restart_shard"]


def restart_shard(endpoint) -> None:
    """Restart one dead endpoint (fault site ``shard.restart``)."""
    endpoint.restart()


def _members(endpoint) -> list:
    """The endpoints a shard restarts: a set's replicas, else itself."""
    return endpoint.replicas if isinstance(endpoint, ReplicaSet) else [endpoint]


class ShardSupervisor:
    """Health-check loop over a sharded index's endpoints.

    Parameters
    ----------
    shards:
        The sharded index to supervise.
    interval:
        Seconds between sweeps.
    max_restarts:
        Per-member cap on automatic restarts (``None`` = unbounded); a
        member that keeps dying past the cap is left down — flapping
        engines must not turn the supervisor into a crash loop.
    """

    def __init__(
        self,
        shards: ShardedRingIndex,
        interval: float = 0.05,
        max_restarts: Optional[int] = None,
    ) -> None:
        self.shards = shards
        self.interval = interval
        self.max_restarts = max_restarts
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._checks = 0
        #: Per shard, restarts per member.
        self._restarts = [[0] * len(_members(ep)) for ep in shards.endpoints]
        self._failed_restarts = [0] * shards.n_shards

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        if self._thread is not None:
            raise RuntimeError("supervisor already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="shard-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the sweep -----------------------------------------------------------

    def sweep(self) -> int:
        """One supervision pass; returns how many members were restarted.

        Public so tests (and synchronous callers) can drive supervision
        deterministically without the background thread.
        """
        restarted = 0
        with self._lock:
            self._checks += 1
        for sid, endpoint in enumerate(self.shards.endpoints):
            for mid, member in enumerate(_members(endpoint)):
                restarted += self._revive(sid, mid, member)
            if isinstance(endpoint, ReplicaSet):
                endpoint.catch_up()
        return restarted

    def _revive(self, sid: int, mid: int, member) -> int:
        if member.alive and member.health_check():
            return 0
        with self._lock:
            if (
                self.max_restarts is not None
                and self._restarts[sid][mid] >= self.max_restarts
            ):
                return 0
        incarnation = member.incarnation
        try:
            restart_shard(member)
        except Exception:
            with self._lock:
                self._failed_restarts[sid] += 1
            return 0
        if member.incarnation == incarnation:
            return 0  # alive but unhealthy: restart was a no-op
        with self._lock:
            self._restarts[sid][mid] += 1
        return 1

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.sweep()
            except Exception:  # pragma: no cover - keep the thread alive
                pass
            self._stop.wait(self.interval)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "running": self._thread is not None,
                "checks": self._checks,
                "restarts": [sum(counts) for counts in self._restarts],
                "failed_restarts": list(self._failed_restarts),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._thread is not None else "stopped"
        restarts = sum(map(sum, self._restarts))
        return f"ShardSupervisor({state}, restarts={restarts})"
