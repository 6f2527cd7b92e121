"""Transport-agnostic shard endpoints.

The coordinator (:mod:`repro.serving.coordinator`) never talks to an
engine or a :class:`~repro.reliability.broker.QueryBroker` directly; it
talks to an :class:`EngineEndpoint` — the minimal failable surface of a
shard.  The interface is deliberately the *broker's* intake surface
(``submit`` returning a future, ``stats``), so every transport
implements the same methods and the coordinator, breaker, and
supervisor stay transport-blind.

:class:`InProcessEndpoint` is the one place a shard's engine and broker
live: a factory-constructed engine (typically a
:class:`~repro.reliability.wal.DurableDynamicRing`, so restarts recover
through the WAL) behind its own private broker.  A process shard
(:mod:`repro.serving.process`) serves one over its pipe, and a replica
set (:mod:`repro.serving.replica`) routes across several.  It adds the
lifecycle the supervisor needs — :meth:`kill` to simulate a crash
(chaos drills, tests), :meth:`restart` to rebuild engine + broker
through the factory, an ``incarnation`` counter that bumps on every
restart (feeding the shard-generation vector the cache layer
invalidates on), and :meth:`health_check` for the supervisor's probe
loop.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable, Optional, Protocol, runtime_checkable

from repro.core.system import Request, Submitting
from repro.reliability.broker import QueryBroker, QueryRejected

__all__ = ["EngineEndpoint", "EndpointDown", "InProcessEndpoint", "generation_entry"]


class EndpointDown(QueryRejected):
    """The endpoint's engine is not running (crashed or shut down).

    A :class:`~repro.reliability.broker.QueryRejected` subtype: the
    coordinator treats it as a transient, retryable shard failure, and
    front ends map it to load shedding rather than a query bug.
    """


@runtime_checkable
class EngineEndpoint(Protocol):
    """What the coordinator requires of a shard, transport aside.

    ``submit`` mirrors :meth:`QueryBroker.submit` for one
    :class:`~repro.core.system.Request` (synchronous typed rejection,
    future of the result); ``alive``/``health_check`` feed the breaker
    and the supervisor; ``incarnation`` distinguishes restarts of the
    same shard for cache invalidation.
    """

    def submit(self, request: Request) -> Future: ...

    def health_check(self) -> bool: ...

    @property
    def alive(self) -> bool: ...

    @property
    def incarnation(self) -> int: ...

    def stats(self) -> dict: ...


def generation_entry(endpoint) -> tuple:
    """One endpoint's slot in a generation vector: ``("down",
    incarnation)`` while it is dead, else ``(incarnation,
    engine_generation)`` — any write, crash or restart changes it."""
    if not endpoint.alive:
        return ("down", endpoint.incarnation)
    return (endpoint.incarnation, endpoint.cache_generation())


class InProcessEndpoint(Submitting):
    """A supervised in-process shard: engine + private broker.

    Parameters
    ----------
    factory:
        Zero-argument callable returning the shard's engine.  Called
        once at construction and again on every :meth:`restart` — for a
        durable shard the factory's restart path goes through
        ``DurableDynamicRing.recover``, so a killed shard comes back
        with every acknowledged write.
    broker_options:
        Keyword arguments for the per-shard :class:`QueryBroker`
        (workers, queue_depth, maintenance_interval, ...).
    """

    def __init__(
        self,
        factory: Callable[[], object],
        broker_options: Optional[dict] = None,
    ) -> None:
        self._factory = factory
        self._broker_options = dict(broker_options or {})
        self._lock = threading.RLock()
        self._engine = None
        self._broker: Optional[QueryBroker] = None
        self._incarnation = 0
        self._start_engine()

    # -- lifecycle -----------------------------------------------------------

    def _start_engine(self) -> None:
        engine = self._factory()
        broker = QueryBroker(engine, **self._broker_options)
        broker.start()
        with self._lock:
            self._engine = engine
            self._broker = broker

    def _stop(self, checkpoint: bool) -> None:
        with self._lock:
            broker, engine = self._broker, self._engine
            self._broker = None
            self._engine = None
        if broker is not None:
            broker.stop()
        if engine is not None and hasattr(engine, "close"):
            engine.close(checkpoint=checkpoint)

    def kill(self) -> None:
        """Simulate a crash: drop the broker and the engine, no checkpoint.

        Queued work fails with :class:`QueryRejected`; a durable engine
        is closed *without* checkpointing so the subsequent
        :meth:`restart` exercises the WAL recovery path, exactly like a
        process that died mid-write.
        """
        try:
            self._stop(checkpoint=False)
        except Exception:
            pass  # crashing engines may fail to close cleanly

    def restart(self) -> None:
        """Rebuild engine + broker through the factory; bumps incarnation."""
        with self._lock:
            if self._broker is not None:
                return  # already running
        self._start_engine()
        with self._lock:
            self._incarnation += 1

    def shutdown(self, checkpoint: bool = True) -> None:
        """Orderly stop (checkpointing durable engines by default)."""
        self._stop(checkpoint)

    # -- the EngineEndpoint surface ------------------------------------------

    def submit(self, query, *, cancellation=None, **fields) -> Future:
        """Submit a :class:`Request` (or ``query`` plus its fields) to
        the shard's broker; ``cancellation`` cancels it in process."""
        request = Request.of(query, **fields)
        with self._lock:
            broker = self._broker
        if broker is None:
            raise EndpointDown("shard engine is down")
        return broker.submit(request, cancellation=cancellation)

    def health_check(self) -> bool:
        """Cheap liveness probe: broker running and engine reachable."""
        with self._lock:
            broker, engine = self._broker, self._engine
        if broker is None or engine is None:
            return False
        probe = getattr(engine, "n_triples", None)
        try:
            if probe is not None:
                int(probe)
            return True
        except Exception:
            return False

    @property
    def alive(self) -> bool:
        with self._lock:
            return self._broker is not None

    @property
    def incarnation(self) -> int:
        with self._lock:
            return self._incarnation

    @property
    def engine(self):
        """The current engine instance (``None`` while down)."""
        with self._lock:
            return self._engine

    @property
    def n_triples(self) -> int:
        engine = self.engine
        if engine is None:
            return 0
        return int(getattr(engine, "n_triples", 0))

    def dump(self) -> list:
        """Every triple of the shard (replica catch-up, tests)."""
        engine = self.engine
        if engine is None:
            raise EndpointDown("shard engine is down")
        return [tuple(map(int, t)) for t in engine.to_graph().triples]

    # -- writes (routed by the sharding layer) -------------------------------

    def insert(self, s: int, p: int, o: int) -> bool:
        engine = self.engine
        if engine is None:
            raise EndpointDown("shard engine is down")
        return engine.insert(s, p, o)

    def delete(self, s: int, p: int, o: int) -> bool:
        engine = self.engine
        if engine is None:
            raise EndpointDown("shard engine is down")
        return engine.delete(s, p, o)

    # -- introspection -------------------------------------------------------

    def cache_generation(self):
        """The engine's generation (``None`` while down or non-generational)."""
        engine = self.engine
        gen = getattr(engine, "cache_generation", None)
        if callable(gen):
            return gen()
        return None

    def stats(self) -> dict:
        with self._lock:
            broker = self._broker
            engine = self._engine
            out = {
                "alive": broker is not None,
                "incarnation": self._incarnation,
                "restarts": self._incarnation,
            }
        if engine is not None:
            n = getattr(engine, "n_triples", None)
            if n is not None:
                out["n_triples"] = int(n)
        if broker is not None:
            out["broker"] = broker.stats()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "down"
        return f"InProcessEndpoint({state}, incarnation={self.incarnation})"
