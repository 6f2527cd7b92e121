"""Sharded, fault-tolerant serving tier (INTERNALS §11).

The ring's succinctness makes shards cheap; this package supplies the
discipline for *surviving* them: subject-hash sharding over supervised
per-shard engines (:mod:`~repro.serving.sharding`,
:mod:`~repro.serving.endpoint`), a scatter-gather coordinator with
retry/backoff, per-shard circuit breakers, and deterministic
partial-result degradation (:mod:`~repro.serving.coordinator`,
:mod:`~repro.serving.breaker`), automatic crash recovery
(:mod:`~repro.serving.supervisor`), and the one line frontend of
``repro serve`` and ``repro shard-serve`` (:mod:`~repro.serving.frontend`).
Shards can run process-isolated (:mod:`~repro.serving.process`,
INTERNALS §13) and replicated with transparent primary→secondary
failover (:mod:`~repro.serving.replica`).

Names load on first use, so ``repro serve`` imports the frontend
without the shard machinery (multiprocessing, worker pools) it never
runs.
"""

import importlib

_EXPORTS = {
    "breaker": ("CircuitBreaker", "RetryPolicy"),
    "coordinator": ("ShardCoordinator", "ShardReport", "ShardUnavailable"),
    "endpoint": ("EndpointDown", "EngineEndpoint", "InProcessEndpoint"),
    "frontend": ("LineFrontend", "ShardFrontend", "ShardService",
                 "StoreService"),
    "process": ("ProcessEndpoint", "ShardConnectionReset", "ShardProcessDied"),
    "replica": ("ReplicaSet",),
    "sharding": ("ShardedRingIndex", "partition_graph", "shard_of"),
    "supervisor": ("ShardSupervisor",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
