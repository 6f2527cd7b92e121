"""Deterministic, seeded fault injection for the reliability suite.

A serving layer's failure handling is only trustworthy once it has been
exercised: this module installs **monkeypatchable hooks** on the hot
primitives every engine bottoms out in — wavelet-matrix ``rank`` /
``select`` / ``range_next_value`` (``next_in_range``), bitvector reads,
their batch counterparts (``rank1_many`` / ``select1_many`` /
``rank_many`` / ``extract_at`` — the vectorised fast path), the
save/load I/O path, and the durability protocol of the dynamic ring
(``dynamic.compact``, ``wal.append``, ``wal.fsync``,
``checkpoint.write`` — lazily resolved, see :data:`LAZY_SITES`) — and
injects latency or exceptions into
them under a seeded RNG, so tests can *prove* that

- injected latency makes budgets fire (``QueryTimeout``) or, with
  ``partial=True``, yields truncated-but-correct prefixes;
- injected exceptions surface as typed errors
  (``QueryExecutionError`` / ``IndexIntegrityError``), never as silent
  wrong answers.

Determinism: every :class:`FaultInjector` owns a ``random.Random(seed)``
consulted once per hooked call, and the engines themselves are
deterministic, so a given (workload, sites, seed) triple always fires
the same faults in the same places.  ``injector.fired`` records the
per-site trip counts for assertions.

Usage::

    with inject_faults(Fault("wavelet.rank", latency=0.001), seed=7):
        index.evaluate(query, timeout=0.05)   # -> QueryTimeout

The registry (:data:`SITES`) maps site names to ``(owner, attribute)``
patch targets; :func:`available_sites` lists them.
"""

from __future__ import annotations

import importlib
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.bits.bitvector import BitVector
from repro.bits.rrr import RRRBitVector
from repro.graph import io as graph_io
from repro.sequences.wavelet_matrix import WaveletMatrix


class InjectedFault(RuntimeError):
    """The default exception an error fault raises at its site."""


#: site name -> (owner object, attribute name) patch target.
SITES: dict[str, tuple[object, str]] = {
    "wavelet.rank": (WaveletMatrix, "rank"),
    "wavelet.select": (WaveletMatrix, "select"),
    "wavelet.range_next_value": (WaveletMatrix, "next_in_range"),
    "wavelet.access": (WaveletMatrix, "__getitem__"),
    "bitvector.access": (BitVector, "__getitem__"),
    "bitvector.rank": (BitVector, "rank1"),
    "bitvector.select": (BitVector, "select1"),
    # Batch kernels (the vectorised fast path must degrade like the
    # scalar one under faults — see scripts/chaos_check.py).
    "bitvector.rank_many": (BitVector, "step_many"),  # rank1_many's body too
    "bitvector.select_many": (BitVector, "select1_many"),
    "bitvector.access_many": (BitVector, "access_many"),
    "wavelet.rank_many": (WaveletMatrix, "rank_many"),
    "wavelet.extract_at": (WaveletMatrix, "extract_at"),
    "rrr.rank": (RRRBitVector, "rank1"),
    "io.save": (graph_io, "save_graph"),
    "io.load": (graph_io, "load_graph"),
}

#: Durability/concurrency sites, resolved lazily at install time —
#: ``(module path, owner class or None for the module itself, attr)``.
#: Importing them eagerly here would cycle through ``core.system`` →
#: ``reliability`` → this module while ``core`` is still initialising.
LAZY_SITES: dict[str, tuple[str, Optional[str], str]] = {
    "dynamic.compact": ("repro.core.dynamic", "DynamicRingIndex", "_compact"),
    "wal.append": ("repro.reliability.wal", "WriteAheadLog", "append"),
    "wal.fsync": ("repro.reliability.wal", None, "_fsync"),
    "checkpoint.write": ("repro.reliability.wal", None, "write_checkpoint"),
    # Parallel execution layer: failing spawns exercise pool-unavailable
    # degradation (queries fall back to serial), failing merges must
    # surface as typed errors, never truncated-but-ok answers.
    "parallel.spawn": ("repro.parallel.pool", None, "_spawn_worker"),
    "parallel.slice_merge": ("repro.parallel.pool", None, "merge_blocks"),
    # Serving-cache layer: a failing lookup must fall through to a
    # normal evaluation and a failing store must only cost future hits
    # — in both cases answers stay byte-identical to uncached ones
    # (CachedQuerySystem wraps both calls fail-open).
    "cache.lookup": ("repro.cache.result_cache", "ResultCache", "lookup"),
    "cache.store": ("repro.cache.result_cache", "ResultCache", "store"),
    # Sharded serving tier: dispatch/gather cover the scatter-gather
    # RPC seams of the coordinator (retry + breaker + partial-result
    # degradation), restart covers the supervisor's recovery path — a
    # failing restart must be counted, never crash the supervisor.
    "shard.dispatch": ("repro.serving.coordinator", None, "dispatch_shard"),
    "shard.gather": ("repro.serving.coordinator", None, "gather_block"),
    "shard.restart": ("repro.serving.supervisor", None, "restart_shard"),
    # Process-isolated shards: a failing spawn must surface as a typed
    # ShardProcessDied (counted by supervisor/replica repair, never a
    # crash), a failing heartbeat marks the endpoint unhealthy, and a
    # failing replica promotion must degrade the query to the
    # flagged-partial contract — never a wrong or half-merged answer.
    "proc.spawn": ("repro.serving.process", None, "spawn_process"),
    "proc.heartbeat": ("repro.serving.process", None, "heartbeat"),
    "replica.failover": ("repro.serving.replica", None, "promote_replica"),
    # Adaptive planning: a failing per-depth re-ranking must degrade the
    # rest of the query to the static §4.3 order (a counted fallback,
    # observable as ``plan.rerank_fallback``) — worse plan, same rows.
    "plan.rerank": ("repro.core.ltj", None, "rank_candidates"),
    # Out-of-core path: a build killed while spilling a run or merging
    # must leave either no pack or the previous intact one (the writer
    # publishes atomically), and be restartable from scratch; a failing
    # mmap open must surface as IndexIntegrityError, never as a ring
    # over garbage pages.
    "build.spill": ("repro.graph.bulkload", None, "_spill_run"),
    "build.merge": ("repro.graph.bulkload", None, "_merge_chunk"),
    # Parallel partitioned build: a failing build task must surface as a
    # typed BulkBuildError with no partial pack (forked workers resolve
    # the executor per task, so the patched site fires inside them too);
    # a *killed* worker is rescued inline and the retry stays
    # byte-identical.
    "build.worker": ("repro.graph.bulkload", None, "_execute_build_task"),
    "mmap.open": ("repro.core.frozen", None, "_open_memmap"),
}


def _resolve_site(site: str) -> tuple[object, str]:
    """The ``(owner, attribute)`` patch target of a registered site."""
    if site in SITES:
        return SITES[site]
    module_path, owner_name, attr = LAZY_SITES[site]
    module = importlib.import_module(module_path)
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr


def available_sites() -> list[str]:
    """The hookable site names, sorted."""
    return sorted(set(SITES) | set(LAZY_SITES))


@dataclass
class Fault:
    """One fault to inject at a registered site.

    Parameters
    ----------
    site:
        A key of :data:`SITES`.
    probability:
        Chance the fault fires on any given call (seeded RNG).
    latency:
        Seconds slept when the fault fires.
    error:
        Exception *class* raised when the fault fires (after the
        latency); ``None`` injects latency only.
    max_fires:
        Stop firing after this many trips (``None`` = unlimited).
    """

    site: str
    probability: float = 1.0
    latency: float = 0.0
    error: Optional[type] = None
    max_fires: Optional[int] = None
    fired: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.site not in SITES and self.site not in LAZY_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; "
                f"available: {', '.join(available_sites())}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")


class FaultInjector:
    """Installs faults by monkeypatching their sites; context manager.

    Re-entrant installs are rejected; uninstall always restores the
    original attributes, so a crashed test cannot leak patched hot
    paths into the rest of the suite.
    """

    def __init__(self, faults, seed: int = 0) -> None:
        if isinstance(faults, Fault):
            faults = [faults]
        self.faults = list(faults)
        self.seed = seed
        self._rng = random.Random(seed)
        self._originals: list[tuple[object, str, object]] = []
        self.fired: dict[str, int] = {f.site: 0 for f in self.faults}

    def install(self) -> "FaultInjector":
        if self._originals:
            raise RuntimeError("faults already installed")
        by_site: dict[str, list[Fault]] = {}
        for fault in self.faults:
            fault.fired = 0
            by_site.setdefault(fault.site, []).append(fault)
        for site, site_faults in by_site.items():
            owner, attr = _resolve_site(site)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(site, site_faults, original))
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, site: str, site_faults: list, original):
        rng = self._rng
        fired = self.fired

        def hooked(*args, **kwargs):
            for fault in site_faults:
                if fault.max_fires is not None and fault.fired >= fault.max_fires:
                    continue
                if rng.random() >= fault.probability:
                    continue
                fault.fired += 1
                fired[site] += 1
                if fault.latency:
                    time.sleep(fault.latency)
                if fault.error is not None:
                    raise fault.error(f"injected fault at {site}")
            return original(*args, **kwargs)

        hooked.__name__ = getattr(original, "__name__", site)
        hooked.__wrapped__ = original
        return hooked

    def __enter__(self) -> "FaultInjector":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def inject_faults(*faults: Fault, seed: int = 0) -> FaultInjector:
    """Context-manager sugar: ``with inject_faults(Fault(...), seed=1):``"""
    return FaultInjector(faults, seed=seed)
