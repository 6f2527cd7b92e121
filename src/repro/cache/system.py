"""The query-serving cache wrapper.

:class:`CachedQuerySystem` wraps any index exposing the
:class:`~repro.core.system.BaseQuerySystem` API and serves repeated
basic graph patterns from a byte-budgeted LRU of complete results
(:mod:`repro.cache.result_cache`), keyed by a canonical form that is
invariant under variable renaming and triple reordering
(:mod:`repro.cache.canonical`).

Design invariants (each one is load-bearing; see INTERNALS §10):

- **byte-identity** — a cache hit streams exactly the rows, in exactly
  the order, with exactly the dict insertion order, that a fresh
  evaluation would produce.  The engine's row order depends on more
  than the BGP's isomorphism class (the §4.3 elimination order
  tie-breaks on variable *names*; the §4.2 lonely cross product nests
  in original pattern order), so the key folds in
  :meth:`~repro.core.ltj.LeapfrogTrieJoin.plan_signature` translated to
  canonical ids, and rows are stored as ``(canonical_id, value)`` pair
  tuples preserving the original dict insertion order;
- **only complete results** — truncated/partial/budget-aborted
  evaluations are never stored;
- **generation tags** — the key info captures
  :func:`generation_of` *before* planning; the entry is stored only if
  the generation is unchanged after evaluation and served only on an
  exact match, so a write between identical queries always invalidates;
- **fail-open** — any failure in the cache path (key derivation,
  lookup, translation; including injected faults on
  ``cache.lookup``/``cache.store``) degrades to a normal uncached
  evaluation, never to a wrong answer.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.cache.canonical import canonical_pattern, canonicalize
from repro.cache.result_cache import DEFAULT_CAPACITY_BYTES, ResultCache
from repro.cache.stats_cache import PlanStatsCache
from repro.core.system import (
    Countable,
    QueryResult,
    Request,
    admit_rows,
    finish,
)
from repro.graph.parser import parse_bgp  # noqa: F401 - trace seam (ROADMAP item 15)
from repro.reliability.budget import ResourceBudget


def generation_of(index) -> object:
    """The index's invalidation token (``0`` for anything static).

    Duck-typed so plain :class:`~repro.core.system.RingIndex` instances
    (and any third-party index) work unchanged: indexes that mutate
    expose ``cache_generation()``; everything else is treated as frozen.
    """
    fn = getattr(index, "cache_generation", None)
    if callable(fn):
        return fn()
    return 0


class _KeyInfo(NamedTuple):
    """One query's derived cache coordinates."""

    key: tuple
    mapping: dict
    generation: object


class CachedQuerySystem(Countable):
    """Serve repeated BGPs from a canonical result cache.

    Wraps ``index`` transparently: every attribute not defined here
    (``insert``, ``delete``, ``explain``, ``size_in_bits``, …)
    delegates to the inner index, so the wrapper drops into any code
    path — including the query broker — that expects a query system.
    Mutations through the wrapper reach the inner index directly and
    bump its generation, invalidating affected entries on next touch.

    Parameters
    ----------
    index:
        The wrapped query system.
    capacity_bytes:
        Byte budget of the result cache (ignored when ``result_cache``
        is supplied).
    result_cache / stats_cache:
        Pre-built caches to share across wrappers (e.g. one process-wide
        result cache in front of several snapshots).
    share_planner_stats:
        When true (default) and the inner index exposes an LTJ engine,
        attach a generation-scoped :class:`PlanStatsCache` to it so the
        §4.3 planning statistics are memoized across queries too.
    """

    def __init__(
        self,
        index,
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        result_cache: Optional[ResultCache] = None,
        stats_cache: Optional[PlanStatsCache] = None,
        share_planner_stats: bool = True,
    ) -> None:
        self._index = index
        self._cache = result_cache or ResultCache(capacity_bytes)
        self._degraded = 0
        # Wrapping stores (e.g. DurableDynamicRing) hold the evaluating
        # index one level down; resolve the engine through that level.
        engine = getattr(index, "_engine", None)
        if engine is None:
            engine = getattr(getattr(index, "_index", None), "_engine", None)
        self._engine = engine
        if engine is not None:
            # The engine flags are part of the key: entries are only
            # shared between evaluations that would stream
            # byte-identical answers.
            self._flags = (
                index.name,
                engine._use_lonely,
                engine._use_ordering,
            )
            self._plan_signature = engine.plan_signature
        else:
            self._flags = (getattr(index, "name", type(index).__name__),)
            # Engine-less systems (e.g. the sharded coordinator, whose
            # canonical sort makes row order plan-independent) opt into
            # caching by exposing their own signature hook.
            sig = getattr(index, "cache_plan_signature", None)
            self._plan_signature = sig if callable(sig) else None
        self._stats_cache = stats_cache
        if engine is not None and share_planner_stats:
            if self._stats_cache is None:
                self._stats_cache = PlanStatsCache(
                    generation_source=self.cache_generation
                )
            engine.stats_cache = self._stats_cache

    # -- transparent delegation ----------------------------------------------

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._index, name)

    @property
    def graph(self):
        return self._index.graph

    @property
    def name(self) -> str:
        return f"Cached({self._index.name})"

    @property
    def inner(self):
        return self._index

    @property
    def result_cache(self) -> ResultCache:
        return self._cache

    @property
    def stats_cache(self) -> Optional[PlanStatsCache]:
        return self._stats_cache

    def cache_generation(self):
        return generation_of(self._index)

    # -- key derivation -------------------------------------------------------

    def _key_info(
        self, request: Request, budget: ResourceBudget
    ) -> Optional[_KeyInfo]:
        """Derive the canonical cache coordinates of one request.

        ``None`` means "not cacheable here" (unknown constant, empty
        pattern, no LTJ engine to report a plan signature) — the caller
        falls through to a normal evaluation.
        """
        if self._plan_signature is None:
            return None
        encoded = self._index.graph.encode_bgp(request.bgp)
        if encoded is None:
            return None
        # Capture the generation BEFORE planning: if a write lands
        # between planning and evaluation the stored generation check
        # (see _store) refuses the entry, so the window is safe.
        generation = generation_of(self._index)
        sig = self._plan_signature(encoded)
        if sig is None:  # some pattern is empty right now
            return None
        order, lonely_patterns = sig
        canon = canonicalize(encoded)
        mapping = canon.mapping
        order_sig = tuple(mapping[v] for v in order)
        lonely_sig = tuple(
            canonical_pattern(p, mapping) for p in lonely_patterns
        )
        if request.project is None:
            proj_sig = None
        else:
            # Unmapped projection variables never appear in solutions;
            # keying them by name only costs hits across renamings.
            proj_sig = tuple(
                mapping.get(v, ("x", v.name)) for v in request.project
            )
        caps = [request.limit]
        if budget.max_solutions is not None:
            # admit_solution() is stateful: a shared batch budget has
            # already consumed part of its allowance.
            caps.append(max(0, budget.max_solutions - budget.solutions))
        caps = [c for c in caps if c is not None]
        effective_limit = min(caps) if caps else None
        key = (
            canon.key,
            order_sig,
            lonely_sig,
            proj_sig,
            effective_limit,
            self._flags,
        )
        return _KeyInfo(key, mapping, generation)

    def _safe_key_info(self, request, budget):
        try:
            return self._key_info(request, budget)
        except Exception:
            self._degraded += 1
            return None

    # -- serve / store --------------------------------------------------------

    def _serve(self, info: _KeyInfo, request: Request,
               budget: ResourceBudget) -> Optional[QueryResult]:
        token = budget.token
        if token is not None and token.cancelled:
            return None  # never answered: the evaluation path raises
        entry = self._cache.lookup(info.key, info.generation)
        if entry is None:
            return None
        inverse = {cid: v for v, cid in info.mapping.items()}
        out = QueryResult()
        out.budget = budget
        # The entry holds exactly the rows under the key's caps, already
        # projected; only the budget's solution count is left to charge.
        admit_rows(
            out,
            ({inverse[cid]: value for cid, value in row} for row in entry.rows),
            budget,
        )
        out.cached = True
        return finish(self._index.graph, request, out)

    def _safe_serve(self, info, request, budget):
        try:
            return self._serve(info, request, budget)
        except Exception:
            # A corrupt or untranslatable entry must not poison the key.
            self._degraded += 1
            try:
                self._cache.discard(info.key)
            except Exception:
                pass
            return None

    def _safe_store(self, info: _KeyInfo, result: QueryResult) -> None:
        try:
            if result.truncated:
                return  # incomplete results are never cached
            if generation_of(self._index) != info.generation:
                return  # a write raced the evaluation
            mapping = info.mapping
            rows = tuple(
                tuple((mapping[v], value) for v, value in row.items())
                for row in result
            )
            self._cache.store(info.key, info.generation, rows)
        except Exception:
            self._degraded += 1

    # -- public API -----------------------------------------------------------

    def evaluate(
        self,
        query,
        *,
        cancellation=None,
        budget: Optional[ResourceBudget] = None,
        var_order=None,
        stats: Optional[dict] = None,
        **fields,
    ) -> QueryResult:
        """:meth:`BaseQuerySystem.evaluate`, served from cache when a
        byte-identical complete result for an isomorphic query at the
        current generation is resident.  ``result.cached`` tells the
        caller which path answered."""
        request = Request.of(query, **fields)
        if var_order is not None or stats is not None:
            # Steered or measured runs change what the caller is really
            # asking for: they stay uncached.
            return self._index.evaluate(
                request, cancellation=cancellation, budget=budget,
                var_order=var_order, stats=stats,
            )
        if budget is None:
            budget = request.budget(cancellation)
        info = self._safe_key_info(request, budget)
        if info is not None:
            served = self._safe_serve(info, request, budget)
            if served is not None:
                return served
        result = self._index.evaluate(
            request._replace(decode=False) if request.decode else request,
            budget=budget,
        )
        if info is not None:
            self._safe_store(info, result)
        return finish(self._index.graph, request, result)

    def cache_probe(self, request: Request, budget: ResourceBudget):
        """Broker fast path: ``(coalesce_key, served_result_or_None)``.

        A non-``None`` key identifies this submission's coalescing class
        (same key ⇒ same canonical query under the same caps at the
        current generation); a non-``None`` result is a finished,
        byte-identical answer that cost no evaluation.  ``(None, None)``
        means the query is not cacheable and must run normally.
        """
        info = self._safe_key_info(request, budget)
        if info is None:
            return None, None
        return (info.key, info.generation), self._safe_serve(
            info, request, budget
        )

    # -- maintenance / introspection -----------------------------------------

    def clear(self) -> None:
        """Drop every cached result and memoized statistic."""
        self._cache.invalidate_all()
        if self._stats_cache is not None:
            self._stats_cache.clear()

    def cache_stats(self) -> dict:
        out = {
            "results": self._cache.stats(),
            "degraded": self._degraded,
            "generation": repr(self.cache_generation()),
        }
        if self._stats_cache is not None:
            out["planner"] = self._stats_cache.stats()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CachedQuerySystem({self._index!r}, {self._cache!r})"
