"""Generation-scoped memo of the §4.3 planner statistics.

The cardinality-guided elimination order recomputes, per query, one
``count()`` and one ``distinct_estimate()`` per (pattern, variable)
pair — wavelet-matrix range counts whose answers depend only on the
pattern's *shape* (constants + variable slots) and the index contents,
not on variable names.  Repeated workloads therefore re-derive the same
numbers endlessly; :class:`PlanStatsCache` memoizes them keyed by
:func:`~repro.cache.canonical.pattern_descriptor` (renaming-invariant)
and scoped to the index generation: any insert/delete/compaction/
checkpoint bumps the generation and the memo empties itself on the next
touch — the same invalidation discipline as the result cache, so a
stale statistic can never steer a plan computed after a write.

The engine consults the memo through duck typing (set
``engine.stats_cache = PlanStatsCache(...)``, see
:meth:`repro.core.ltj.LeapfrogTrieJoin._variable_scores`), so
:mod:`repro.core` takes no import dependency on this package.

Persistence: :meth:`save` / :meth:`load` serialise the memo as JSON so
``repro plan --stats-cache`` amortises planning statistics across
processes.  The file records the generation it was captured at (for
on-disk static indexes the caller supplies a content token, e.g. the
manifest checksum); a mismatch on load simply yields an empty memo.
"""

from __future__ import annotations

import ast
import json
import threading
from typing import Callable, Optional

from repro.cache.canonical import pattern_descriptor

SCHEMA_VERSION = 1


class PlanStatsCache:
    """Memo of per-pattern ``count`` / ``distinct_estimate`` values."""

    def __init__(
        self, generation_source: Optional[Callable[[], object]] = None
    ) -> None:
        self._generation_source = generation_source or (lambda: 0)
        self._generation = self._generation_source()
        self._table: dict[tuple, int] = {}
        self._lock = threading.RLock()
        self._counts = {"hits": 0, "misses": 0, "invalidations": 0}

    # -- the engine-facing memo ----------------------------------------------

    def count(self, iterator) -> int:
        """Memoized ``iterator.count()`` for the current generation."""
        key = ("c", pattern_descriptor(iterator.pattern))
        return self._get(key, iterator.count)

    def distinct(self, iterator, var, estimator=None) -> int:
        """Memoized distinct-values estimate of ``var`` in ``iterator``.

        ``estimator`` is the iterator's bound ``distinct_estimate`` (or
        ``None``, falling back to the memoized pattern count — the same
        fallback the engine uses for estimator-less iterators).
        """
        key = (
            "d",
            pattern_descriptor(iterator.pattern),
            tuple(iterator.pattern.variable_positions(var)),
        )
        if estimator is None:
            return self._get(key, lambda: self.count(iterator))
        return self._get(key, lambda: estimator(var))

    def _get(self, key: tuple, compute: Callable[[], int]) -> int:
        with self._lock:
            self._sync_locked()
            generation = self._generation
            if key in self._table:
                self._counts["hits"] += 1
                return self._table[key]
            self._counts["misses"] += 1
            value = int(compute())
            # A write may have raced the computation (the iterator holds
            # an older snapshot); only memoize values that are still
            # current, so a later query at the new generation never
            # reads a number measured against the old one.
            if self._generation_source() == generation:
                self._table[key] = value
            return value

    def _sync_locked(self) -> None:
        generation = self._generation_source()
        if generation != self._generation:
            if self._table:
                self._counts["invalidations"] += 1
            self._table.clear()
            self._generation = generation

    # -- maintenance / introspection -----------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._table.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)

    def stats(self) -> dict:
        with self._lock:
            out = dict(self._counts)
            out["entries"] = len(self._table)
        looked = out["hits"] + out["misses"]
        out["hit_rate"] = out["hits"] / looked if looked else 0.0
        return out

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write the memo (with its generation stamp) as JSON."""
        with self._lock:
            self._sync_locked()
            payload = {
                "schema_version": SCHEMA_VERSION,
                "generation": repr(self._generation),
                "entries": {repr(k): v for k, v in self._table.items()},
            }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(
        cls,
        path,
        generation_source: Optional[Callable[[], object]] = None,
    ) -> "PlanStatsCache":
        """Rebuild a memo from :meth:`save` output.

        Any problem — missing/corrupt file, schema drift, a generation
        stamp that no longer matches the live index — degrades to an
        empty memo; persistence is an optimisation, never a correctness
        dependency.
        """
        cache = cls(generation_source=generation_source)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return cache
        if not isinstance(payload, dict):
            return cache
        if payload.get("schema_version") != SCHEMA_VERSION:
            return cache
        if payload.get("generation") != repr(cache._generation):
            return cache
        try:
            entries = {
                ast.literal_eval(k): int(v)
                for k, v in payload.get("entries", {}).items()
            }
        except (ValueError, SyntaxError, TypeError):
            return cache
        with cache._lock:
            cache._table.update(entries)
        return cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanStatsCache(entries={len(self)}, gen={self._generation!r})"
