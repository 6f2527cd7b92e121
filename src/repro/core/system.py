"""Packaged query systems: build an index from a Graph, evaluate BGPs.

:class:`BaseQuerySystem` fixes the query-time conventions the benchmark
harness relies on (string or parsed BGPs, result ``limit`` as in the
paper's experiments, per-query ``timeout``, optional label decoding);
:class:`BaseLTJSystem` adds LTJ plumbing shared by the ring and the
wco baselines.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union  # noqa: F401

from repro.core.interface import (
    PatternIterator,
    QueryCancelled,
    QueryError,
    QueryExecutionError,
    QueryTimeout,
)
from repro.core.iterators import RingIterator
from repro.core.ltj import LeapfrogTrieJoin
from repro.core.ring import Ring
from repro.graph.dataset import Graph
from repro.graph.model import BasicGraphPattern, TriplePattern, Var
from repro.graph.parser import parse_bgp
from repro.reliability.budget import CancellationToken, ResourceBudget

Query = Union[str, BasicGraphPattern]

#: Engine exceptions forwarded verbatim by :meth:`BaseQuerySystem.evaluate`
#: (typed query errors, plus caller-side argument mistakes); anything else
#: is wrapped into :class:`~repro.core.interface.QueryExecutionError`.
_PASSTHROUGH_ERRORS = (QueryError, ValueError, TypeError)


class QueryResult(list):
    """A plain list of solutions plus graceful-degradation metadata.

    ``truncated`` is True when evaluation stopped early (deadline hit
    with ``partial=True``); ``interrupted_by`` then names the cause
    (``"timeout"`` or ``"cancelled"``).  Being a ``list`` subclass, it
    is drop-in compatible with every existing caller.
    """

    __slots__ = ("truncated", "interrupted_by", "budget", "cached", "shards")

    def __init__(self, iterable=()) -> None:
        super().__init__(iterable)
        self.truncated = False
        self.interrupted_by: Optional[str] = None
        #: The ResourceBudget the query ran under (None for decode-only
        #: copies before flags are copied); lets serving layers read
        #: ops_used/deadline telemetry off the result.
        self.budget: Optional[ResourceBudget] = None
        #: True when the rows were served from the result cache
        #: (:class:`repro.cache.system.CachedQuerySystem`) instead of a
        #: fresh evaluation.
        self.cached = False
        #: Scatter-gather provenance set by the sharded serving tier
        #: (:mod:`repro.serving`): a :class:`~repro.serving.coordinator.
        #: ShardReport` naming which shards answered and which failed.
        #: ``None`` for single-node evaluations.
        self.shards = None

    def _copy_flags(self, other: "QueryResult") -> "QueryResult":
        self.truncated = other.truncated
        self.interrupted_by = other.interrupted_by
        self.budget = other.budget
        self.cached = other.cached
        self.shards = other.shards
        return self


class BaseQuerySystem:
    """Common evaluate()/space conventions for every system."""

    name = "abstract"

    def __init__(self, graph: Graph) -> None:
        self._graph = graph

    @property
    def graph(self) -> Graph:
        return self._graph

    # -- to be provided by subclasses ---------------------------------------

    def _solutions(
        self,
        bgp: BasicGraphPattern,
        timeout: Optional[float],
        **options,
    ) -> Iterable[dict[Var, int]]:
        raise NotImplementedError

    def size_in_bits(self) -> int:
        raise NotImplementedError

    def cache_generation(self):
        """Invalidation token for the serving caches (hashable).

        Cached results and memoized planner statistics are tagged with
        this value and served only on an exact match.  Static indexes
        never change, so the base implementation is the constant ``0``;
        mutable indexes override it with a token that changes on every
        visible write (:class:`~repro.core.dynamic.DynamicRingIndex`
        returns its epoch,
        :class:`~repro.reliability.wal.DurableDynamicRing` pairs the
        epoch with the WAL generation so checkpoints/recovery invalidate
        too).
        """
        return 0

    # -- public API -----------------------------------------------------------

    def evaluate(
        self,
        query: Query,
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
        decode: bool = False,
        project: Optional[Sequence[Var]] = None,
        partial: bool = False,
        cancellation: Optional[CancellationToken] = None,
        budget: Optional[ResourceBudget] = None,
        **options,
    ) -> QueryResult:
        """Evaluate a basic graph pattern.

        Parameters mirror the paper's experimental protocol: ``limit``
        (1000 in the paper) caps the number of solutions, ``timeout`` (in
        seconds) aborts long evaluations by raising
        :class:`~repro.core.interface.QueryTimeout`.

        Reliability controls (all optional):

        - ``partial=True`` degrades gracefully: instead of discarding
          the work done when the deadline (or a cancellation) fires, the
          solutions found so far are returned with
          ``result.truncated == True``;
        - ``cancellation`` is an external
          :class:`~repro.reliability.budget.CancellationToken` that
          aborts evaluation with
          :class:`~repro.core.interface.QueryCancelled`;
        - ``budget`` supplies a pre-built
          :class:`~repro.reliability.budget.ResourceBudget` (overriding
          ``timeout``/``limit``/``cancellation``), e.g. one shared
          across the queries of a batch.

        Unexpected engine failures (corrupted reads, injected faults)
        are wrapped into
        :class:`~repro.core.interface.QueryExecutionError` with the
        failing BGP attached — callers only ever see
        :class:`~repro.core.interface.QueryError` subclasses or correct
        results.

        ``project`` restricts solutions to the given variables with
        duplicate elimination (SPARQL ``SELECT DISTINCT`` semantics — one
        of the §7 "further query operators", layered on top of the
        index).  ``decode=True`` returns ``{name: label}`` dictionaries
        through the graph's dictionary; otherwise solutions are
        ``{Var: id}``.
        """
        bgp = parse_bgp(query) if isinstance(query, str) else query
        encoded = self._graph.encode_bgp(bgp)
        if encoded is None:  # a constant is absent from the graph
            return QueryResult()
        if budget is None:
            budget = ResourceBudget(
                timeout=timeout, max_solutions=limit, token=cancellation
            )
        out = QueryResult()
        out.budget = budget
        if project is None:
            # Without projection dedup every raw row is admitted, so the
            # consumption loop below pulls at most this many rows — a
            # bound parallel drivers use to cap per-slice enumeration.
            demands = [x for x in (limit, budget.max_solutions) if x is not None]
            budget.row_demand = min(demands) if demands else None
        else:
            budget.row_demand = None  # dedup may skip arbitrarily many rows
        seen: set[frozenset] = set()
        try:
            for solution in self._solutions(encoded, budget, **options):
                if project is not None:
                    solution = {v: solution[v] for v in project if v in solution}
                    key = frozenset(solution.items())
                    if key in seen:
                        continue
                    seen.add(key)
                out.append(solution)
                if not budget.admit_solution() or (
                    limit is not None and len(out) >= limit
                ):
                    break
        except (QueryTimeout, QueryCancelled) as exc:
            if not partial:
                raise
            out.truncated = True
            out.interrupted_by = (
                "cancelled" if isinstance(exc, QueryCancelled) else "timeout"
            )
        except _PASSTHROUGH_ERRORS:
            raise
        except Exception as exc:
            raise QueryExecutionError(
                f"{self.name} engine failed on {bgp!r}: "
                f"{type(exc).__name__}: {exc}",
                bgp=bgp,
            ) from exc
        if decode:
            roles = self._graph.variable_roles(bgp)
            out = QueryResult(
                self._graph.decode_solution(s, roles) for s in out
            )._copy_flags(out)
        return out

    def count(
        self,
        query: Query,
        timeout: Optional[float] = None,
        **options,
    ) -> int:
        """Number of solutions (no limit)."""
        return len(self.evaluate(query, timeout=timeout, **options))

    def bytes_per_triple(self) -> float:
        """The space unit of the paper's Tables 1 and 2."""
        n = max(self._graph.n_triples, 1)
        return self.size_in_bits() / 8 / n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self._graph.n_triples})"


class BaseLTJSystem(BaseQuerySystem):
    """A system whose engine is Leapfrog TrieJoin over its iterators.

    ``engine_options`` (``use_lonely``, ``use_ordering``, ``policy``) are
    declared once, on :class:`~repro.core.ltj.LeapfrogTrieJoin`; every
    subclass forwards them here untouched.
    """

    def __init__(self, graph: Graph, **engine_options) -> None:
        super().__init__(graph)
        self._engine = LeapfrogTrieJoin(
            self.iterator, graph.n_triples, **engine_options
        )

    @property
    def policy(self) -> str:
        """The engine's variable-selection policy
        (:data:`repro.core.ltj.POLICIES`)."""
        return self._engine.policy

    def iterator(self, pattern: TriplePattern) -> PatternIterator:
        raise NotImplementedError

    def _solutions(
        self,
        bgp: BasicGraphPattern,
        timeout: Optional[float],
        var_order: Optional[Sequence[Var]] = None,
        stats: Optional[dict] = None,
    ) -> Iterable[dict[Var, int]]:
        return self._engine.evaluate(
            bgp, timeout=timeout, var_order=var_order, stats=stats
        )

    def explain(self, query: Query) -> dict:
        """The §4.3 plan: elimination order, lonely variables, and the
        exact on-the-fly pattern cardinalities driving both."""
        bgp = parse_bgp(query) if isinstance(query, str) else query
        encoded = self._graph.encode_bgp(bgp)
        if encoded is None:
            return {
                "variable_order": [],
                "lonely_variables": [],
                "pattern_cardinalities": {},
                "empty": True,
            }
        return self._engine.plan(encoded)


class RingIndex(BaseLTJSystem):
    """The paper's system: LTJ over a (plain-bitvector) ring."""

    name = "Ring"

    def __init__(
        self,
        graph: Graph,
        compressed: bool = False,
        block_size: int = 15,
        succinct_counts: bool = False,
        leap_memo_size: int = 1 << 16,
        **engine_options,
    ) -> None:
        super().__init__(graph, **engine_options)
        self._ring = Ring(
            graph,
            compressed=compressed,
            block_size=block_size,
            succinct_counts=succinct_counts,
            leap_memo_size=leap_memo_size,
        )

    @classmethod
    def from_ring(
        cls, ring: Ring, graph: Graph, **engine_options
    ) -> "RingIndex":
        """Wrap a prebuilt ring (memmapped, shm-attached or streamed)
        without re-running index construction."""
        index = cls.__new__(cls)
        BaseLTJSystem.__init__(index, graph, **engine_options)
        index._ring = ring
        return index

    @property
    def ring(self) -> Ring:
        return self._ring

    def iterator(self, pattern: TriplePattern) -> RingIterator:
        return RingIterator(self._ring, pattern)

    def triple(self, i: int) -> tuple[int, int, int]:
        """Recover a triple from the index alone (§3.1.2)."""
        return self._ring.triple(i)

    def size_in_bits(self) -> int:
        return self._ring.size_in_bits()


    # -- regular path queries (§7) ----------------------------------------------

    def evaluate_path(self, expression: str, source, decode: bool = False):
        """Nodes reachable from ``source`` along a regular path.

        ``expression`` uses the mini-syntax of :mod:`repro.core.paths`
        (``adv+``, ``nom/^win``, ``(adv|nom)*`` …).  ``source`` may be a
        node label (dictionary-backed graphs) or an id.  One of the §7
        "further query operators", layered on the ring's leap/enumerate
        primitives — no adjacency lists are materialised.
        """
        from repro.core.paths import PathEvaluator, parse_path

        d = self._graph.dictionary
        if isinstance(source, str):
            if d is None:
                raise ValueError("string nodes require a dictionary")
            if not d.has_node(source):
                return set()
            source_id = d.node_id(source)
        else:
            source_id = int(source)

        def resolve(label):
            if isinstance(label, str):
                if d is None:
                    raise ValueError("string predicates require a dictionary")
                return d.predicate_id(label)  # KeyError -> no matches
            return label

        evaluator = PathEvaluator(self._ring, predicate_resolver=resolve)
        result = evaluator.reachable(source_id, parse_path(expression))
        if decode:
            if d is None:
                raise ValueError("decode requires a dictionary")
            return {d.node_label(v) for v in result}
        return result

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        """Persist the index (source graph + configuration) to ``path``.

        Loading rebuilds the succinct structures — construction is fast
        (§4.4) and the on-disk format stays a plain ``.npz`` plus a JSON
        sidecar manifest carrying the configuration and the payload's
        SHA-256 (see :mod:`repro.reliability.integrity`).
        """
        from repro.graph import io as graph_io
        from repro.reliability.integrity import write_manifest

        graph_io.save_graph(self._graph, path)
        write_manifest(path, compressed=self._ring.compressed, graph=self._graph)

    def save_frozen(self, path) -> dict:
        """Persist the *built ring* as a memory-mappable frozen pack.

        Unlike :meth:`save` (graph ``.npz``, rebuild on load), a frozen
        pack stores the succinct arrays themselves in the flat aligned
        layout of :mod:`repro.core.frozen`, so :meth:`load` can reopen
        it with ``mmap=True`` in O(1) RAM.  Only plain rings freeze
        (RRR/Elias–Fano state raises
        :class:`~repro.core.frozen.RingLayoutError`).  Returns the
        manifest written to the sidecar.
        """
        from repro.core.frozen import write_frozen_ring

        return write_frozen_ring(
            self._ring,
            path,
            n_nodes=self._graph.n_nodes,
            n_predicates=self._graph.n_predicates,
            dictionary=self._graph.dictionary,
        )

    @classmethod
    def load(
        cls, path, verify: bool = True, mmap: bool = False, **options
    ) -> "RingIndex":
        """Inverse of :meth:`save` / :meth:`save_frozen`, with integrity
        checks.

        With ``verify=True`` (default) the payload checksum is compared
        against the manifest, deserialization failures become typed
        :class:`~repro.reliability.integrity.IndexIntegrityError`\\ s,
        and the rebuilt ring runs its structural self-check — a
        corrupted or truncated index is *never* silently served.
        Legacy sidecars without a checksum skip the hash comparison.
        Extra ``options`` (e.g. ``policy=...``) go to the constructor —
        engine configuration is per-process, not part of the manifest.

        Frozen packs (``kind: "frozen-ring"`` sidecars) are detected
        automatically; ``mmap=True`` then backs the arrays with
        read-only ``np.memmap`` views (O(1) RAM, verified layout before
        first touch) instead of one eager read.  ``mmap=True`` on a
        legacy ``.npz`` index raises ``ValueError`` — zip archives are
        not mappable; re-save with :meth:`save_frozen` first.
        """
        from repro.reliability.integrity import (
            checked_load_graph,
            read_manifest,
            verify_file,
            verify_ring_structure,
        )

        manifest = read_manifest(path)
        from repro.core.frozen import is_frozen_manifest

        if is_frozen_manifest(manifest):
            return cls._load_frozen(
                path, manifest, verify=verify, mmap=mmap, **options
            )
        if mmap:
            raise ValueError(
                f"{path}: mmap load requires a frozen-ring pack; this is a "
                "legacy .npz index — re-save it with save_frozen() or "
                "`repro build --frozen`"
            )
        if verify:
            verify_file(path, manifest)
        graph = checked_load_graph(path)
        compressed = bool((manifest or {}).get("compressed", False))
        index = cls(graph, compressed=compressed, **options)
        if verify:
            expected_n = (manifest or {}).get("n_triples", graph.n_triples)
            verify_ring_structure(
                index.ring,
                graph=graph,
                expected_n=expected_n,
                path=path,
            )
        return index

    @classmethod
    def _load_frozen(
        cls, path, manifest, *, verify: bool, mmap: bool, **options
    ) -> "RingIndex":
        """Open a frozen pack (mmap or eager) behind :meth:`load`.

        Eager opens keep the classic deep-verification contract (full
        SHA-256 — the file is read anyway); mmap opens run the O(1)
        layout validation plus the structural spot-check, touching only
        the pages the spot-check needs.
        """
        from repro.core.frozen import (
            FrozenGraph,
            manifest_dictionary,
            open_frozen_ring,
        )
        from repro.reliability.integrity import verify_ring_structure

        ring, manifest = open_frozen_ring(
            path,
            manifest,
            mmap=mmap,
            verify=verify,
            deep_verify=verify and not mmap,
        )
        graph = FrozenGraph(
            ring,
            int(manifest["n_nodes"]),
            int(manifest["n_predicates"]),
            dictionary=manifest_dictionary(manifest),
        )
        index = cls.from_ring(ring, graph, **options)
        if verify:
            verify_ring_structure(
                ring,
                expected_n=int(manifest["n_triples"]),
                path=path,
            )
        return index


class CompressedRingIndex(RingIndex):
    """The C-Ring: RRR-compressed bitvectors, parameter ``b`` (§4.4)."""

    name = "C-Ring"

    def __init__(
        self, graph: Graph, block_size: int = 15, **engine_options
    ) -> None:
        super().__init__(
            graph, compressed=True, block_size=block_size, **engine_options
        )


__all__ = [
    "BaseLTJSystem",
    "BaseQuerySystem",
    "CompressedRingIndex",
    "QueryResult",
    "QueryTimeout",
    "RingIndex",
]
