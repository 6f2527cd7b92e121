"""Packaged query systems: build an index from a Graph, evaluate BGPs.

A query is one frozen :class:`Request` — the BGP plus the paper's
protocol fields (``limit``, ``timeout``) and the serving options —
built once at the edge by :meth:`Request.of` and handed down unchanged
by every layer (broker, cache, coordinator, shard pipe).  Its budget
comes from :meth:`Request.budget`; :func:`admit_rows` applies
``project``/``limit`` and :func:`finish` decodes.
``evaluate(query, limit=…, …)`` is the thin spelling on every surface.
:class:`BaseQuerySystem` fixes the query-time conventions;
:class:`BaseLTJSystem` adds LTJ plumbing shared by the ring and the wco
baselines.
"""

from __future__ import annotations

from numbers import Integral
from typing import Iterable, NamedTuple, Optional, Sequence, Union  # noqa: F401

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


class Request(NamedTuple):
    """One query as its caller asked it: frozen and picklable.

    ``bgp`` is parsed; ``project`` is a tuple of variables or ``None``;
    ``limit``, ``timeout`` (seconds) and ``max_ops`` are ``None`` when
    unbounded.  Build it with :meth:`of`; derive variants (a per-shard
    sub-query, a broker's default timeout) with ``_replace``.
    """

    bgp: BasicGraphPattern
    limit: Optional[int] = None
    project: Optional[tuple] = None
    decode: bool = False
    partial: bool = False
    timeout: Optional[float] = None
    max_ops: Optional[int] = None

    @classmethod
    def of(cls, query: Union[Query, "Request"], **fields) -> "Request":
        """The one constructor: a string (parsed here) or a parsed BGP
        plus any of the fields above, by keyword — an unknown keyword is
        a ``TypeError`` at this call.  A request passes through as is."""
        if isinstance(query, Request):
            if fields:
                raise TypeError(f"a Request carries its own fields: {fields}")
            return query
        limit = fields.get("limit")
        if limit is not None:
            if (isinstance(limit, bool) or not isinstance(limit, Integral)
                    or limit < 0):
                raise ValueError(
                    f"limit must be a non-negative integer, not {limit!r}"
                )
            fields["limit"] = int(limit)
        if fields.get("project") is not None:
            fields["project"] = tuple(fields["project"])
        return cls(parse_bgp(query) if isinstance(query, str) else query, **fields)

    def budget(self, token: Optional[CancellationToken] = None) -> ResourceBudget:
        """The budget this request runs under: its ``timeout``,
        ``max_ops`` and ``limit`` (as the solution cap), plus ``token``."""
        return ResourceBudget(
            timeout=self.timeout,
            max_ops=self.max_ops,
            max_solutions=self.limit,
            token=token,
        )


def admit_rows(out: QueryResult, rows: Iterable[dict], budget: ResourceBudget,
               limit: Optional[int] = None,
               project: Optional[Sequence[Var]] = None) -> None:
    """Append ``rows`` to ``out`` under ``project`` (restrict, then drop
    duplicates), ``limit`` and ``budget``'s solution cap.

    Stopping at the limit is not a truncation: ``out.truncated`` is left
    for the interruptions (deadline, cancellation, failed shards).  A
    cap already reached on entry (``limit=0``) admits no row and never
    starts ``rows``."""
    if (limit is not None and len(out) >= limit) or (
        budget.max_solutions is not None
        and budget.solutions >= budget.max_solutions
    ):
        return
    seen: set[frozenset] = set()
    for solution in rows:
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


def finish(graph: Graph, request: Request, result: QueryResult) -> QueryResult:
    """``result`` as ``request`` asked for it: ``{name: label}`` rows
    through the graph's dictionary when ``request.decode``, else as is."""
    if not request.decode:
        return result
    roles = graph.variable_roles(request.bgp)
    return QueryResult(
        graph.decode_solution(s, roles) for s in result
    )._copy_flags(result)


class Countable:
    """``count`` for anything with ``evaluate``: the number of rows."""

    def count(self, query, **fields) -> int:
        """Number of solutions (no limit unless one is asked for)."""
        return len(self.evaluate(query, **fields))


class Submitting(Countable):
    """``evaluate`` for anything with ``submit``: wait on the future."""

    def evaluate(self, query, **fields) -> QueryResult:
        return self.submit(query, **fields).result()


class BaseQuerySystem(Countable):
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
        query: Union[Query, Request],
        *,
        cancellation: Optional[CancellationToken] = None,
        budget: Optional[ResourceBudget] = None,
        var_order: Optional[Sequence[Var]] = None,
        stats: Optional[dict] = None,
        **fields,
    ) -> QueryResult:
        """Evaluate a :class:`Request` (or ``query`` plus its fields).

        ``limit`` (1000 in the paper) caps the solutions; ``timeout``
        (seconds) and ``max_ops`` abort with
        :class:`~repro.core.interface.QueryTimeout`, unless
        ``partial=True``, which returns the rows found so far with
        ``result.truncated`` set.  ``project`` restricts solutions to its
        variables and drops duplicates (SPARQL ``SELECT DISTINCT``, a §7
        "further query operator"); ``decode=True`` returns ``{name:
        label}`` rows instead of ``{Var: id}``.

        In-process handles, never request fields: ``cancellation`` (a
        :class:`~repro.reliability.budget.CancellationToken`, raising
        :class:`~repro.core.interface.QueryCancelled`), ``budget`` (a
        pre-built, possibly shared budget overriding ``timeout``/
        ``max_ops``/``cancellation``) and ``var_order``/``stats``, which
        steer and measure the engine.  Unexpected engine failures are
        wrapped into :class:`~repro.core.interface.QueryExecutionError`
        with the failing BGP attached, so callers only ever see
        :class:`~repro.core.interface.QueryError` subclasses or correct
        results.
        """
        request = Request.of(query, **fields)
        bgp = request.bgp
        encoded = self._graph.encode_bgp(bgp)
        if encoded is None:  # a constant is absent from the graph
            return QueryResult()
        if budget is None:
            budget = request.budget(cancellation)
        limit, project = request.limit, request.project
        out = QueryResult()
        out.budget = budget
        try:
            # A query shorter than one budget check interval would
            # otherwise never consult a deadline or token spent on entry.
            budget.poll()
            rows = self._solutions(encoded, budget, var_order=var_order, stats=stats)
            admit_rows(out, rows, budget, limit, project)
        except (QueryTimeout, QueryCancelled) as exc:
            if not request.partial:
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
        return finish(self._graph, request, out)

    def bytes_per_triple(self) -> float:
        """The space unit of the paper's Tables 1 and 2."""
        n = max(self._graph.n_triples, 1)
        return self.size_in_bits() / 8 / n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self._graph.n_triples})"


class BaseLTJSystem(BaseQuerySystem):
    """A system whose engine is Leapfrog TrieJoin over its iterators.

    ``engine_options`` (``use_lonely``, ``use_ordering``) are
    declared once, on :class:`~repro.core.ltj.LeapfrogTrieJoin`; every
    subclass forwards them here untouched.
    """

    def __init__(self, graph: Graph, **engine_options) -> None:
        super().__init__(graph)
        self._engine = LeapfrogTrieJoin(
            self.iterator, graph.n_triples, **engine_options
        )

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
        **engine_options,
    ) -> None:
        super().__init__(graph, **engine_options)
        self._ring = Ring(
            graph,
            compressed=compressed,
            block_size=block_size,
            succinct_counts=succinct_counts,
        )

    @classmethod
    def from_ring(
        cls, ring: Ring, graph: Graph, **engine_options
    ) -> "RingIndex":
        """Wrap a prebuilt ring (memmapped, eagerly read from a pack or
        streamed) without re-running index construction."""
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

        Both formats open through the one reader ``repro verify`` also
        runs (:func:`~repro.reliability.integrity.open_npz_index`,
        :func:`~repro.core.frozen.open_frozen_ring`; §8.2 of
        ``docs/INTERNALS.md`` lists their checks per mode), so a
        corrupted or truncated index raises a typed
        :class:`~repro.reliability.integrity.IndexIntegrityError` and is
        *never* silently served.  ``verify=False`` skips the checks.
        Extra ``options`` (e.g. ``use_lonely=...``) go to the constructor —
        engine configuration is per-process, not part of the manifest.

        Frozen packs (``kind: "frozen-ring"`` sidecars) are detected
        automatically; ``mmap=True`` then backs the arrays with
        read-only ``np.memmap`` views (O(1) RAM, verified layout before
        first touch) instead of one eager read.  ``mmap=True`` on a
        legacy ``.npz`` index raises ``ValueError`` — zip archives are
        not mappable; re-save with :meth:`save_frozen` first.
        """
        from repro.core.frozen import (
            FrozenGraph,
            is_frozen_manifest,
            manifest_dictionary,
            open_frozen_ring,
        )
        from repro.reliability.integrity import open_npz_index, read_manifest

        manifest = read_manifest(path)
        if is_frozen_manifest(manifest):
            ring, _ = open_frozen_ring(path, manifest, mmap=mmap, verify=verify)
            graph = FrozenGraph(
                ring,
                int(manifest["n_nodes"]),
                int(manifest["n_predicates"]),
                dictionary=manifest_dictionary(manifest),
            )
            return cls.from_ring(ring, graph, **options)
        if mmap:
            raise ValueError(
                f"{path}: mmap load requires a frozen-ring pack; this is a "
                "legacy .npz index — re-save it with save_frozen() or "
                "`repro build --frozen`"
            )
        index, _ = open_npz_index(
            path, manifest, verify=verify, index_cls=cls, **options
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
    "Countable",
    "QueryResult",
    "QueryTimeout",
    "Request",
    "RingIndex",
    "Submitting",
    "admit_rows",
    "finish",
]
