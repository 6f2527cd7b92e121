"""Dynamic ring: insertions and deletions over static rings (§7).

The paper's conclusions sketch two routes to updates; this implements
the second: *"we can trade such a penalty factor for amortised update
times by taking the union of results over a small dynamic text index
where new triples are added, and a constant amount of increasing static
rings for handling space overflows [32].  Various static rings can be
merged periodically with the dynamic index to build a bigger ring."*

Concretely (an LSM shape):

- inserts land in a small **buffer** (indexed with sorted orders so it
  can serve LTJ leaps);
- when the buffer exceeds its threshold it is frozen into a new static
  :class:`~repro.core.ring.Ring`; rings of similar size are merged
  geometrically, keeping the component count logarithmic;
- deletes of buffered triples remove them outright; deletes of
  ring-resident triples become **tombstones**, folded away at the next
  merge touching their ring;
- queries run LTJ over a **union iterator**: a leap over the union is
  the minimum of the component leaps, with a live-ness check against
  the tombstones (skipping values whose only support was deleted).

Queries therefore stay worst-case optimal up to the (logarithmic)
component count and the tombstone volume — the amortised trade the
paper describes.

Concurrency model (the serving-layer contract):

- every mutation (``insert``/``delete``/``compact``) runs under one
  writer lock and bumps a monotonically increasing **epoch**;
- every query captures an immutable :class:`DynamicSnapshot` — the
  component rings, a frozen copy of the buffer and tombstones, and the
  epoch — under the same lock, then evaluates entirely against that
  snapshot.  A merge or freeze racing with the query swaps the
  component list *behind* it; the snapshot keeps the old (immutable)
  rings alive, so in-flight queries always see exactly the state of
  one epoch, never a torn mix;
- the union iterator charges the query's
  :class:`~repro.reliability.budget.ResourceBudget` one tick per
  component leap, per liveness probe, and per tombstone scanned, so op
  caps, deadlines and cancellation fire on the dynamic engine exactly
  as they do on the static ones.

Durability (WAL + checkpoints) and admission control live one layer up
in :mod:`repro.reliability.wal` and :mod:`repro.reliability.broker`.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.baselines.sorted_orders import ALL_ORDERS, OrderSet, OrderSetIterator
from repro.core.interface import first_candidate
from repro.core.iterators import RingIterator
from repro.core.ring import Ring
from repro.core.system import BaseLTJSystem
from repro.graph.dataset import Graph
from repro.graph.model import TriplePattern, Var
from repro.reliability.budget import ResourceBudget

DEFAULT_BUFFER_THRESHOLD = 1024

Triple = tuple[int, int, int]


def _matches(pattern: TriplePattern, triple: Triple) -> bool:
    binding: dict[Var, int] = {}
    for term, value in zip(pattern.terms, triple):
        if isinstance(term, Var):
            if binding.get(term, value) != value:
                return False
            binding[term] = value
        elif term != value:
            return False
    return True


class _UnionIterator:
    """LTJ iterator over several components minus tombstones.

    All work that the engine cannot see — the fan-out over component
    leaps, liveness probes, and tombstone scans — is charged to the
    query's :class:`ResourceBudget` here, one tick per elementary
    operation, matching how the static engines account theirs.
    """

    def __init__(
        self,
        components: list,
        tombstones: frozenset[Triple],
        pattern: TriplePattern,
        budget: Optional[ResourceBudget] = None,
    ) -> None:
        self._components = components
        self._tombstones = tombstones
        self._pattern = pattern
        self._budget = budget if budget is not None else ResourceBudget()
        self._binding: dict[Var, int] = {}
        self._stack: list[Var] = []

    @property
    def pattern(self) -> TriplePattern:
        return self._pattern

    def _current_pattern(self) -> TriplePattern:
        return self._pattern.substitute(self._binding)

    def _tomb_count(self, pattern: TriplePattern) -> int:
        if not self._tombstones:
            return 0
        self._budget.tick_many(len(self._tombstones))
        return sum(1 for t in self._tombstones if _matches(pattern, t))

    def count(self) -> int:
        self._budget.tick_many(len(self._components))
        total = sum(c.count() for c in self._components)
        return max(total - self._tomb_count(self._current_pattern()), 0)

    def leap(self, var: Var, c: int) -> Optional[int]:
        budget = self._budget
        while True:
            candidate: Optional[int] = None
            for comp in self._components:
                budget.tick()
                value = comp.leap(var, c)
                if value is not None and (candidate is None or value < candidate):
                    candidate = value
            if candidate is None:
                return None
            if not self._tombstones:
                return candidate
            # Live-ness: some matching triple must survive the tombstones.
            trial = self._current_pattern().substitute({var: candidate})
            support = 0
            for comp in self._components:
                budget.tick()
                comp.bind(var, candidate)
                support += comp.count()
                comp.unbind(var)
            if support - self._tomb_count(trial) > 0:
                return candidate
            c = candidate + 1

    def bind(self, var: Var, value: int) -> None:
        for comp in self._components:
            comp.bind(var, value)
        self._binding[var] = value
        self._stack.append(var)

    def unbind(self, var: Var) -> None:
        if not self._stack or self._stack[-1] != var:
            raise ValueError("unbind order violation")
        self._stack.pop()
        del self._binding[var]
        for comp in self._components:
            comp.unbind(var)

    def values(self, var: Var) -> Iterator[int]:
        c = 0
        while True:
            value = self.leap(var, c)
            if value is None:
                return
            yield value
            c = value + 1

    def preferred_lonely(self, candidates: Iterable[Var]) -> Var:
        return first_candidate(candidates)


class _EmptyIterator:
    """Iterator of an empty component (placates the union)."""

    def __init__(self, pattern: TriplePattern) -> None:
        self.pattern = pattern

    def count(self) -> int:
        return 0

    def leap(self, var: Var, c: int) -> Optional[int]:
        return None

    def bind(self, var: Var, value: int) -> None:
        pass

    def unbind(self, var: Var) -> None:
        pass

    def values(self, var: Var) -> Iterator[int]:
        return iter(())

    def preferred_lonely(self, candidates: Iterable[Var]) -> Var:
        return first_candidate(candidates)


class DynamicSnapshot:
    """An immutable view of the index at one epoch.

    Rings are immutable objects shared with the live index; the buffer
    and tombstone sets are frozen copies.  Queries built from a
    snapshot are unaffected by concurrent inserts, deletes, freezes and
    merges — they answer exactly as the index did at ``epoch``.
    """

    __slots__ = ("epoch", "rings", "buffer", "orders", "tombstones")

    def __init__(
        self,
        epoch: int,
        rings: tuple[Ring, ...],
        buffer: frozenset[Triple],
        orders: Optional[OrderSet],
        tombstones: frozenset[Triple],
    ) -> None:
        self.epoch = epoch
        self.rings = rings
        self.buffer = buffer
        self.orders = orders
        self.tombstones = tombstones

    @property
    def n_triples(self) -> int:
        return sum(r.n for r in self.rings) + len(self.buffer) - len(self.tombstones)

    def iterator(
        self,
        pattern: TriplePattern,
        budget: Optional[ResourceBudget] = None,
    ) -> _UnionIterator:
        components: list = [RingIterator(r, pattern) for r in self.rings]
        if self.buffer:
            components.append(OrderSetIterator(self.orders, pattern))
        if not components:
            components.append(_EmptyIterator(pattern))
        return _UnionIterator(components, self.tombstones, pattern, budget)

    def live_triples(self) -> set[Triple]:
        """Materialise the snapshot's triples as plain tuples."""
        live: set[Triple] = set(self.buffer)
        for ring in self.rings:
            live.update(map(tuple, ring.triples().tolist()))
        live -= self.tombstones
        return live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicSnapshot(epoch={self.epoch}, rings={len(self.rings)}, "
            f"buffer={len(self.buffer)}, tombstones={len(self.tombstones)})"
        )


class DynamicRingIndex(BaseLTJSystem):
    """A ring index supporting ``insert`` and ``delete``.

    Parameters
    ----------
    graph:
        Initial contents (may be empty).
    buffer_threshold:
        Buffered inserts before the buffer freezes into a ring.
    auto_compact:
        Freeze/merge automatically when thresholds are crossed (the
        default).  ``False`` defers all compaction to explicit
        :meth:`compact` / :meth:`maintenance` calls — the mode the
        query broker uses to run merges on a background thread.
    """

    name = "DynamicRing"

    def __init__(
        self,
        graph: Graph,
        buffer_threshold: int = DEFAULT_BUFFER_THRESHOLD,
        auto_compact: bool = True,
        **engine_options,
    ) -> None:
        super().__init__(graph, **engine_options)
        self._n_nodes = graph.n_nodes
        self._n_predicates = graph.n_predicates
        self._threshold = max(buffer_threshold, 8)
        self._auto_compact = auto_compact
        self._rings: list[Ring] = []
        if graph.n_triples:
            self._rings.append(Ring(graph))
        self._buffer: set[Triple] = set()
        self._buffer_orders: Optional[OrderSet] = None
        self._tombstones: set[Triple] = set()
        self._lock = threading.RLock()
        self._epoch = 0
        self._tls = threading.local()

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_components(
        cls,
        universe: Graph,
        rings: Iterable[Ring],
        buffer: Iterable[Triple],
        tombstones: Iterable[Triple],
        buffer_threshold: int = DEFAULT_BUFFER_THRESHOLD,
        epoch: int = 0,
        **kwargs,
    ) -> "DynamicRingIndex":
        """Reassemble an index from persisted components (recovery path).

        ``universe`` fixes the id universes (and carries the dictionary,
        if any) but contributes no triples of its own; the contents come
        from ``rings``, ``buffer`` and ``tombstones`` exactly as a
        checkpoint captured them.  ``epoch`` seeds the epoch counter so
        it stays monotone across restarts (checkpoint directories are
        named by epoch).
        """
        if universe.n_triples:
            raise ValueError(
                "from_components wants an empty universe graph; initial "
                "triples belong in the ring components"
            )
        index = cls(universe, buffer_threshold=buffer_threshold, **kwargs)
        index._rings = list(rings)
        index._buffer = {tuple(int(v) for v in t) for t in buffer}
        index._tombstones = {tuple(int(v) for v in t) for t in tombstones}
        index._buffer_orders = None
        index._epoch = int(epoch)
        return index

    # -- sizes -----------------------------------------------------------------

    @property
    def n_triples(self) -> int:
        with self._lock:
            return (
                sum(r.n for r in self._rings)
                + len(self._buffer)
                - len(self._tombstones)
            )

    @property
    def n_components(self) -> int:
        with self._lock:
            return len(self._rings) + (1 if self._buffer else 0)

    @property
    def epoch(self) -> int:
        """Monotonic version counter; bumped by every mutation."""
        return self._epoch

    def cache_generation(self) -> int:
        """Serving-cache invalidation token: the epoch.

        Every ``insert``/``delete`` *and* every compaction bumps the
        epoch, so generation-tagged cache entries (see
        :mod:`repro.cache`) go stale on any visible write — compaction
        included, which is logically content-preserving but swaps the
        component set cached plans and statistics were measured
        against.
        """
        return self._epoch

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> DynamicSnapshot:
        """Capture an immutable view of the current epoch.

        O(|buffer| + |tombstones|) set copies plus (amortised) the
        buffer's :class:`OrderSet`, which is cached until the next
        buffer mutation and shared by every snapshot of the epoch.
        """
        with self._lock:
            orders = self._orders() if self._buffer else None
            return DynamicSnapshot(
                self._epoch,
                tuple(self._rings),
                frozenset(self._buffer),
                orders,
                frozenset(self._tombstones),
            )

    def _orders(self) -> OrderSet:
        if self._buffer_orders is None:
            self._buffer_orders = OrderSet(
                self._graph_of(sorted(self._buffer)), ALL_ORDERS
            )
        return self._buffer_orders

    # -- updates ----------------------------------------------------------------

    def _contains_static(self, triple: Triple) -> bool:
        return any(r.contains(*triple) for r in self._rings)

    def contains(self, s: int, p: int, o: int) -> bool:
        triple = (int(s), int(p), int(o))
        with self._lock:
            if triple in self._buffer:
                return True
            if triple in self._tombstones:
                return False
            return self._contains_static(triple)

    def insert(self, s: int, p: int, o: int) -> bool:
        """Add a triple; returns ``False`` when it was already present.

        Node/predicate ids must fit the universes fixed at construction
        (growing the dictionary means growing the wavelet alphabets,
        which a static ring cannot do — the paper's structure shares
        this constraint).
        """
        triple = (int(s), int(p), int(o))
        self._check_ids(triple)
        with self._lock:
            if triple in self._tombstones:
                self._tombstones.discard(triple)
                self._epoch += 1
                return True
            if triple in self._buffer or self._contains_static(triple):
                return False
            self._buffer.add(triple)
            self._buffer_orders = None
            self._epoch += 1
            if self._auto_compact and len(self._buffer) >= self._threshold:
                self._compact()
            return True

    def delete(self, s: int, p: int, o: int) -> bool:
        """Remove a triple; returns ``False`` when it was absent."""
        triple = (int(s), int(p), int(o))
        with self._lock:
            if triple in self._buffer:
                self._buffer.discard(triple)
                self._buffer_orders = None
                self._epoch += 1
                return True
            if triple in self._tombstones:
                return False
            if self._contains_static(triple):
                self._tombstones.add(triple)
                self._epoch += 1
                if self._auto_compact and len(self._tombstones) >= self._threshold:
                    self._compact(full=True)
                return True
            return False

    def insert_labelled(self, s: str, p: str, o: str) -> bool:
        """Label-level insert (requires a dictionary-backed graph).

        Labels must already be interned: a static ring's wavelet
        alphabets cannot grow, so genuinely new constants require a
        rebuild — the same constraint the paper's structure has.
        """
        return self.insert(*self._encode_labels(s, p, o))

    def delete_labelled(self, s: str, p: str, o: str) -> bool:
        """Label-level delete (requires a dictionary-backed graph)."""
        try:
            triple = self._encode_labels(s, p, o)
        except KeyError:
            return False  # unknown label: nothing to delete
        return self.delete(*triple)

    def _encode_labels(self, s: str, p: str, o: str) -> Triple:
        d = self.graph.dictionary
        if d is None:
            raise ValueError("label-level updates require a dictionary")
        return (d.node_id(s), d.predicate_id(p), d.node_id(o))

    def _check_ids(self, triple: Triple) -> None:
        s, p, o = triple
        if not (0 <= s < self._n_nodes and 0 <= o < self._n_nodes):
            raise ValueError("node id outside the graph's universe")
        if not 0 <= p < self._n_predicates:
            raise ValueError("predicate id outside the graph's universe")

    # -- compaction --------------------------------------------------------------

    def compact(self, full: bool = False) -> None:
        """Freeze the buffer and run geometric merges, under the lock.

        Safe to call from a background thread: in-flight queries hold
        snapshots of the pre-merge components and finish against those;
        only queries admitted after the swap see the merged layout.
        """
        with self._lock:
            self._compact(full=full)

    @property
    def needs_compaction(self) -> bool:
        """Whether a maintenance pass would do any work right now."""
        with self._lock:
            return (
                len(self._buffer) >= self._threshold
                or len(self._tombstones) >= self._threshold
                or len(self._rings) > 8
            )

    def maintenance(self) -> bool:
        """One background maintenance step; returns whether it compacted."""
        with self._lock:
            if not self.needs_compaction:
                return False
            self._compact(full=len(self._tombstones) >= self._threshold)
            return True

    def _compact(self, full: bool = False) -> None:
        """Freeze the buffer into a ring; merge similar-sized rings.

        ``full=True`` merges *everything* (used to fold tombstones away).
        Caller holds the writer lock (public entry points acquire it).
        """
        if self._buffer:
            self._rings.append(Ring(self._graph_of(sorted(self._buffer))))
            self._buffer.clear()
            self._buffer_orders = None
        if full:
            merged, _ = self._merge_rows(self._rings)
            self._tombstones.clear()
            self._rings = [Ring(self._graph_of(merged))] if len(merged) else []
            self._epoch += 1
            return
        # Geometric merging: keep sizes growing by at least 2x.
        self._rings.sort(key=lambda r: r.n)
        while len(self._rings) >= 2 and (
            self._rings[-1].n < 2 * self._rings[-2].n or len(self._rings) > 8
        ):
            a = self._rings.pop()
            b = self._rings.pop()
            survivors, applied = self._merge_rows([a, b])
            self._tombstones -= applied
            if len(survivors):
                self._rings.append(Ring(self._graph_of(survivors)))
            self._rings.sort(key=lambda r: r.n)
        # Retire memoised leaps on the retained rings.  Component rings
        # are immutable, so their memos could never serve a *wrong*
        # answer — but the component set just changed under them, and
        # bumping the generation here guarantees no cached leap predates
        # the current epoch even if a future ring variant (shared-memory
        # re-attach, in-place patching) breaks that immutability
        # assumption.  Cost: one counter bump + dict clear per ring.
        for ring in self._rings:
            ring.invalidate_leap_memo()
        self._epoch += 1

    def _merge_rows(self, rings) -> tuple[np.ndarray, set[Triple]]:
        """Bulk-decode ``rings`` into one ``(n, 3)`` array without the
        tombstoned rows; also returns the tombstones that applied."""
        rows = np.concatenate(
            [np.empty((0, 3), dtype=np.int64)] + [r.triples() for r in rings]
        )
        if not self._tombstones or not len(rows):
            return rows, set()
        dead = np.array(list(self._tombstones), dtype=np.int64)
        # Row identity as one integer per distinct row of the union.
        ids = np.unique(
            np.concatenate([dead, rows]), axis=0, return_inverse=True
        )[1].ravel()
        dead_ids, row_ids = ids[: len(dead)], ids[len(dead):]
        applied = dead[np.isin(dead_ids, row_ids)]
        return (
            rows[~np.isin(row_ids, dead_ids)],
            set(map(tuple, applied.tolist())),
        )

    def _graph_of(self, triples) -> Graph:
        arr = np.array(triples, dtype=np.int64).reshape(-1, 3)
        return Graph(
            arr, n_nodes=self._n_nodes, n_predicates=self._n_predicates
        )

    # -- queries ----------------------------------------------------------------

    def _solutions(self, bgp, timeout, **options):
        # Pin one snapshot (and the query's budget) for the whole
        # evaluation: the engine's iterator-factory calls below land on
        # it via the thread-local stack, so every pattern iterator of
        # this query sees the same epoch even while writers and the
        # background compactor run.
        budget = ResourceBudget.coerce(timeout)
        snap = self.snapshot()
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        stack.append((snap, budget))
        try:
            yield from self._engine.evaluate(bgp, timeout=budget, **options)
        finally:
            stack.pop()

    def iterator(self, pattern: TriplePattern) -> _UnionIterator:
        stack = getattr(self._tls, "stack", None)
        if stack:
            snap, budget = stack[-1]
        else:  # direct engine use outside evaluate(): fresh snapshot
            snap, budget = self.snapshot(), None
        return snap.iterator(pattern, budget)

    def to_graph(self) -> Graph:
        """Materialise the current live triples."""
        return self._graph_of(sorted(self.snapshot().live_triples()))

    def size_in_bits(self) -> int:
        with self._lock:
            ring_bits = sum(r.size_in_bits() for r in self._rings)
            buffer_bits = 3 * 64 * len(self._buffer)
            tomb_bits = 3 * 64 * len(self._tombstones)
            if self._buffer_orders is not None:
                buffer_bits += self._buffer_orders.size_in_bits()
            return ring_bits + buffer_bits + tomb_bits + 256
