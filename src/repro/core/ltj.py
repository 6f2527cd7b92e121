"""Leapfrog TrieJoin (Algorithm 1) over the trie-iterator protocol.

The engine is index-agnostic: anything supplying per-pattern
:class:`~repro.core.interface.PatternIterator` objects can execute wco
joins through it (the ring, the 6-order flat tries, the B+tree orders…).

Besides the core variable-elimination loop it implements the paper's two
engineering refinements:

- §4.3 *on-the-fly variable ordering*: variables (that appear in more
  than one pattern) are eliminated by increasing ``c_min(x) =
  min_{t ∈ Q_x} count(t)/n``, keeping each new variable connected to the
  previously chosen ones when possible;
- §4.2 *lonely variables*: variables occurring in a single pattern are
  deferred; once the shared variables are bound, each pattern's remaining
  bindings are read off its range directly (cross-product across
  patterns), enumerating backwards so the wavelet matrices' ``distinct``
  operation applies.  A pattern's range depends only on that binding,
  so it is read once per leaf and replayed for every row of the
  patterns before it.

On top of those the engine leans on the succinct kernels wherever an
iterator offers them:

- the search recurses over **blocks** of partial bindings — up to
  :data:`BLOCK_SIZE` of one depth, in emission order, across parents —
  not over one binding at a time;
- the ring iterators whose leap on a variable is *backward* are not
  leapt at all: their ranges descend their wavelet matrices in lockstep
  (the Radix-Triejoin reading of the matrices), which reaches each
  value they share once, in increasing order, and hands every one of
  them the range its bind would have computed; the variable's other
  iterators verify each such value with a leap.  A block of at least
  :data:`BATCH_CROSSOVER` bindings descends in one batched,
  level-synchronous call
  (:meth:`repro.core.ring.Ring.backward_lockstep_many`), a shorter one
  binding by binding (:meth:`repro.core.ring.Ring.backward_lockstep`).
  With one iterator this is its ordered value sweep;
- lonely patterns whose iterator offers ``solutions_bulk`` have their
  whole Lemma 3.6 range bulk-decoded into row-aligned columns
  (chunked), replacing the per-triple bind/leap walk.  A range of at
  most one chunk is decoded once per leaf, on first use, and replayed
  for every row of the patterns before it; a longer one is decoded
  again for each of those rows, so memory stays one chunk per pattern.
  The innermost pattern's rows leave in a flat loop; each is a solution,
  so under a cap its first chunk holds only the rows the cap has left.
  Iterators without it (every baseline, the dynamic ring's union) take
  the scalar walk;
- the leapfrog seeks that remain (iterators with no zone state, such as
  the dynamic ring's union) hit the ring's LRU leap memo (see
  :meth:`repro.core.ring.Ring.backward_leap`).  A query with such an
  iterator searches blocks of one binding: the classic depth-first
  search.

Work is charged when a binding is *consumed*, not when its block
computes it: leaps, binds and budget ticks reach ``stats`` and the
shared :class:`ResourceBudget` (through ``tick_many``, which raises
where as many single ticks would) in exactly the order and amounts of
the one-binding search, so rows, the cost ledger, op caps and ``limit``
cut-offs are the same either way.  The deadline and the cancellation
token need no charge: they are polled once per ``tick_mask + 1`` ticks
of work done, charged or not, so they fire mid-search even where no
binding is ever consumed.

The two paper refinements can be disabled (``use_lonely`` /
``use_ordering``) for the ablation benchmarks.  The elimination order
is fixed before the first leap, as §4.3 plans it: every binding of a
depth eliminates the same variable, which is what lets one batched
descent serve a whole block.
"""

from __future__ import annotations

import copy
import sys
from bisect import bisect_left, bisect_right
from typing import (
    Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union,
)

import numpy as np

from repro.core.interface import PatternIterator
from repro.graph.model import BasicGraphPattern, TriplePattern, Var
from repro.perf.counters import event
from repro.reliability.budget import ResourceBudget

IteratorFactory = Callable[[TriplePattern], PatternIterator]

#: Above any tick count: a budget with no clock or token never polls.
_UNBOUNDED = sys.maxsize

#: Most bindings of one depth a block of the search carries, across
#: parents: the frontier one batched descent can serve.
BLOCK_SIZE = 256

#: Fewest bindings of a block one batched descent serves; a smaller
#: block descends one binding at a time.  On the blocks the cyclic
#: WGPB queries batch, one batched descent of 16 / 20 / 32 / 64 / 256
#: problems ran 0.94x / 1.09x / 1.73x / 2.85x / 5.47x as fast as their
#: scalar descents: even at about 20, with margin at 32.
BATCH_CROSSOVER = 32


class _Group(NamedTuple):
    """A variable's lockstep group: the backward iterators as ``zs``
    slots with their zones (the matrices a descent walks), the
    verifiers, and the verifiers that have zone state (``(iterator,
    slot)``, re-read after each bind)."""

    ring: object
    slots: tuple[int, ...]
    zones: tuple[int, ...]
    verifiers: list
    rebind: list


def _lockstep_group(
    iters: Sequence[PatternIterator], var: Var, slot: dict[int, int]
) -> Optional[_Group]:
    """Split a variable's iterators for a lockstep descent.

    The ring iterators whose leap on ``var`` is backward descend their
    zone matrices together from their zone states; the rest — forward,
    free, repeated, or with no zone state at all (the baselines, the
    dynamic ring's union) — verify its candidates.  ``slot`` maps an
    iterator's ``id`` to its ``zs`` slot.  ``None`` sends the whole
    group to the leapfrog ``_seek``: no iterator is backward, or the
    backward ones do not share one ring and one level count.
    """
    ring = levels = None
    slots, zones, verifiers = [], [], []
    for it in iters:
        zone_state = getattr(it, "zone_state", None)
        state = zone_state() if zone_state is not None else None
        if state is None or it.leap_direction(var) != "backward":
            verifiers.append(it)
            continue
        depth = it.ring.zone_sequence(state[0]).levels
        if ring is None:
            ring, levels = it.ring, depth
        elif it.ring is not ring or depth != levels:
            return None
        slots.append(slot[id(it)])
        zones.append(state[0])
    if ring is None:
        return None
    rebind = [(it, slot[id(it)]) for it in verifiers if id(it) in slot]
    return _Group(ring, tuple(slots), tuple(zones), verifiers, rebind)


class _Tally:
    """Work done since it was last taken: ``ticks`` and ``leaps`` as a
    one-binding search charges them, and ``batched``, the values a
    batched descent served.

    One per query.  The search's generators nest, and each takes the
    tally before it yields a node or returns, so what the tally holds is
    always the running node's work.  Nothing is charged before a binding
    is consumed, so the tally also polls the budget's clock and token
    (:meth:`ResourceBudget.poll`, never the op cap) once per ``tick_mask
    + 1`` ticks it sees, charged or not: a search that reaches no leaf
    still times out and cancels on time.
    """

    __slots__ = ("ticks", "leaps", "batched", "due", "period", "budget")

    def __init__(self, budget: ResourceBudget) -> None:
        self.ticks = self.leaps = self.batched = 0
        self.budget = budget
        pollable = budget.deadline is not None or budget.token is not None
        #: Ticks between polls; ``due`` is where ``ticks`` polls next.
        self.period = budget.tick_mask + 1 if pollable else _UNBOUNDED
        self.due = self.period

    def tick(self) -> None:
        self.ticks += 1
        if self.ticks >= self.due:
            self.poll()

    def poll(self) -> None:
        self.budget.poll()
        self.due = self.ticks + self.period

    def take(self) -> tuple[int, int, int]:
        """``(ticks, leaps, batched)`` since the last take, zeroed; the
        countdown to the next poll runs on."""
        taken = self.ticks, self.leaps, self.batched
        self.due -= self.ticks
        self.ticks = self.leaps = self.batched = 0
        return taken


class _Query:
    """Per-evaluation state of the block search: the iterators, the
    elimination order, the path the iterators are bound to and the
    growing block size."""

    __slots__ = (
        "by_var", "lonely", "deadline", "order", "slot",
        "binders", "path", "block", "cap", "frontier", "carry", "tally",
    )

    def __init__(
        self,
        live: Sequence[PatternIterator],
        by_var: dict[Var, list[PatternIterator]],
        order: list[Var],
        lonely: Sequence[tuple[PatternIterator, list[Var]]],
        deadline: ResourceBudget,
    ) -> None:
        self.by_var = by_var
        self.lonely = lonely
        self.deadline = deadline
        #: The variable every node of depth ``d`` eliminates: ``order[d]``.
        self.order = order
        #: ``zs`` slot of every iterator with zone state, by ``id``.
        self.slot: dict[int, int] = {}
        zs = []
        for it in live:
            zone_state = getattr(it, "zone_state", None)
            if zone_state is not None:
                self.slot[id(it)] = len(zs)
                zs.append(zone_state())
        self.binders = {
            var: [(it, self.slot.get(id(it))) for it in its]
            for var, its in by_var.items()
        }
        #: The nodes the iterators are bound to, root excluded.
        self.path: list = []
        self.block = BLOCK_SIZE if len(zs) == len(live) else 1
        #: The size at which a depth's waiting nodes are searched next
        #: (doubling per block searched, up to ``block``).
        self.cap = 1
        #: Per depth, the nodes waiting to be searched and the work
        #: charged to the next node to join them.
        root = (None, None, None, 0, tuple(zs), (0, 0, 0, 0))
        self.frontier: list[list] = [[root]] + [[] for _ in order]
        self.carry = [[0, 0, 0, 0] for _ in range(len(order) + 1)]
        self.tally = _Tally(deadline)


def _binding_of(node: tuple) -> dict[Var, int]:
    """``{var: value}`` along ``node``'s path, in binding order."""
    pairs = []
    while node[0] is not None:
        pairs.append((node[1], node[2]))
        node = node[0]
    return dict(reversed(pairs))


def _scalar_descent(ring, states: list, tally: _Tally) -> Callable:
    """``descend(c)``: one scalar lockstep descent of ``states`` from
    ``c``, its backtracks ticking ``tally``."""
    return lambda c: ring.backward_lockstep(states, c, tally.tick)


def _replay(
    vals: list, starts: list, columns: list, a: int, b: int, ra: int, rb: int,
    tally: _Tally,
) -> Callable:
    """Replay one problem of a batched descent as its scalar descent.

    ``vals[a:b]`` are the problem's agreed values, ``starts[ra:rb]`` its
    resume points and ``columns`` the stepped ``(target, los, his)``.
    ``descend(c)`` yields what
    :meth:`~repro.core.ring.Ring.backward_lockstep` from ``c`` would and
    ticks ``tally`` once per resume point that search would pass: those
    in ``(c, v]`` before a value ``v``, those above the last value after
    it.  A restart from a verifier's answer is one more ``descend``.
    """

    def descend(c: int) -> Iterator[tuple[int, list]]:
        i = bisect_left(vals, c, a, b)
        j = bisect_right(starts, c, ra, rb)
        while i < b:
            value = vals[i]
            passed = bisect_right(starts, value, j, rb)
            tally.ticks += passed - j
            tally.batched += 1
            j = passed
            yield value, [(t, los[i], his[i]) for t, los, his in columns]
            i += 1
        tally.ticks += rb - j

    return descend


class LeapfrogTrieJoin:
    """Worst-case-optimal evaluation of basic graph patterns.

    Parameters
    ----------
    iterator_factory:
        Builds a fresh :class:`PatternIterator` for an encoded pattern.
    n_triples:
        Graph size, used to normalise the §4.3 statistics.
    use_lonely / use_ordering:
        The §4.2 / §4.3 optimisations (ablation switches).
    """

    def __init__(
        self,
        iterator_factory: IteratorFactory,
        n_triples: int,
        use_lonely: bool = True,
        use_ordering: bool = True,
    ) -> None:
        self._factory = iterator_factory
        #: The running query's ``stats`` dict.  Always ``None`` on the
        #: engine an index owns: :meth:`evaluate` sets it on a per-call
        #: copy, so interleaved evaluations keep separate telemetry.
        self._stats: Optional[dict] = None
        self._n = max(n_triples, 1)
        self._use_lonely = use_lonely
        self._use_ordering = use_ordering
        #: Optional :class:`~repro.cache.stats_cache.PlanStatsCache`
        #: (duck-typed: anything with ``count(it)`` / ``distinct(it,
        #: var, estimator)``) memoizing the §4.3 statistics across
        #: queries.  ``None`` (the default) recomputes them per query.
        self.stats_cache = None

    # -- public API ----------------------------------------------------------

    def evaluate(
        self,
        bgp: BasicGraphPattern,
        timeout: Union[None, float, ResourceBudget] = None,
        var_order: Optional[Sequence[Var]] = None,
        stats: Optional[dict] = None,
    ) -> Iterator[dict[Var, int]]:
        """Stream the solutions ``Q(G)`` as ``{Var: id}`` mappings.

        ``timeout`` is seconds or a full
        :class:`~repro.reliability.budget.ResourceBudget`; exhaustion
        raises :class:`~repro.core.interface.QueryTimeout` (deadline/op
        cap) or :class:`~repro.core.interface.QueryCancelled` (token).
        When ``stats`` (a dict) is given, the engine fills it with
        operation counters (``"leaps"``, ``"binds"``, plus
        ``"bulk_rows"`` — solutions emitted through the batch decode
        path — and ``"bulk_decodes"``, the chunk decodes behind them)
        — the empirical handle on the O(Q* · m log U) bound of
        Theorem 3.5.  An explicit ``var_order`` replaces the §4.3
        elimination order.
        """
        # One engine serves every evaluation of its index, generators
        # interleave and broker threads overlap: search on a shallow
        # copy that owns its ``_stats`` (config and stats_cache shared).
        run = copy.copy(self)
        run._stats = stats
        if stats is not None:
            for key in (
                "leaps", "binds", "bulk_rows", "bulk_decodes", "batched_values",
            ):
                stats.setdefault(key, 0)
        deadline = ResourceBudget.coerce(timeout)
        analysed = run._analyse(bgp, var_order)
        if analysed is None:  # some pattern is unsatisfiable
            return
        live, by_var, order, lonely_by_iter = analysed
        if not live:
            yield {}
            return
        q = _Query(live, by_var, order, lonely_by_iter, deadline)
        yield from run._search(q, 0, True)

    def _analyse(
        self,
        bgp: BasicGraphPattern,
        var_order: Optional[Sequence[Var]] = None,
    ) -> Optional[tuple]:
        """The one evaluation preamble (:meth:`evaluate`,
        :meth:`plan_signature`, :meth:`plan`):
        build the iterators, drop satisfied fully-bound filters, compute
        the elimination order and the §4.2 lonely-pattern list.  Returns
        ``None`` when some pattern is empty (zero solutions), otherwise
        ``(live, by_var, order, lonely_by_iter)``.
        """
        iters = [self._factory(t) for t in bgp]

        # Fully bound patterns act as existence filters.
        live: list[PatternIterator] = []
        for it in iters:
            if it.count() == 0:
                return None
            if not it.pattern.is_fully_bound():
                live.append(it)

        by_var: dict[Var, list[PatternIterator]] = {}
        for it in live:
            for var in it.pattern.variables():
                by_var.setdefault(var, []).append(it)

        lonely = (
            {v for v, its in by_var.items() if len(its) == 1}
            if self._use_lonely
            else set()
        )
        shared = [v for v in by_var if v not in lonely]
        if var_order is not None:
            order = [v for v in var_order if v in by_var and v not in lonely]
            if set(order) != set(shared):
                raise ValueError("var_order must cover every non-lonely variable")
        else:
            order = self._variable_order(shared, by_var)

        lonely_by_iter: list[tuple[PatternIterator, list[Var]]] = []
        for it in live:
            mine = [v for v in it.pattern.variables() if v in lonely]
            if mine:
                lonely_by_iter.append((it, mine))

        return live, by_var, order, lonely_by_iter

    def plan_signature(
        self,
        bgp: BasicGraphPattern,
        var_order: Optional[Sequence[Var]] = None,
    ) -> Optional[tuple[tuple[Var, ...], tuple[TriplePattern, ...]]]:
        """The facts that determine this evaluation's *row order*.

        Returns ``(elimination order, lonely-bearing patterns in their
        emission order)`` — everything beyond the BGP's structure that
        the enumeration order depends on (the §4.3 order tie-breaks on
        variable *names*, and the §4.2 cross product nests in original
        pattern order, so two isomorphic queries may legitimately emit
        rows differently).  The result cache folds this signature into
        its keys so a shared entry is guaranteed byte-identical to what
        a fresh evaluation would stream.  ``None`` means some pattern is
        empty (zero solutions) at the current index state.
        """
        analysed = self._analyse(bgp, var_order)
        if analysed is None:
            return None
        _live, _by_var, order, lonely_by_iter = analysed
        return tuple(order), tuple(it.pattern for it, _ in lonely_by_iter)

    def plan(self, bgp: BasicGraphPattern) -> dict:
        """Describe how the engine would evaluate ``bgp`` (no execution).

        Returns the §4.3 elimination order, the §4.2 lonely variables,
        and the per-pattern cardinalities (exact, read off the index in
        O(log U) each) that drive the ordering.  When some pattern
        matches nothing the answer is empty and there is no order to
        report: the result is ``"empty": True`` plus the cardinalities.
        """
        cardinalities = {repr(t): self._factory(t).count() for t in bgp}
        analysed = self._analyse(bgp)
        if analysed is None:  # the zero in the cardinalities says which
            return {
                "variable_order": [],
                "lonely_variables": [],
                "pattern_cardinalities": cardinalities,
                "empty": True,
            }
        _live, by_var, order, lonely_by_iter = analysed
        lonely = [v for _it, mine in lonely_by_iter for v in mine]
        scores, _cmin = self._variable_scores(order, by_var)
        return {
            "variable_order": order,
            "lonely_variables": sorted(lonely, key=lambda v: v.name),
            "pattern_cardinalities": cardinalities,
            "variable_scores": {v.name: scores[v] for v in order},
            "uses_lonely_optimisation": self._use_lonely,
            "uses_cardinality_ordering": self._use_ordering,
        }

    # -- §4.3 variable ordering -------------------------------------------------

    def _variable_scores(
        self, shared: Sequence[Var], by_var: dict[Var, list[PatternIterator]]
    ) -> tuple[dict[Var, int], dict[Var, float]]:
        """Cardinality statistics that drive the greedy elimination order.

        For each shared variable: ``score`` — the minimum over its
        patterns of the *distinct admissible values* estimate (a cheap
        wavelet-matrix range count, :meth:`RingIterator.distinct_estimate`;
        falls back to the pattern's triple count for iterators without
        the estimator) — and the paper's ``cmin`` selectivity used as a
        tie-breaker.  The distinct count is the variable's actual
        branching factor at the root of the search tree, which ``cmin``
        only proxies: a pattern with a huge range but few distinct
        subjects is cheap to eliminate on the subject.
        """
        # With a stats_cache these are the same numbers, looked up by
        # renaming-invariant pattern shape in a generation-scoped memo
        # (repro.cache.stats_cache) instead of recomputed per query.
        cache = self.stats_cache
        cmin = {
            v: min(
                cache.count(it) if cache is not None else it.count()
                for it in by_var[v]
            ) / self._n
            for v in shared
        }
        scores = {
            v: min((self._distinct(it, v) for it in by_var[v]), default=0)
            for v in shared
        }
        return scores, cmin

    def _distinct(self, it: PatternIterator, var: Var) -> int:
        """Distinct admissible values of ``var`` in ``it`` at the root:
        memoized by the ``stats_cache`` when one is installed, else the
        iterator's wavelet estimator, else — explicitly, counted by
        :meth:`_estimator_or_miss`, never silent — its range width."""
        estimator = self._estimator_or_miss(it)
        if self.stats_cache is not None:
            return self.stats_cache.distinct(it, var, estimator)
        return estimator(var) if estimator is not None else it.count()

    def _estimator_or_miss(self, it: PatternIterator):
        """``it.distinct_estimate`` or ``None``, *counting* the miss.

        Engines without the wavelet estimator (e.g. the dynamic ring's
        union iterator) used to degrade the §4.3 statistics silently;
        every such degradation now fires the ``plan.estimate_miss``
        kernel counter and the per-query ``estimate_misses`` stat, so a
        workload planning off range widths instead of distinct counts
        is observable.
        """
        estimator = getattr(it, "distinct_estimate", None)
        if estimator is None:
            event("plan.estimate_miss")
            if self._stats is not None:
                self._stats["estimate_misses"] = (
                    self._stats.get("estimate_misses", 0) + 1
                )
        return estimator

    def _variable_order(
        self, shared: Sequence[Var], by_var: dict[Var, list[PatternIterator]]
    ) -> list[Var]:
        if not self._use_ordering:
            return list(shared)
        scores, cmin = self._variable_scores(shared, by_var)
        remaining = list(shared)
        order: list[Var] = []
        chosen_iters: set[int] = set()
        while remaining:
            connected = [
                v
                for v in remaining
                if any(id(it) in chosen_iters for it in by_var[v])
            ]
            pool = connected if connected else remaining
            best = min(pool, key=lambda v: (scores[v], cmin[v], v.name))
            order.append(best)
            remaining.remove(best)
            for it in by_var[best]:
                chosen_iters.add(id(it))
        return order

    # -- the search tree ---------------------------------------------------------

    def _search(
        self, q: "_Query", depth: int, final: bool
    ) -> Iterator[dict[Var, int]]:
        """Algorithm 1 over the block of bindings waiting at ``depth``.

        ``q.frontier[depth]`` holds nodes of one depth in emission
        order, drawn from any number of parents — and of grandparents:
        it fills across the blocks of the depth above.  At the leaves
        (no variable left) each node settles its gap and emits its rows.
        Otherwise the block's children (:meth:`_children`, in emission
        order) join the next depth's frontier, which is searched
        whenever it holds a block's worth and, once this depth is
        ``final`` (nothing more can arrive), one last time with the
        rest.  Rows therefore leave in the order a one-binding-at-a-time
        search would emit them.

        A node is ``(parent, var, value, depth, zs, gap)``: the binding
        ``var := value`` below ``parent``, the ``depth`` of variables
        bound on its path (``var`` is ``q.order[depth - 1]``), ``zs``
        the zone state of every zone-state iterator (aligned with
        ``q.slot``), and ``gap`` the ``(ticks,
        leaps, binds, batched)`` a one-binding search would have spent
        between the previous node of this depth and this one.  Work is
        charged when a node is consumed, not when its block computes
        it, so the ledger and the budget see that search exactly — a
        ``limit`` or a spent budget stops between the same two rows.

        Blocks grow from one binding, doubling per block searched, to
        :data:`BLOCK_SIZE` (to 1 when an iterator lacks zone state, which
        makes this the classic depth-first search), and a leaf, which
        has no descent to share, is emitted as soon as it exists: a
        consumer that stops early (``limit``) leaves little computed
        ahead of it.
        """
        block, q.frontier[depth] = q.frontier[depth], []
        if depth == len(q.order):
            for node in block:
                self._settle(q, node[5])
                binding = _binding_of(node)
                if q.lonely:
                    self._seat(q, node)
                    yield from self._emit_lonely(q, 0, binding, {})
                else:
                    yield binding
            return
        below = depth + 1
        carry = q.carry[below]
        if block:
            for child in self._children(q, block, depth, carry):
                frontier = q.frontier[below]
                frontier.append(child)
                if below == len(q.order):
                    yield from self._search(q, below, False)
                elif len(frontier) >= q.cap:
                    q.cap = min(2 * q.cap, q.block)
                    yield from self._search(q, below, False)
        if final:
            yield from self._search(q, below, True)
            self._settle(q, carry)
            carry[:] = (0, 0, 0, 0)

    def _children(
        self, q: "_Query", block: list, depth: int, carry: list
    ) -> Iterator[tuple]:
        """The next depth's nodes under ``block``, in emission order.

        Every node of ``block`` eliminates ``q.order[depth]`` with its
        iterators in the same zones, so the block has one source of
        values: a lockstep descent of the variable's backward iterators
        when there is one (batched over the block or one per binding,
        :meth:`_descents`), else the leapfrog :meth:`_seek`.  Either way
        they arrive in increasing order.  ``carry`` accumulates the work
        between children: a parent's gap and the trailing work of its
        search are charged to the next child (or, at the end, by the
        caller).
        """
        tally = q.tally
        var = q.order[depth]
        self._seat(q, block[0])
        group = _lockstep_group(q.by_var[var], var, q.slot)
        if group is not None:
            descent = self._descents(block, group)
        for r, node in enumerate(block):
            gap = node[5]
            carry[0] += gap[0]
            carry[1] += gap[1]
            carry[2] += gap[2]
            carry[3] += gap[3]
            if group is None:
                values = self._leapfrog(q, node, var, tally)
            else:
                values = self._lockstep(
                    q, node, var, group.verifiers,
                    descent(r, node, tally), tally,
                )
            for value, stepped in values:
                zs = self._child_states(q, node, var, value, group, stepped)
                ticks, leaps, batched = tally.take()
                gap = (
                    carry[0] + ticks, carry[1] + leaps,
                    carry[2] + 1, carry[3] + batched,
                )
                carry[:] = (0, 0, 0, 0)
                yield (node, var, value, depth + 1, zs, gap)
            ticks, leaps, batched = tally.take()
            carry[0] += ticks
            carry[1] += leaps
            carry[3] += batched
            if tally.due <= 0:  # a batched descent's replayed ticks
                tally.poll()

    def _descents(self, block: list, group: "_Group") -> Callable:
        """``descent(r, node, tally)``: ``descend(c)`` for the block's
        ``r``-th node.  A block smaller than :data:`BATCH_CROSSOVER` gets
        one scalar descent per node.  A larger one gets one batched
        descent for all of its nodes
        (:meth:`~repro.core.ring.Ring.backward_lockstep_many`), each
        node's part replayed as its scalar descent would yield and
        charge it."""
        slots = group.slots
        if len(block) < BATCH_CROSSOVER:
            return lambda r, node, tally: _scalar_descent(
                group.ring, [node[4][s] for s in slots], tally
            )
        los = [[node[4][s][1] for node in block] for s in slots]
        his = [[node[4][s][2] for node in block] for s in slots]
        problem, values, stepped, (r_problem, r_start) = (
            group.ring.backward_lockstep_many(group.zones, los, his)
        )
        edges = np.arange(len(block) + 1)
        leaf_at = np.searchsorted(problem, edges).tolist()
        resume_at = np.searchsorted(r_problem, edges).tolist()
        vals, starts = values.tolist(), r_start.tolist()
        columns = [(target, lo.tolist(), hi.tolist()) for target, lo, hi in stepped]
        return lambda r, node, tally: _replay(
            vals, starts, columns, leaf_at[r], leaf_at[r + 1],
            resume_at[r], resume_at[r + 1], tally,
        )

    def _child_states(
        self,
        q: "_Query",
        node: tuple,
        var: Var,
        value: int,
        group: Optional["_Group"],
        stepped: Optional[list],
    ) -> tuple:
        """The zone states below ``node`` after ``var := value``: the
        descent's stepped ranges for the backward iterators; every other
        zone-state iterator of ``var`` binds, is read and unbinds."""
        zs = list(node[4])
        if group is None:
            rebind = [pair for pair in q.binders[var] if pair[1] is not None]
        else:
            rebind = group.rebind
            for slot, state in zip(group.slots, stepped):
                zs[slot] = state
        if rebind:
            self._seat(q, node)
            for it, slot in rebind:
                it.bind(var, value)
                zs[slot] = it.zone_state()
                it.unbind(var)
        return tuple(zs)

    def _seat(self, q: "_Query", node: tuple) -> None:
        """Bind the iterators to ``node``'s path: unbind down to the
        deepest node it shares with the current path, bind the rest
        (zone-state iterators adopt their recorded ranges)."""
        path = q.path
        depth = node[3]
        if len(path) == depth and (not depth or path[-1] is node):
            return
        chain = []
        while depth and not (len(path) >= depth and path[depth - 1] is node):
            chain.append(node)
            node = node[0]
            depth -= 1
        while len(path) > depth:
            top = path.pop()
            for it in q.by_var[top[1]]:
                it.unbind(top[1])
        for node in reversed(chain):
            var, value, zs = node[1], node[2], node[4]
            for it, slot in q.binders[var]:
                if slot is None:
                    it.bind(var, value)
                else:
                    it.bind(var, value, zs[slot])
            path.append(node)

    def _settle(self, q: "_Query", gap) -> None:
        """Charge a consumed node's ``(ticks, leaps, binds, batched)``."""
        ticks, leaps, binds, batched = gap
        stats = self._stats
        if stats is not None:
            stats["leaps"] += leaps
            stats["binds"] += binds
            stats["batched_values"] += batched
        if ticks:
            q.deadline.tick_many(ticks)

    def _lockstep(
        self,
        q: "_Query",
        node: tuple,
        var: Var,
        verifiers: Sequence[PatternIterator],
        descend: Callable,
        tally: "_Tally",
    ) -> Iterator[tuple[int, list]]:
        """Agreed values with the backward iterators' stepped states.

        ``descend(c)`` runs the lockstep descent of the backward
        iterators' ranges from ``c``; each value they share is a
        candidate, counted as one leap and one tick (each backtrack of
        the descent ticks too).  Every other iterator then verifies it
        with a ``leap``: a larger answer restarts the descent there, none
        ends the variable.
        """
        c = 0
        while True:
            for value, stepped in descend(c):
                tally.ticks += 1
                tally.leaps += 1
                answer = value
                if verifiers:
                    self._seat(q, node)
                for it in verifiers:
                    tally.ticks += 1
                    tally.leaps += 1
                    answer = it.leap(var, value)
                    if answer != value:
                        break
                if tally.ticks >= tally.due:
                    tally.poll()
                if answer != value:
                    break
                yield value, stepped
            else:
                return
            if answer is None:
                return
            c = answer

    def _leapfrog(
        self, q: "_Query", node: tuple, var: Var, tally: "_Tally"
    ) -> Iterator[tuple[int, None]]:
        """Agreed values by repeated :meth:`_seek` — for groups the
        lockstep descent cannot serve (no backward iterator, matrices of
        different level counts, iterators with no zone state)."""
        iters = q.by_var[var]
        c = 0
        while True:
            self._seat(q, node)
            value = self._seek(iters, var, c, tally)
            if value is None:
                return
            yield value, None
            c = value + 1

    @staticmethod
    def _seek(
        iters: Sequence[PatternIterator], var: Var, c: int, tally: "_Tally"
    ) -> Optional[int]:
        """The ``seek`` of Algorithm 1: smallest agreed eliminator >= c."""
        cur = c
        agreements = 0
        i = 0
        m = len(iters)
        while agreements < m:
            tally.ticks += 1
            tally.leaps += 1
            if tally.ticks >= tally.due:
                tally.poll()
            value = iters[i].leap(var, cur)
            if value is None:
                return None
            if value == cur:
                agreements += 1
            else:
                cur = value
                agreements = 1
            i = (i + 1) % m
        return cur

    def _emit_lonely(
        self, q: "_Query", idx: int, binding: dict[Var, int], memo: dict
    ) -> Iterator[dict[Var, int]]:
        """§4.2: read the remaining bindings straight off the ranges.

        Patterns are independent here (each variable occurs in exactly
        one), so solutions are the cross product of per-pattern
        enumerations; within a pattern, variables are enumerated in the
        iterator's preferred (backward) order.  For the same reason a
        pattern's range depends only on the leaf's binding, not on the
        rows of the patterns before it: ``memo`` (one per leaf, keyed by
        pattern index) holds the decoded chunk of every range that fit
        in one, so it is decoded once and replayed for every outer row.
        """
        if idx == len(q.lonely):
            yield dict(binding)
            return
        it, vars_ = q.lonely[idx]
        chunks = memo.get(idx)
        if chunks is None:
            yield from self._emit_pattern(q, it, vars_, idx, binding, memo, memo)
        else:
            yield from self._emit_chunks(q, idx, vars_, chunks, binding, memo)

    def _emit_pattern(
        self,
        q: "_Query",
        it: PatternIterator,
        remaining: list[Var],
        idx: int,
        binding: dict[Var, int],
        memo: dict,
        keep: Optional[dict],
    ) -> Iterator[dict[Var, int]]:
        """Pattern ``idx``'s rows over its ``remaining`` variables, each
        followed by the product of the patterns after it.  ``keep`` is
        the memo a lone decoded chunk is kept in: ``None`` once a
        variable of the pattern is bound here, since the range then
        depends on its value."""
        if not remaining:
            yield from self._emit_lonely(q, idx + 1, binding, memo)
            return
        bulk = getattr(it, "solutions_bulk", None)
        budget = q.deadline
        if bulk is None:
            chunks = None
        elif idx + 1 < len(q.lonely) or budget.max_solutions is None:
            chunks = bulk(remaining)
        else:  # each row is a solution: the first chunk ends at the cap
            left = budget.max_solutions - budget.solutions
            chunks = bulk(remaining, max(left, 1))
        if chunks is not None:
            yield from self._emit_chunks(
                q, idx, remaining, self._decoded(chunks, remaining, keep, idx),
                binding, memo,
            )
            return
        var = it.preferred_lonely(remaining)
        rest = [v for v in remaining if v != var]
        for value in it.values(var):
            q.deadline.tick()
            it.bind(var, value)
            binding[var] = value
            yield from self._emit_pattern(q, it, rest, idx, binding, memo, None)
            del binding[var]
            it.unbind(var)

    def _decoded(
        self, chunks: Iterator, vars_: list[Var], keep: Optional[dict], idx: int
    ) -> Iterator[tuple[list, int]]:
        """``solutions_bulk``'s chunks as ``(columns, n_rows)``, columns
        as lists aligned with ``vars_``, decoded on demand and counted
        as ``bulk_decodes``.  A range decoded in one chunk is kept in
        ``keep[idx]`` once it is exhausted; a longer one (or one whose
        first chunk a cap cut short) is decoded again for each outer
        row, so memory stays one chunk per pattern."""
        n_chunks, chunk = 0, None
        for columns, n_rows in chunks:
            n_chunks += 1
            if self._stats is not None:
                self._stats["bulk_decodes"] += 1
            chunk = ([columns[var].tolist() for var in vars_], n_rows)
            yield chunk
        if keep is not None and n_chunks <= 1:
            keep[idx] = (chunk,) if n_chunks else ()

    def _emit_chunks(
        self,
        q: "_Query",
        idx: int,
        vars_: list[Var],
        chunks: Iterable[tuple[list, int]],
        binding: dict[Var, int],
        memo: dict,
    ) -> Iterator[dict[Var, int]]:
        """Emit pattern ``idx``'s decoded (or replayed) chunks.  Each
        chunk charges the budget one op per row, as a scalar emission
        would, before its first row; the innermost pattern's rows leave
        in a flat loop."""
        innermost = idx + 1 == len(q.lonely)
        for columns, n_rows in chunks:
            q.deadline.tick_many(n_rows)
            if self._stats is not None:
                self._stats["bulk_rows"] += n_rows
            if not innermost:
                for values in zip(*columns):
                    binding.update(zip(vars_, values))
                    yield from self._emit_lonely(q, idx + 1, binding, memo)
            elif len(vars_) == 1:
                var = vars_[0]
                for value in columns[0]:
                    row = binding.copy()
                    row[var] = value
                    yield row
            else:
                for values in zip(*columns):
                    row = binding.copy()
                    row.update(zip(vars_, values))
                    yield row
        for var in vars_:
            binding.pop(var, None)
