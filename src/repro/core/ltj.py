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
  operation applies.

On top of those the engine leans on the vectorised succinct kernels
wherever an iterator offers them:

- when a variable is covered by a *single* iterator, the seek sequence
  ``seek(0), seek(v+1), …`` degenerates to that iterator's ordered value
  enumeration, which the ring answers with one ``distinct_in_range``
  sweep instead of one wavelet descent per value;
- lonely patterns whose iterator offers ``solutions_bulk`` have their
  whole Lemma 3.6 range bulk-decoded into row-aligned numpy columns
  (chunked), replacing the per-triple bind/leap walk; iterators without
  it (every baseline) take the scalar walk;
- repeated seeks hit the ring's LRU leap memo (see
  :meth:`repro.core.ring.Ring.backward_leap`).

Batch work charges the shared :class:`ResourceBudget` through
``tick_many`` — one op per logical row/leap, identical to the scalar
walk — so op caps, timeouts and cancellation behave the same either way.

The two paper refinements can be disabled (``use_lonely`` /
``use_ordering``) for the ablation benchmarks.

**Adaptive intra-query planning** (``policy``): the §4.3 order is
computed once before the first leap, so one skewed join (power-law
predicates, star subjects) can lock the whole search into a
pathological order.  The dynamic policies instead re-rank the *next*
variable at every binding depth from O(1)-maintained per-iterator
bounds — the Lemma 3.6 range width ``count()`` is updated incrementally
by ``bind``/``unbind``, and the root distinct estimates are computed
once per query (never re-descending the wavelet matrix on the hot
path):

- ``static``   — today's behaviour: the precomputed §4.3 order;
- ``rowcount`` — minimize the current range width ``min count(t)``;
- ``distinct`` — minimize the root distinct-value estimate;
- ``adaptive`` — minimize the partial-binding bound
  ``min(count(t), distinct_root)``: the narrowed width caps the root
  branching estimate, so a variable whose candidate range collapsed
  under the current partial binding is eliminated immediately.

Ties break on the static §4.3 rank (renaming-invariant via the plan
signature), so every policy enumerates deterministically; a failing
estimator degrades the rest of the query to the static order
(chaos site ``plan.rerank``), never to a wrong answer.
"""

from __future__ import annotations

import copy
import sys
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.core.interface import PatternIterator, QueryCancelled, QueryTimeout
from repro.graph.model import BasicGraphPattern, TriplePattern, Var
from repro.perf.counters import event
from repro.reliability.budget import ResourceBudget

IteratorFactory = Callable[[TriplePattern], PatternIterator]

#: The variable-selection policies of the per-depth planner.
POLICIES = ("static", "rowcount", "distinct", "adaptive")

#: Upper end of an unrestricted search slice ``[0, ∞)``: above any id.
_UNBOUNDED = sys.maxsize

#: Per-query cap on the recorded (depth, variable, estimate) decisions:
#: re-ranking fires at every search-tree node, so the log is a bounded
#: sample — the totals live in the ``reranks``/``rerank_divergence``
#: stats and the ``plan.*`` kernel counters.
DECISION_LOG_CAP = 128


def rank_candidates(
    policy: str,
    candidates: Sequence[Var],
    by_var: dict[Var, list[PatternIterator]],
    static_rank: dict[Var, int],
    root_distinct: dict[tuple[int, Var], int],
) -> tuple[Var, int]:
    """Pick the next variable a dynamic ``policy`` would eliminate.

    Every bound is O(1) per iterator: ``count()`` reads the current
    Lemma 3.6 range width off the incrementally-maintained zone state,
    and ``root_distinct`` was filled once at analysis time.  Ties break
    on the static §4.3 rank so the choice is renaming-invariant and
    deterministic across processes (the parallel workers re-run this
    exact computation).  Registered as chaos fault site ``plan.rerank``:
    callers treat any exception as "degrade to the static order".
    """
    best: Optional[Var] = None
    best_key: Optional[tuple[int, int]] = None
    for v in candidates:
        if policy == "rowcount":
            estimate = min(it.count() for it in by_var[v])
        elif policy == "distinct":
            estimate = min(root_distinct[(id(it), v)] for it in by_var[v])
        else:  # adaptive: the narrowed width clips the root estimate
            estimate = min(
                min(it.count(), root_distinct[(id(it), v)])
                for it in by_var[v]
            )
        key = (estimate, static_rank[v])
        if best_key is None or key < best_key:
            best_key, best = key, v
    assert best is not None and best_key is not None
    return best, best_key[0]


class _PolicyState:
    """Per-query state of a dynamic variable-selection policy."""

    __slots__ = ("policy", "static_rank", "root_distinct", "static_rest")

    def __init__(
        self,
        policy: str,
        static_rank: dict[Var, int],
        root_distinct: dict[tuple[int, Var], int],
    ) -> None:
        self.policy = policy
        self.static_rank = static_rank
        self.root_distinct = root_distinct
        #: Set when :func:`rank_candidates` raised — the remainder of
        #: the query runs in the static §4.3 order.
        self.static_rest = False


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
    policy:
        Variable-selection policy, one of :data:`POLICIES`.  ``static``
        (default) keeps the precomputed §4.3 order; the dynamic
        policies re-rank the next variable at every binding depth from
        O(1) per-iterator bounds (see the module docstring).
    """

    def __init__(
        self,
        iterator_factory: IteratorFactory,
        n_triples: int,
        use_lonely: bool = True,
        use_ordering: bool = True,
        policy: str = "static",
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {POLICIES}"
            )
        self._factory = iterator_factory
        #: The running query's ``stats`` dict.  Always ``None`` on the
        #: engine an index owns: :meth:`evaluate` sets it on a per-call
        #: copy, so interleaved evaluations keep separate telemetry.
        self._stats: Optional[dict] = None
        self._n = max(n_triples, 1)
        self._use_lonely = use_lonely
        self._use_ordering = use_ordering
        self._policy = policy
        #: Optional :class:`~repro.cache.stats_cache.PlanStatsCache`
        #: (duck-typed: anything with ``count(it)`` / ``distinct(it,
        #: var, estimator)``) memoizing the §4.3 statistics across
        #: queries.  ``None`` (the default) recomputes them per query.
        self.stats_cache = None

    @property
    def policy(self) -> str:
        """The configured variable-selection policy (see :data:`POLICIES`)."""
        return self._policy

    # -- public API ----------------------------------------------------------

    def evaluate(
        self,
        bgp: BasicGraphPattern,
        timeout: Union[None, float, ResourceBudget] = None,
        var_order: Optional[Sequence[Var]] = None,
        stats: Optional[dict] = None,
        first_range: Optional[tuple[int, int]] = None,
        first_var: Optional[Var] = None,
    ) -> Iterator[dict[Var, int]]:
        """Stream the solutions ``Q(G)`` as ``{Var: id}`` mappings.

        ``timeout`` is seconds or a full
        :class:`~repro.reliability.budget.ResourceBudget`; exhaustion
        raises :class:`~repro.core.interface.QueryTimeout` (deadline/op
        cap) or :class:`~repro.core.interface.QueryCancelled` (token).
        When ``stats`` (a dict) is given, the engine fills it with
        operation counters (``"leaps"``, ``"binds"``, plus
        ``"bulk_rows"`` — solutions emitted through the batch decode
        path) — the empirical handle on the O(Q* · m log U) bound of
        Theorem 3.5.

        ``first_range`` restricts the *first* eliminated variable to
        values in ``[a, b)``.  Because LTJ emits the first variable in
        increasing order, running disjoint ranges produces disjoint
        solution sets whose ascending-``a`` concatenation equals the
        unrestricted enumeration — the contract the range-partitioned
        parallel driver builds on.  Requires at least one shared
        variable (callers pass ``var_order`` to pin which one).

        ``first_var`` (dynamic policies only) pins *just the first*
        eliminated variable — the parallel driver slices that
        variable's domain while every deeper depth still re-ranks, so
        the concatenated slices stay byte-identical to the serial
        policy enumeration.  An explicit ``var_order`` pins the whole
        order and therefore disables per-depth re-ranking.
        """
        # One engine serves every evaluation of its index, generators
        # interleave and broker threads overlap: search on a shallow
        # copy that owns its ``_stats`` (config and stats_cache shared).
        run = copy.copy(self)
        run._stats = stats
        if stats is not None:
            for key in ("leaps", "binds", "bulk_rows"):
                stats.setdefault(key, 0)
            stats.setdefault("policy", self._policy)
        deadline = ResourceBudget.coerce(timeout)
        analysed = run._analyse(bgp, var_order)
        if analysed is None:  # some pattern is unsatisfiable
            return
        live, by_var, order, lonely_by_iter = analysed
        if not live:
            yield {}
            return

        if first_range is not None and not order:
            raise ValueError("first_range requires a shared join variable")

        dynamic = self._policy != "static" and var_order is None
        if first_var is not None:
            if not dynamic:
                raise ValueError(
                    "first_var requires a dynamic policy without var_order"
                )
            # Re-anchor to the in-tree Var object (first_var may have
            # crossed a process boundary, so identity is not enough).
            first_var = next((v for v in order if v == first_var), None)
            if first_var is None:
                raise ValueError("first_var must be a shared join variable")
        state = None
        if dynamic:
            state = run._policy_state(order, by_var)
            if stats is not None:
                stats.setdefault("reranks", 0)
                stats.setdefault("rerank_divergence", 0)
                stats.setdefault("rerank_fallbacks", 0)
                stats.setdefault("estimate_misses", 0)
                stats.setdefault("decision_log", [])
        lo, hi = first_range if first_range is not None else (0, _UNBOUNDED)
        yield from run._search(
            order, by_var, lonely_by_iter, {}, deadline, state, lo, hi, first_var
        )

    def _analyse(
        self,
        bgp: BasicGraphPattern,
        var_order: Optional[Sequence[Var]] = None,
    ) -> Optional[tuple]:
        """The one evaluation preamble (:meth:`evaluate`,
        :meth:`plan_signature`, :meth:`plan`, the parallel driver):
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

        Dynamic policies re-rank inside this static order's tie-break
        frame, and their per-depth choices depend only on the (cache-
        generation-tagged) index state — so the signature plus the
        engine's ``policy`` flag (folded into the cache key by
        :class:`~repro.cache.system.CachedQuerySystem`) still pins the
        row order exactly.
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
            "policy": self._policy,
            "first_variable": (
                self.first_variable(order, by_var) if order else None
            ),
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

    # -- per-depth re-ranking (dynamic policies) ---------------------------------

    def _policy_state(
        self, order: Sequence[Var], by_var: dict[Var, list[PatternIterator]]
    ) -> _PolicyState:
        """Build the per-query state a dynamic policy ranks against.

        The root distinct estimates (``distinct``/``adaptive`` only)
        are computed *once* here — through the
        :class:`~repro.cache.stats_cache.PlanStatsCache` memo when one
        is installed, so repeated workloads skip the wavelet scans
        entirely — and every later depth refines them with the O(1)
        range widths alone: the hot path never re-descends the wavelet
        matrix.
        """
        static_rank = {v: i for i, v in enumerate(order)}
        root_distinct: dict[tuple[int, Var], int] = {}
        if self._policy in ("distinct", "adaptive"):
            for v in order:
                for it in by_var[v]:
                    root_distinct[(id(it), v)] = self._distinct(it, v)
        return _PolicyState(self._policy, static_rank, root_distinct)

    def first_variable(
        self,
        order: Sequence[Var],
        by_var: dict[Var, list[PatternIterator]],
        stats: Optional[dict] = None,
    ) -> Optional[Var]:
        """The policy's depth-0 choice (what :meth:`evaluate` would
        eliminate first at the current index state).

        The parallel driver slices this variable's domain and pins it
        in every worker (``first_var``) so the merged slices reproduce
        the serial policy enumeration byte for byte.  A failing ranking
        degrades to the static head, mirroring the in-query contract.
        """
        if not order:
            return None
        if self._policy == "static" or len(order) == 1:
            return order[0]
        run = copy.copy(self)  # owns its _stats, as in evaluate()
        run._stats = stats
        state = run._policy_state(order, by_var)
        try:
            var, _estimate = rank_candidates(
                self._policy, list(order), by_var,
                state.static_rank, state.root_distinct,
            )
        except (QueryTimeout, QueryCancelled):
            raise
        except Exception:
            event("plan.rerank_fallback")
            return order[0]
        return var

    def _choose_variable(
        self,
        remaining: list[Var],
        by_var: dict[Var, list[PatternIterator]],
        state: _PolicyState,
    ) -> Var:
        """One re-ranking decision: the next variable to eliminate.

        ``remaining`` is kept in static §4.3 order, so ``remaining[0]``
        is both the divergence baseline and the degradation target when
        the ranking itself fails (chaos site ``plan.rerank``): a broken
        estimator costs plan quality for the rest of this query, never
        correctness.
        """
        if len(remaining) == 1 or state.static_rest:
            return remaining[0]
        try:
            var, estimate = rank_candidates(
                state.policy, remaining, by_var,
                state.static_rank, state.root_distinct,
            )
        except (QueryTimeout, QueryCancelled):
            raise
        except Exception:
            state.static_rest = True
            event("plan.rerank_fallback")
            if self._stats is not None:
                self._stats["rerank_fallbacks"] = (
                    self._stats.get("rerank_fallbacks", 0) + 1
                )
            return remaining[0]
        event("plan.rerank")
        diverged = var is not remaining[0]
        if diverged:
            event("plan.rerank_divergence")
        stats = self._stats
        if stats is not None:
            stats["reranks"] = stats.get("reranks", 0) + 1
            if diverged:
                stats["rerank_divergence"] = (
                    stats.get("rerank_divergence", 0) + 1
                )
            log = stats.get("decision_log")
            if isinstance(log, list) and len(log) < DECISION_LOG_CAP:
                depth = len(state.static_rank) - len(remaining)
                log.append((depth, var.name, int(estimate)))
        return var

    # -- the search tree ---------------------------------------------------------

    def _search(
        self,
        remaining: list[Var],
        by_var: dict[Var, list[PatternIterator]],
        lonely_by_iter: Sequence[tuple[PatternIterator, list[Var]]],
        binding: dict[Var, int],
        deadline: ResourceBudget,
        state: Optional[_PolicyState],
        lo: int = 0,
        hi: int = _UNBOUNDED,
        first_var: Optional[Var] = None,
    ) -> Iterator[dict[Var, int]]:
        """Algorithm 1: eliminate one variable, recurse on the rest.

        ``remaining`` stays in static §4.3 order.  The variable is
        ``first_var`` when given (parallel slice mode: depth 0 is pinned
        to the slicing variable, the parent's own policy choice), else
        the head of ``remaining`` when ``state`` is ``None`` (``static``,
        or a pinned ``var_order``), else the policy's per-depth choice —
        so a policy's output differs from ``static`` only in row
        *order*, never in the solution multiset.

        Only values in ``[lo, hi)`` are enumerated; deeper levels run
        unrestricted.  The parallel driver passes a proper slice at
        depth 0, and the seek loop lands on the first admissible value
        ``>= lo`` with one leap instead of sweeping from 0, so a K-way
        partition costs K extra leaps total, not K extra scans.
        """
        if not remaining:
            yield from self._emit_lonely(lonely_by_iter, 0, binding, deadline)
            return
        if first_var is not None:
            var = first_var
        elif state is None:
            var = remaining[0]
        else:
            var = self._choose_variable(remaining, by_var, state)
        if var is remaining[0]:
            rest = remaining[1:]
        else:
            rest = [v for v in remaining if v is not var]
        iters = by_var[var]
        if len(iters) == 1:
            # With one iterator the seek sequence seek(0), seek(v+1), …
            # is exactly the iterator's ordered value enumeration, which
            # the ring serves with a single distinct_in_range DFS
            # (O(k log σ/k)) instead of one wavelet descent per value;
            # values outside the slice are skipped/stopped without one.
            it = iters[0]
            for value in it.values(var):
                if value >= hi:
                    break
                deadline.tick()
                if value < lo:
                    continue
                if self._stats is not None:
                    self._stats["leaps"] += 1
                    self._stats["binds"] += 1
                it.bind(var, value)
                binding[var] = value
                yield from self._search(
                    rest, by_var, lonely_by_iter, binding, deadline, state
                )
                del binding[var]
                it.unbind(var)
            return
        value = self._seek(iters, var, lo, deadline)
        while value is not None and value < hi:
            if self._stats is not None:
                self._stats["binds"] += 1
            for it in iters:
                it.bind(var, value)
            binding[var] = value
            yield from self._search(
                rest, by_var, lonely_by_iter, binding, deadline, state
            )
            del binding[var]
            for it in iters:
                it.unbind(var)
            value = self._seek(iters, var, value + 1, deadline)

    def _seek(
        self,
        iters: Sequence[PatternIterator],
        var: Var,
        c: int,
        deadline: ResourceBudget,
    ) -> Optional[int]:
        """The ``seek`` of Algorithm 1: smallest agreed eliminator >= c."""
        cur = c
        agreements = 0
        i = 0
        m = len(iters)
        while agreements < m:
            deadline.tick()
            if self._stats is not None:
                self._stats["leaps"] += 1
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
        self,
        lonely_by_iter: Sequence[tuple[PatternIterator, list[Var]]],
        idx: int,
        binding: dict[Var, int],
        deadline: ResourceBudget,
    ) -> Iterator[dict[Var, int]]:
        """§4.2: read the remaining bindings straight off the ranges.

        Patterns are independent here (each variable occurs in exactly
        one), so solutions are the cross product of per-pattern
        enumerations; within a pattern, variables are enumerated in the
        iterator's preferred (backward) order.
        """
        if idx == len(lonely_by_iter):
            yield dict(binding)
            return
        it, vars_ = lonely_by_iter[idx]
        yield from self._emit_pattern(
            it, list(vars_), lonely_by_iter, idx, binding, deadline
        )

    def _emit_pattern(
        self,
        it: PatternIterator,
        remaining: list[Var],
        lonely_by_iter: Sequence[tuple[PatternIterator, list[Var]]],
        idx: int,
        binding: dict[Var, int],
        deadline: ResourceBudget,
    ) -> Iterator[dict[Var, int]]:
        if not remaining:
            yield from self._emit_lonely(lonely_by_iter, idx + 1, binding, deadline)
            return
        bulk = getattr(it, "solutions_bulk", None)
        chunks = bulk(remaining) if bulk is not None else None
        if chunks is not None:
            # Bulk-decode the pattern's whole Lemma 3.6 range into
            # row-aligned columns (chunked): one batched wavelet descent
            # per attribute per chunk replaces the per-triple bind/leap
            # walk, and each row charges the budget as one op exactly
            # like a scalar emission.
            for columns, n_rows in chunks:
                deadline.tick_many(n_rows)
                if self._stats is not None:
                    self._stats["bulk_rows"] += n_rows
                cols = [(var, columns[var].tolist()) for var in remaining]
                for row in range(n_rows):
                    for var, column in cols:
                        binding[var] = column[row]
                    yield from self._emit_lonely(
                        lonely_by_iter, idx + 1, binding, deadline
                    )
                for var, _ in cols:
                    binding.pop(var, None)
            return
        var = it.preferred_lonely(remaining)
        rest = [v for v in remaining if v != var]
        for value in it.values(var):
            deadline.tick()
            it.bind(var, value)
            binding[var] = value
            yield from self._emit_pattern(
                it, rest, lonely_by_iter, idx, binding, deadline
            )
            del binding[var]
            it.unbind(var)
