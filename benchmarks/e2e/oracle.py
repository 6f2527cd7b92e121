"""Answer oracle: a numpy hash-join evaluator that shares no code with
the program under test.

A basic graph pattern is a tuple of patterns, a pattern a 3-tuple of
terms, a term either an ``int`` constant or a ``"?name"`` variable
(:mod:`workloads` produces exactly this form).  :class:`TripleSet` holds
the ground-truth graph — and replays acknowledged writes for the
read/write workload — and :func:`solve` joins pattern matches pairwise
with sort/``searchsorted``; nothing here leaps, ranks or selects.
"""

from __future__ import annotations

import numpy as np

#: Refuse to materialise a join wider than this (inputs are filtered so
#: that no workload reaches it).
MAX_JOIN_ROWS = 4_000_000


class OracleOverflow(RuntimeError):
    """An intermediate join exceeded :data:`MAX_JOIN_ROWS`."""


def is_var(term) -> bool:
    return isinstance(term, str)


def variables(bgp) -> list[str]:
    """Distinct variables in first-appearance order."""
    seen: list[str] = []
    for pattern in bgp:
        for term in pattern:
            if is_var(term) and term not in seen:
                seen.append(term)
    return seen


class TripleSet:
    """A mutable set of ``(s, p, o)`` id triples with pattern matching."""

    def __init__(self, triples: np.ndarray, n_nodes: int, n_predicates: int) -> None:
        self.n_nodes = int(n_nodes)
        self.n_predicates = int(n_predicates)
        t = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        self._keys = np.unique(self._encode(t[:, 0], t[:, 1], t[:, 2]))
        self._by_p = None

    def _encode(self, s, p, o):
        return (s * self.n_predicates + p) * self.n_nodes + o

    def __len__(self) -> int:
        return len(self._keys)

    def triples(self) -> np.ndarray:
        """The ``(n, 3)`` array, sorted by ``(s, p, o)``."""
        sp, o = np.divmod(self._keys, self.n_nodes)
        s, p = np.divmod(sp, self.n_predicates)
        return np.stack([s, p, o], axis=1)

    def contains(self, s, p, o) -> np.ndarray:
        """Vectorised membership."""
        keys = self._encode(np.asarray(s), np.asarray(p), np.asarray(o))
        pos = np.searchsorted(self._keys, keys)
        pos = np.minimum(pos, len(self._keys) - 1) if len(self._keys) else pos
        return (
            self._keys[pos] == keys if len(self._keys) else np.zeros_like(keys, bool)
        )

    def insert(self, s: int, p: int, o: int) -> bool:
        key = self._encode(int(s), int(p), int(o))
        pos = int(np.searchsorted(self._keys, key))
        if pos < len(self._keys) and self._keys[pos] == key:
            return False
        self._keys = np.insert(self._keys, pos, key)
        self._by_p = None
        return True

    def delete(self, s: int, p: int, o: int) -> bool:
        key = self._encode(int(s), int(p), int(o))
        pos = int(np.searchsorted(self._keys, key))
        if pos >= len(self._keys) or self._keys[pos] != key:
            return False
        self._keys = np.delete(self._keys, pos)
        self._by_p = None
        return True

    def match(self, pattern) -> np.ndarray:
        """The triples matching one pattern (constants and repeated
        variables applied)."""
        s, p, o = pattern
        if self._by_p is None:
            t = self.triples()
            order = np.argsort(t[:, 1], kind="stable")
            self._by_p = (t[order], np.searchsorted(
                t[order, 1], np.arange(self.n_predicates + 1)))
        table, starts = self._by_p
        if not is_var(p):
            if not 0 <= p < self.n_predicates:
                return table[:0]
            table = table[starts[p]:starts[p + 1]]
            if not is_var(s):
                # Within one predicate the slice is sorted by (s, o).
                lo, hi = np.searchsorted(table[:, 0], [s, s + 1])
                table = table[lo:hi]
        elif not is_var(s):
            table = table[table[:, 0] == s]
        if not is_var(o):
            table = table[table[:, 2] == o]
        for a, b in ((0, 1), (0, 2), (1, 2)):
            if is_var(pattern[a]) and pattern[a] == pattern[b]:
                table = table[table[:, a] == table[:, b]]
        return table


def _relation(store: TripleSet, pattern) -> tuple[list[str], np.ndarray]:
    """One pattern's matches projected onto its distinct variables."""
    table = store.match(pattern)
    names: list[str] = []
    cols: list[int] = []
    for pos, term in enumerate(pattern):
        if is_var(term) and term not in names:
            names.append(term)
            cols.append(pos)
    return names, table[:, cols]


def _join(left, right, max_rows: int):
    """Natural join of two ``(names, rows)`` relations."""
    lnames, lrows = left
    rnames, rrows = right
    shared = [v for v in lnames if v in rnames]
    extra = [v for v in rnames if v not in lnames]
    lkey = lrows[:, [lnames.index(v) for v in shared]]
    rkey = rrows[:, [rnames.index(v) for v in shared]]
    if len(shared) == 1:
        lcode, rcode = lkey[:, 0], rkey[:, 0]
    elif shared:
        # Jointly rank the multi-column keys of both sides.
        _, inverse = np.unique(
            np.concatenate([lkey, rkey]), axis=0, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        lcode, rcode = inverse[: len(lkey)], inverse[len(lkey):]
    else:  # cartesian product
        lcode = np.zeros(len(lrows), dtype=np.int64)
        rcode = np.zeros(len(rrows), dtype=np.int64)
    order = np.argsort(rcode, kind="stable")
    rsorted = rcode[order]
    lo = np.searchsorted(rsorted, lcode, "left")
    hi = np.searchsorted(rsorted, lcode, "right")
    counts = hi - lo
    total = int(counts.sum())
    if total > max_rows:
        raise OracleOverflow(f"join of {total} rows")
    lidx = np.repeat(np.arange(len(lrows)), counts)
    # Position of each output row inside its left row's match run.
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    ridx = order[np.repeat(lo, counts) + offsets]
    out = np.concatenate(
        [lrows[lidx], rrows[ridx][:, [rnames.index(v) for v in extra]]], axis=1
    )
    return lnames + extra, out


def solve(store: TripleSet, bgp, max_rows: int = MAX_JOIN_ROWS):
    """All solutions of ``bgp``: ``(names, rows)`` with ``names`` in the
    BGP's first-appearance order and ``rows`` lexicographically sorted.

    Also returns, as third item, the work done — matched triples plus
    joined rows — a deterministic size the input filters bound.
    """
    relations = [_relation(store, pattern) for pattern in bgp]
    work = sum(len(rows) for _, rows in relations)
    # A fully bound pattern is an existence filter.
    if any(not names and len(rows) == 0 for names, rows in relations):
        relations = [([], np.empty((0, 0), dtype=np.int64))]
    pending = sorted(
        (r for r in relations if r[0]), key=lambda r: len(r[1])
    )
    names = variables(bgp)
    if not pending:
        return names, np.empty((0, len(names)), dtype=np.int64), work
    current = pending.pop(0)
    while pending:
        # Prefer the smallest relation that shares a variable.
        pick = next(
            (i for i, r in enumerate(pending) if set(r[0]) & set(current[0])), 0
        )
        current = _join(current, pending.pop(pick), max_rows)
        work += len(current[1])
    have, rows = current
    # Every row binds all variables, so it names one triple per pattern
    # and no two rows can be equal: sorting is all that canonical form needs.
    rows = rows[:, [have.index(v) for v in names]]
    rows = rows[np.lexsort(rows.T[::-1])] if len(rows) else rows
    return names, rows, work


def check_rows(store: TripleSet, bgp, rows: list[dict], limit: int | None,
               truth=None) -> str | None:
    """Why ``rows`` is a wrong answer to ``bgp``, or ``None``.

    Every row must bind exactly the BGP's variables, be distinct and be
    sound (each instantiated pattern is a triple of the graph).  An
    answer that reached ``limit`` proves ``truth >= limit`` by that
    alone; a shorter one must equal the oracle's full answer as a set.
    ``truth`` passes precomputed ``solve`` rows in.
    """
    names = variables(bgp)
    if limit is not None and len(rows) > limit:
        return f"{len(rows)} rows over limit {limit}"
    try:
        got = np.array(
            [[row[v] for v in names] for row in rows], dtype=np.int64
        ).reshape(len(rows), len(names))
    except KeyError as exc:
        return f"row lacks variable {exc}"
    if any(len(row) != len(names) for row in rows):
        return "row binds unknown variables"
    got = got[np.lexsort(got.T[::-1])] if len(got) else got
    if len(got) > 1 and (got[1:] == got[:-1]).all(axis=1).any():
        return "duplicate rows"
    col = {v: i for i, v in enumerate(names)}
    for pattern in bgp:
        if len(got) == 0:
            break
        s, p, o = (
            got[:, col[t]] if is_var(t) else np.full(len(got), t, dtype=np.int64)
            for t in pattern
        )
        in_range = (
            (s >= 0) & (s < store.n_nodes) & (o >= 0) & (o < store.n_nodes)
            & (p >= 0) & (p < store.n_predicates)
        )
        if not in_range.all() or not store.contains(s, p, o).all():
            return f"unsound row for pattern {pattern}"
    if limit is not None and len(rows) == limit:
        return None
    if truth is None:
        truth = solve(store, bgp)[1]
    if len(truth) != len(got):
        return f"{len(got)} rows, oracle has {len(truth)}"
    if len(got) and not np.array_equal(got, truth):
        return "row set differs from the oracle's"
    return None
