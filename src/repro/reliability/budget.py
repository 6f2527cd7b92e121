"""The unified resource governor every engine acquires its budget from.

Before this module each engine hand-rolled its own failure handling:
``core/ltj.py`` had a private ``_Deadline``, each pairwise baseline
duplicated a ``time.monotonic()`` loop, and ``relational/orders.py``
raised the builtin ``TimeoutError``.  :class:`ResourceBudget` replaces
all of them with one cooperative governor:

- **wall-clock deadline** — ``timeout`` seconds from construction;
- **op-count cap** — ``max_ops`` cooperative ticks (the branch-and-bound
  node budget of :func:`repro.relational.orders.exact_cover_size`);
- **max-solutions cap** — ``max_solutions``, consulted by the serving
  layer through :meth:`admit_solution`;
- **external cancellation** — a :class:`CancellationToken` another
  thread (or request handler) may trip at any time.

Engines call :meth:`tick` once per elementary operation; the clock and
the token are only consulted every ``tick_mask + 1`` operations, keeping
the hot path at one increment and one mask test.  Exhaustion raises the
shared typed exceptions: :class:`~repro.core.interface.QueryTimeout`
for deadline/op-budget, :class:`~repro.core.interface.QueryCancelled`
for token trips — so every engine fails identically and callers catch
one exception family.

A budget is also accepted anywhere a plain ``timeout`` float used to be:
:meth:`ResourceBudget.coerce` turns ``None``/seconds/budget into a
budget, which lets :class:`~repro.core.system.BaseQuerySystem` thread
one shared governor (with one shared op counter) through an engine
without changing any call signature.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Union

from repro.core.interface import QueryCancelled, QueryTimeout

DEFAULT_TICK_MASK = 0xFF  # consult the clock every 256 operations


class CancellationToken:
    """Thread-safe external cancellation signal.

    Hand the token to ``evaluate(..., cancellation=token)`` and call
    :meth:`cancel` from any thread; the engine raises
    :class:`~repro.core.interface.QueryCancelled` at its next
    cooperative check.  A token made with a ``parent`` reads as
    cancelled once the parent is; cancelling it leaves the parent alone.
    """

    __slots__ = ("_event", "_parent")

    def __init__(self, parent: Optional["CancellationToken"] = None) -> None:
        self._event = threading.Event()
        self._parent = parent

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set() or (
            self._parent is not None and self._parent.cancelled
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"CancellationToken({state})"


class ResourceBudget:
    """Cooperative budget shared by an entire query evaluation.

    Parameters
    ----------
    timeout:
        Wall-clock budget in seconds (``None`` = unlimited).
    max_ops:
        Cap on cooperative ticks (``None`` = unlimited).
    max_solutions:
        Cap consulted via :meth:`admit_solution` (``None`` = unlimited).
    token:
        Optional :class:`CancellationToken` checked alongside the clock.
    tick_mask:
        The clock/token are consulted when ``ops & tick_mask == 0``;
        pass ``0`` to check on every tick (exact op budgets).
    """

    __slots__ = (
        "timeout",
        "deadline",
        "max_ops",
        "max_solutions",
        "token",
        "tick_mask",
        "ops",
        "solutions",
        "_folded_ops",
    )

    def __init__(
        self,
        timeout: Optional[float] = None,
        max_ops: Optional[int] = None,
        max_solutions: Optional[int] = None,
        token: Optional[CancellationToken] = None,
        tick_mask: int = DEFAULT_TICK_MASK,
    ) -> None:
        self.timeout = timeout
        # `timeout=0` means "already expired", not "unlimited".
        self.deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        self.max_ops = max_ops
        self.max_solutions = max_solutions
        self.token = token
        self.tick_mask = tick_mask
        self.ops = 0
        self.solutions = 0
        # Ops of THIS budget already folded into some parent via
        # ``parent.fold(self)``; makes repeated folds idempotent.
        self._folded_ops = 0

    # -- construction helpers ------------------------------------------------

    @classmethod
    def coerce(
        cls, value: Union[None, int, float, "ResourceBudget"]
    ) -> "ResourceBudget":
        """Accept what engines historically took as ``timeout``.

        ``None`` → unlimited budget; a number → fresh deadline budget;
        an existing budget → itself (sharing its op counter).
        """
        if value is None:
            return cls()
        if isinstance(value, ResourceBudget):
            return value
        return cls(timeout=float(value))

    def sub_budget(
        self,
        timeout: Optional[float] = None,
        max_ops: Optional[int] = None,
        max_solutions: Optional[int] = None,
    ) -> "ResourceBudget":
        """A child budget that can never outlive (or outspend) this one.

        The sharded serving tier hands each per-shard dispatch — and the
        coordinator's local join — a sub-budget instead of the parent:

        - the child's **deadline is clamped** to the parent's, so a
          per-shard ``timeout`` can only tighten it, never extend it;
        - the child **shares the parent's cancellation token**, so
          cancelling the query cancels every outstanding shard call;
        - the child's **op cap** is at most the parent's remaining
          allowance (its own counter starts at zero);
        - the child's work is accounted back through :meth:`fold`, which
          is idempotent per child — retried shards and repeated folds
          can never double-charge the parent.
        """
        child = ResourceBudget(
            timeout=timeout,
            max_ops=None,
            max_solutions=max_solutions,
            token=self.token,
            tick_mask=self.tick_mask,
        )
        if self.deadline is not None and (
            child.deadline is None or child.deadline > self.deadline
        ):
            child.deadline = self.deadline
            child.timeout = self.remaining_time()
        if self.max_ops is not None:
            remaining = max(self.max_ops - self.ops, 0)
            child.max_ops = (
                remaining if max_ops is None else min(max_ops, remaining)
            )
        elif max_ops is not None:
            child.max_ops = max_ops
        return child

    def fold(self, child: "ResourceBudget") -> int:
        """Charge ``child``'s unfolded ops to this budget; returns the delta.

        Safe to call any number of times per child (only the ops accrued
        since the previous fold are added) and never raises — the caller
        decides when to :meth:`check`.  This is how scatter-gather layers
        keep one parent governor honest across shard retries without
        double-counting work that was already accounted.
        """
        delta = child.ops - child._folded_ops
        if delta <= 0:
            return 0
        child._folded_ops = child.ops
        self.ops += delta
        return delta

    @property
    def unlimited(self) -> bool:
        """True when no constraint can ever fire."""
        return (
            self.deadline is None
            and self.max_ops is None
            and self.token is None
        )

    # -- the cooperative hot path ----------------------------------------------

    def tick(self) -> None:
        """Account one elementary operation; cheap unless due a check."""
        self.ops += 1
        if self.ops & self.tick_mask:
            return
        self.check()

    def tick_many(self, n: int) -> None:
        """Account ``n`` elementary operations served by one batch call.

        The batch kernels and LTJ's block search charge the budget
        exactly as ``n`` scalar :meth:`tick` calls would: the op counter
        advances by ``n``, and when a check point (every ``tick_mask +
        1`` ops) was crossed the constraints are consulted at the first
        one — and, past an op cap, at the first check point above the
        cap — with the counter where those ticks would have left it.
        """
        if n <= 0:
            return
        before = self.ops
        after = before + n
        mask = self.tick_mask
        if (after & ~mask) == (before & ~mask):
            self.ops = after
            return
        self.ops = (before | mask) + 1
        self.check()
        if self.max_ops is not None and after > self.max_ops:
            cap = (self.max_ops | mask) + 1  # the check that would raise
            if cap <= after:
                self.ops = cap
                self.check()
        self.ops = after

    def check(self) -> None:
        """Consult every constraint now (raises on exhaustion).

        The deadline outranks the cancellation token: the broker's
        watchdog *cancels* queries that overstay their deadline, so an
        expired query may observe both conditions — and must surface as
        the :class:`QueryTimeout` it is, not as a caller cancellation
        that happens to have won the watchdog-vs-tick race.
        """
        self.poll()
        if self.max_ops is not None and self.ops > self.max_ops:
            raise QueryTimeout(
                f"operation budget exhausted ({self.ops} > {self.max_ops} ops)"
            )

    def poll(self) -> None:
        """Consult the deadline and the token, not the op cap.

        For work done but not yet charged (LTJ's block search charges a
        binding's ops only when it is consumed): the clock and the token
        may fire at any moment, while the op cap must fire only where
        :meth:`tick` would have checked it.
        """
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeout(f"deadline exceeded ({self.timeout:g}s)")
        if self.token is not None and self.token.cancelled:
            raise QueryCancelled("query cancelled by caller")

    # -- solution accounting -----------------------------------------------------

    def admit_solution(self) -> bool:
        """Account one emitted solution.

        Returns whether *further* solutions may still be emitted —
        ``False`` as soon as this one reaches the cap, so the caller's
        ``if not budget.admit_solution(): break`` stops with exactly
        ``max_solutions`` rows collected.
        """
        self.solutions += 1
        return self.max_solutions is None or self.solutions < self.max_solutions

    def remaining_time(self) -> Optional[float]:
        """Seconds left on the wall clock (``None`` = unlimited)."""
        if self.deadline is None:
            return None
        return max(self.deadline - time.monotonic(), 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"ops={self.ops}"]
        if self.timeout is not None:
            parts.append(f"timeout={self.timeout:g}s")
        if self.max_ops is not None:
            parts.append(f"max_ops={self.max_ops}")
        if self.max_solutions is not None:
            parts.append(f"max_solutions={self.max_solutions}")
        if self.token is not None:
            parts.append(repr(self.token))
        return f"ResourceBudget({', '.join(parts)})"
