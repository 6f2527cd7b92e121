"""Unit tests for the shared resource governor."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.interface import QueryCancelled, QueryTimeout
from repro.reliability.budget import CancellationToken, ResourceBudget

pytestmark = pytest.mark.reliability


class TestCoerce:
    def test_none_is_unlimited(self):
        budget = ResourceBudget.coerce(None)
        assert budget.unlimited
        for _ in range(10_000):
            budget.tick()  # never raises

    def test_number_becomes_timeout(self):
        budget = ResourceBudget.coerce(5.0)
        assert budget.timeout == 5.0
        assert not budget.unlimited

    def test_budget_passes_through(self):
        original = ResourceBudget(timeout=1.0)
        assert ResourceBudget.coerce(original) is original

    def test_shared_budget_accumulates_ops(self):
        # The same governor handed to two consumers counts both:
        # that is the point of coerce() over per-engine deadlines.
        budget = ResourceBudget(max_ops=100, tick_mask=0)
        for _ in range(60):
            budget.tick()
        with pytest.raises(QueryTimeout):
            for _ in range(60):
                budget.tick()


class TestDeadline:
    def test_expired_deadline_raises_query_timeout(self):
        budget = ResourceBudget(timeout=0.0, tick_mask=0)
        with pytest.raises(QueryTimeout):
            budget.tick()

    def test_masked_ticks_skip_clock_reads(self):
        budget = ResourceBudget(timeout=0.0)  # default mask 0xFF
        # The first 255 ticks are mask hits and never touch the clock.
        for _ in range(255):
            budget.tick()
        with pytest.raises(QueryTimeout):
            for _ in range(256):
                budget.tick()

    def test_poll_reads_the_clock_and_token_not_the_op_cap(self):
        budget = ResourceBudget(max_ops=10)  # default mask: checks at 256
        budget.tick_many(20)
        budget.poll()  # past the cap, but no tick has checked it yet
        with pytest.raises(QueryTimeout):
            budget.check()
        with pytest.raises(QueryTimeout):
            ResourceBudget(timeout=0.0).poll()
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            ResourceBudget(token=token).poll()

    def test_remaining_time(self):
        budget = ResourceBudget(timeout=60.0)
        assert 0 < budget.remaining_time() <= 60.0
        assert ResourceBudget().remaining_time() is None


class TestOpsBudget:
    def test_op_budget_exhaustion(self):
        budget = ResourceBudget(max_ops=10, tick_mask=0)
        with pytest.raises(QueryTimeout, match="operation budget"):
            for _ in range(11):
                budget.tick()

    def test_ops_counted_even_when_masked(self):
        budget = ResourceBudget()
        for _ in range(5):
            budget.tick()
        assert budget.ops == 5

    @given(
        st.sampled_from((0, 0xF, 0xFF)),
        st.integers(0, 600),
        st.lists(st.integers(0, 40), min_size=1, max_size=40),
    )
    def test_tick_many_raises_where_the_ticks_would(self, mask, cap, batches):
        """LTJ charges a block's deferred work in batches: each batch
        must raise at the batch, and with the op count, where as many
        single ticks would."""

        def spend(batched):
            budget = ResourceBudget(max_ops=cap, tick_mask=mask)
            for i, n in enumerate(batches):
                try:
                    if batched:
                        budget.tick_many(n)
                    else:
                        for _ in range(n):
                            budget.tick()
                except QueryTimeout:
                    return i, budget.ops
            return None, budget.ops

        assert spend(True) == spend(False)


class TestCancellation:
    def test_token_cancels(self):
        token = CancellationToken()
        budget = ResourceBudget(token=token, tick_mask=0)
        budget.tick()
        token.cancel()
        with pytest.raises(QueryCancelled):
            budget.tick()

    def test_cancelled_property(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled


class TestSolutions:
    def test_admit_solution_cap(self):
        # The return value answers "may MORE solutions follow?": with a
        # cap of 2, the second admission is the last.
        budget = ResourceBudget(max_solutions=2)
        assert budget.admit_solution()
        assert not budget.admit_solution()
        assert budget.solutions == 2

    def test_unlimited_solutions(self):
        budget = ResourceBudget()
        assert all(budget.admit_solution() for _ in range(100))


class TestValidation:
    def test_deadline_is_monotonic_offset(self):
        before = time.monotonic()
        budget = ResourceBudget(timeout=10.0)
        assert budget.deadline >= before + 9.0


# -- sub-budgets & folding (the sharded serving tier's accounting) -----------

maybe_timeout = st.one_of(st.none(), st.floats(0.0, 60.0, allow_nan=False))
maybe_ops = st.one_of(st.none(), st.integers(0, 10_000))


class TestSubBudget:
    @given(parent_timeout=maybe_timeout, child_timeout=maybe_timeout)
    def test_child_deadline_never_exceeds_parents(
        self, parent_timeout, child_timeout
    ):
        parent = ResourceBudget(timeout=parent_timeout)
        child = parent.sub_budget(timeout=child_timeout)
        if parent.deadline is not None:
            assert child.deadline is not None
            assert child.deadline <= parent.deadline
        elif child_timeout is not None:
            assert child.deadline is not None

    @given(
        parent_ops=maybe_ops,
        spent=st.integers(0, 10_000),
        child_ops=maybe_ops,
    )
    def test_child_op_cap_bounded_by_parents_remaining(
        self, parent_ops, spent, child_ops
    ):
        parent = ResourceBudget(max_ops=parent_ops)
        parent.ops = spent if parent_ops is None else min(spent, parent_ops)
        child = parent.sub_budget(max_ops=child_ops)
        if parent.max_ops is not None:
            assert child.max_ops is not None
            assert child.max_ops <= parent.max_ops - parent.ops
        if child_ops is not None and child.max_ops is not None:
            assert child.max_ops <= child_ops

    def test_child_shares_the_parents_token(self):
        token = CancellationToken()
        parent = ResourceBudget(token=token)
        child = parent.sub_budget(timeout=5.0)
        token.cancel()
        with pytest.raises(QueryCancelled):
            child.check()


class TestFold:
    @given(
        work=st.lists(st.integers(0, 500), min_size=1, max_size=8),
        extra_folds=st.integers(0, 3),
    )
    def test_folding_never_double_counts(self, work, extra_folds):
        """However often each child is folded — after every retry, again
        at the end, in any interleaving — the parent is charged exactly
        the total work once."""
        parent = ResourceBudget()
        children = []
        for ops in work:
            child = parent.sub_budget()
            child.ops = ops
            children.append(child)
            parent.fold(child)
            for again in children:  # refold everything seen so far
                for _ in range(extra_folds):
                    parent.fold(again)
        assert parent.ops == sum(work)

    @given(increments=st.lists(st.integers(0, 100), min_size=1, max_size=6))
    def test_incremental_folds_sum_to_child_ops(self, increments):
        parent = ResourceBudget()
        child = parent.sub_budget()
        for inc in increments:
            child.ops += inc
            parent.fold(child)
        assert parent.ops == child.ops == sum(increments)

    def test_fold_returns_the_delta(self):
        parent = ResourceBudget()
        child = parent.sub_budget()
        child.ops = 7
        assert parent.fold(child) == 7
        assert parent.fold(child) == 0
        child.ops = 10
        assert parent.fold(child) == 3
