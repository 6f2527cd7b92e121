"""Generic task pool (:class:`repro.parallel.pool.TaskPool`).

The contract under test: arbitrary picklable payloads run through one
module-level executor, results return in payload order, a *raising*
task surfaces as :class:`TaskError` only after the whole batch settled,
and a *killed* worker's tasks are rescued inline (then the worker is
respawned for the next batch).  The executor is re-resolved from its
module per task, so an attribute patched before the pool forks — the
fault-injection idiom — fires inside the workers too, respawned ones
included.
"""

import os
import sys

import pytest

from repro.parallel import TaskError, TaskPool
from repro.parallel.pool import PoolUnavailable

EXECUTOR = "tests.parallel.test_taskpool:_echo_task"


def _echo_task(payload):
    if payload.get("raise"):
        raise ValueError(f"boom on {payload['value']}")
    return {"double": payload["value"] * 2}


def _tripled_task(payload):
    return {"triple": payload["value"] * 3, "pid": os.getpid()}


@pytest.fixture
def pool():
    p = TaskPool(EXECUTOR, workers=2)
    yield p
    p.close()


class TestRun:
    def test_results_in_payload_order(self, pool):
        out = pool.run([{"value": v} for v in range(7)])
        assert [r["double"] for r in out] == [0, 2, 4, 6, 8, 10, 12]
        stats = pool.stats()
        assert stats["dispatched"] == 7
        assert stats["completed"] == 7
        assert stats["serial_rescues"] == 0
        assert stats["batches"] == 1

    def test_multiple_batches_reuse_workers(self, pool):
        first = pool.run([{"value": 1}, {"value": 2}])
        second = pool.run([{"value": 10}])
        assert [r["double"] for r in first] == [2, 4]
        assert second[0]["double"] == 20
        assert pool.stats()["batches"] == 2

    def test_empty_batch(self, pool):
        assert pool.run([]) == []


class TestFailureModel:
    def test_raising_task_is_typed_after_batch_settles(self, pool):
        payloads = [{"value": 0}, {"value": 1, "raise": True}, {"value": 2}]
        with pytest.raises(TaskError, match="task 1 failed.*boom on 1"):
            pool.run(payloads)
        # Every task settled before the raise: the pool is still whole
        # and the next batch runs clean.
        out = pool.run([{"value": 5}])
        assert out[0]["double"] == 10

    def test_killed_worker_is_rescued_inline(self, pool):
        pool._kill_after_dispatch = 0
        out = pool.run([{"value": v} for v in range(6)])
        assert [r["double"] for r in out] == [0, 2, 4, 6, 8, 10]
        stats = pool.stats()
        assert stats["serial_rescues"] >= 1
        assert stats["respawns"] >= 1
        # The respawned worker serves the next batch at full strength.
        assert pool.alive_workers == 2
        assert pool.run([{"value": 9}])[0]["double"] == 18

    def test_rescue_of_raising_task_still_raises(self, pool):
        pool._kill_after_dispatch = 0
        with pytest.raises(TaskError):
            pool.run([{"value": v, "raise": v == 1} for v in range(6)])

    def test_closed_pool_refuses_work(self):
        p = TaskPool(EXECUTOR, workers=1)
        p.close()
        with pytest.raises(PoolUnavailable):
            p.run([{"value": 1}])
        p.close()  # idempotent


class TestExecutorResolution:
    def test_patched_attribute_fires_in_forked_workers(self, monkeypatch):
        # The fault-injection idiom: patch the module attribute *before*
        # the pool forks; per-task resolution makes workers call the
        # patched function, not a captured original.
        monkeypatch.setattr(
            sys.modules[__name__], "_echo_task", _tripled_task
        )
        p = TaskPool(EXECUTOR, workers=2)
        try:
            out = p.run([{"value": v} for v in range(4)])
        finally:
            p.close()
        assert [r["triple"] for r in out] == [0, 3, 6, 9]

    def test_patched_attribute_fires_in_a_worker_respawned_after_a_kill(
        self, monkeypatch
    ):
        # The build drills arm a site, kill a worker mid-batch and expect
        # its replacement to fire the same site: the replacement is
        # forked after the kill, from a parent that still holds the patch.
        monkeypatch.setattr(
            sys.modules[__name__], "_echo_task", _tripled_task
        )
        p = TaskPool(EXECUTOR, workers=2)
        try:
            p._kill_after_dispatch = 0
            first = p.run([{"value": v} for v in range(4)])
            respawned = p._procs[0].pid
            rescues = p.stats()["serial_rescues"]
            second = p.run([{"value": v} for v in range(4)])
            stats = p.stats()
        finally:
            p.close()
        assert [r["triple"] for r in first] == [0, 3, 6, 9]
        assert [r["triple"] for r in second] == [0, 3, 6, 9]
        assert stats["respawns"] >= 1
        assert stats["serial_rescues"] == rescues
        assert respawned in {r["pid"] for r in second}


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            TaskPool(EXECUTOR, workers=0)

    def test_executor_spec_needs_colon(self):
        with pytest.raises(ValueError):
            TaskPool("repro.graph.bulkload", workers=1)
