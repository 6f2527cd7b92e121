"""The process pool: one executor per pool, inline rescue of dead workers.

:class:`TaskPool` runs picklable payloads through one module-level
executor (``"package.module:function"``) in a fixed set of forked
worker processes.  Its client is the bulk builder: the wavelet, counts
and shard tasks of :mod:`repro.graph.bulkload`.

Failure model:

- **per-worker queue pairs** — a process killed mid-``get``/``put`` can
  leave a queue's internal lock held forever, so queues are never
  shared and a respawned worker gets fresh ones;
- **inline rescue** — tasks of a dead worker are re-executed in the
  calling process through the same executor (resolved from its module,
  so injected faults apply there too), never silently dropped;
- **respawn after the batch** — the degraded batch ran short-handed;
  the next one is whole;
- a task that *raises* surfaces as :class:`TaskError` after the whole
  batch has settled; a pool that cannot spawn a single worker raises
  :class:`PoolUnavailable` and callers degrade to serial.

Workers are forked: they inherit the parent's imports and any module
attribute a fault injector patched (which is how armed sites fire
inside them), respawned workers included.
"""

from __future__ import annotations

import importlib
import itertools
import multiprocessing as mp
import queue as queue_mod
import threading
import time
from typing import Optional, Sequence

#: The one start method (see the module docstring).
_CTX = mp.get_context("fork")


class PoolUnavailable(RuntimeError):
    """No live worker can take tasks; callers degrade to serial."""


class TaskError(RuntimeError):
    """A :class:`TaskPool` task raised (message attached)."""


def _resolve(executor: str):
    """The executor's module attribute, looked up now.

    Workers and the inline rescue resolve it **per task**, never once
    at spawn: fault injection (:mod:`repro.reliability.faults`) patches
    module attributes, and forked workers inherit the patched module —
    so a site armed around the executor fires inside workers exactly as
    it does inline.
    """
    mod_name, _, attr = executor.partition(":")
    return getattr(importlib.import_module(mod_name), attr)


def _task_worker_main(worker_id, executor, task_q, result_q):
    """Worker loop: serve tasks until ``None``."""
    while True:
        task = task_q.get()
        if task is None:
            return
        task_id, payload = task
        started = time.monotonic()
        try:
            result = _resolve(executor)(payload)
            status, error = "ok", None
        except BaseException as exc:  # ship the failure, keep serving
            result, status = None, "error"
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.monotonic() - started
        result_q.put((worker_id, task_id, status, result, error, elapsed))


def _spawn_worker(worker_id, executor, task_q, result_q):
    """Start one worker process (chaos site ``parallel.spawn``)."""
    proc = _CTX.Process(
        target=_task_worker_main,
        args=(worker_id, executor, task_q, result_q),
        name=f"pool-worker-{worker_id}",
        daemon=True,
    )
    proc.start()
    return proc


class TaskPool:
    """A fixed set of worker processes running one executor's tasks.

    One batch runs at a time (an internal lock); concurrent callers
    queue up.  Workers are long-lived and forked, so whatever the
    parent set up before the pool started is already theirs.
    A task that raises surfaces as :class:`TaskError` after the whole
    batch has settled — callers get deterministic all-or-error
    semantics, and file outputs written with ``"wb"`` truncation make
    re-execution idempotent.
    """

    def __init__(self, executor: str, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if ":" not in executor:
            raise ValueError("executor must be 'package.module:function'")
        self._executor = executor
        self._result_qs = [_CTX.Queue() for _ in range(workers)]
        self._task_qs = [_CTX.Queue() for _ in range(workers)]
        self._procs: list = [None] * workers
        self._busy = [0.0] * workers
        self._lock = threading.Lock()
        self._task_counter = itertools.count()
        self._counters = {
            "batches": 0,
            "dispatched": 0,
            "completed": 0,
            "respawns": 0,
            "serial_rescues": 0,
            "spawn_failures": 0,
        }
        #: Test/chaos hook: worker id to ``kill()`` right after dispatch —
        #: deterministically exercises the dead-worker rescue path.
        self._kill_after_dispatch: Optional[int] = None
        self._closed = False
        for wid in range(workers):
            self._try_spawn(wid)
        if not any(p is not None for p in self._procs):
            self.close()
            raise PoolUnavailable("no worker process could be spawned")

    # -- lifecycle -----------------------------------------------------------

    def _try_spawn(self, wid: int) -> None:
        try:
            self._procs[wid] = _spawn_worker(
                wid,
                self._executor,
                self._task_qs[wid],
                self._result_qs[wid],
            )
        except Exception:
            self._procs[wid] = None
            self._counters["spawn_failures"] += 1

    def _is_alive(self, wid: int) -> bool:
        proc = self._procs[wid]
        return proc is not None and proc.is_alive()

    @property
    def workers(self) -> int:
        return len(self._procs)

    @property
    def alive_workers(self) -> int:
        return sum(1 for wid in range(len(self._procs)) if self._is_alive(wid))

    def close(self) -> None:
        """Stop every worker and release the queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for wid, tq in enumerate(self._task_qs):
            if self._is_alive(wid):
                try:
                    tq.put_nowait(None)
                except Exception:
                    pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        for q in [*self._result_qs, *self._task_qs]:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- execution -----------------------------------------------------------

    def run(self, payloads: Sequence) -> list:
        """Execute one task per payload; results return in payload order.

        Dead workers' unfinished tasks are rescued inline; a task that
        raised (in a worker or during rescue) makes the whole call raise
        :class:`TaskError` — after every other task has settled, so
        callers never leave orphan work running.
        """
        if self._closed:
            raise PoolUnavailable("pool is closed")
        with self._lock:
            alive = [w for w in range(len(self._procs)) if self._is_alive(w)]
            if not alive:
                raise PoolUnavailable("no live workers")
            self._counters["batches"] += 1
            for rq in self._result_qs:  # stale results from a prior batch
                self._drain(rq)

            payloads = list(payloads)
            task_ids = [next(self._task_counter) for _ in payloads]
            index_of = {tid: i for i, tid in enumerate(task_ids)}
            assignment: dict[int, int] = {}
            for i, (tid, payload) in enumerate(zip(task_ids, payloads)):
                wid = alive[i % len(alive)]
                self._task_qs[wid].put((tid, payload))
                assignment[tid] = wid
                self._counters["dispatched"] += 1

            if self._kill_after_dispatch is not None:
                wid, self._kill_after_dispatch = self._kill_after_dispatch, None
                proc = self._procs[wid]
                if proc is not None:
                    proc.kill()
                    proc.join(timeout=1.0)

            results: dict[int, object] = {}
            errors: dict[int, str] = {}
            while len(results) < len(payloads):
                progressed = False
                for rq in list(self._result_qs):
                    while True:
                        try:
                            msg = rq.get_nowait()
                        except (queue_mod.Empty, OSError, ValueError):
                            break
                        progressed = True
                        wid, tid, status, result, error, elapsed = msg
                        if tid not in index_of or tid in results:
                            continue  # stale or already rescued
                        results[tid] = result
                        if status != "ok":
                            errors[tid] = error or "unknown worker error"
                        self._busy[wid] += elapsed
                        self._counters["completed"] += 1
                if len(results) >= len(payloads):
                    break
                if not progressed:
                    self._rescue_dead(
                        assignment, results, errors, index_of, payloads
                    )
                    time.sleep(0.005)

            self._respawn_dead()
        if errors:
            tid = min(errors)  # deterministic: lowest task id first
            raise TaskError(f"task {index_of[tid]} failed: {errors[tid]}")
        return [results[tid] for tid in task_ids]

    def _rescue_dead(self, assignment, results, errors, index_of, payloads):
        """Inline re-execution of unfinished tasks of dead workers."""
        for tid, wid in assignment.items():
            if tid in results or self._is_alive(wid):
                continue
            try:
                results[tid] = _resolve(self._executor)(payloads[index_of[tid]])
            except Exception as exc:
                results[tid] = None
                errors[tid] = f"{type(exc).__name__}: {exc}"
            self._counters["serial_rescues"] += 1

    def _respawn_dead(self) -> None:
        """Replace dead workers after the batch (keeps drills observable:
        the degraded batch ran short-handed; the next one is whole).

        The dead worker's queues are *discarded*, never reused: a
        process killed inside ``Queue.get`` leaves the queue's internal
        lock acquired forever, so a replacement sharing it would hang on
        its first read.  Fresh queues also obsolete any undelivered
        tasks the parent already rescued.
        """
        for wid, proc in enumerate(self._procs):
            if self._is_alive(wid):
                continue
            if proc is not None:
                proc.join(timeout=0.5)
            for old in (self._task_qs[wid], self._result_qs[wid]):
                try:
                    old.close()
                    old.cancel_join_thread()
                except Exception:
                    pass
            self._task_qs[wid] = _CTX.Queue()
            self._result_qs[wid] = _CTX.Queue()
            self._try_spawn(wid)
            if self._procs[wid] is not None:
                self._counters["respawns"] += 1

    @staticmethod
    def _drain(q) -> None:
        while True:
            try:
                q.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Pool telemetry: worker liveness, batch counters, busy seconds."""
        return {
            "workers": len(self._procs),
            "alive_workers": self.alive_workers,
            "busy_seconds": list(self._busy),
            **self._counters,
        }
