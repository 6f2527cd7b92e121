"""Concurrent query broker: admission control over a snapshot index.

The dynamic ring's epoch snapshots (see
:mod:`repro.core.dynamic`) make reads and writes safe to interleave;
this module adds the serving discipline around them:

- **bounded admission** — queries enter a fixed-depth queue served by a
  small worker pool.  When the queue is full, :meth:`QueryBroker.submit`
  sheds the query immediately with a typed :class:`QueryRejected`
  instead of queueing without bound — the caller gets a fast, explicit
  "try later", and the workers never fall arbitrarily far behind;
- **per-query watchdog** — every admitted query runs under its own
  :class:`~repro.reliability.budget.ResourceBudget` (deadline, op cap,
  solution cap) wired to a :class:`CancellationToken`.  The engines
  honour the budget cooperatively; a watchdog thread additionally trips
  the token of any query that overstays its deadline (including time
  spent queued), so even a stall inside a single engine call cannot
  wedge a worker forever without at least being flagged;
- **background maintenance** — an optional thread periodically calls
  the index's ``maintenance()`` (buffer freeze, geometric merges, WAL
  checkpointing for :class:`~repro.reliability.wal.DurableDynamicRing`)
  so compaction cost stays off the query path.  In-flight queries hold
  pre-merge snapshots and are unaffected.

The broker works with any object exposing ``evaluate`` (the static
ring included); snapshot isolation guarantees only hold for indexes
that provide them (the dynamic ring family).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Optional

from concurrent.futures import Future

from repro.core.interface import QueryError
from repro.core.system import Request, Submitting
from repro.reliability.budget import CancellationToken

DEFAULT_WORKERS = 4
DEFAULT_QUEUE_DEPTH = 64


class QueryRejected(QueryError):
    """Admission control shed this query (the bounded queue was full)."""


class _Job:
    """One admitted request, its budget (derived from it) and its token."""

    __slots__ = (
        "request", "future", "budget", "token", "deadline_at",
        "coalesce_key", "followers",
    )

    def __init__(self, request, token):
        self.request = request
        self.future: Future = Future()
        self.token = token
        self.budget = request.budget(token)
        self.deadline_at = (
            time.monotonic() + request.timeout
            if request.timeout is not None
            else None
        )
        #: Canonical cache key when this job leads a coalescing class.
        self.coalesce_key = None
        #: Concurrent submissions of the same canonical query, parked
        #: here instead of the queue; drained after the leader finishes.
        self.followers: list["_Job"] = []


class QueryBroker(Submitting):
    """Bounded, watched, concurrent query intake for one index.

    Parameters
    ----------
    index:
        Anything with ``evaluate(request, budget=...)``.
    workers:
        Worker threads evaluating admitted queries.
    queue_depth:
        Maximum queries waiting beyond the ones being executed; a full
        queue rejects with :class:`QueryRejected`.
    default_timeout:
        Deadline (seconds) applied to queries submitted without one.
    maintenance_interval:
        Seconds between background ``index.maintenance()`` calls;
        ``None`` disables the maintenance thread.
    watchdog_interval:
        Poll period of the deadline watchdog.
    coalesce:
        In-flight request coalescing (default on; effective only when
        the index exposes ``cache_probe`` — i.e. is a
        :class:`~repro.cache.system.CachedQuerySystem`).  Submissions
        whose canonical cache key matches a query already admitted and
        not yet finished do not enter the queue: they park behind that
        *leader* and are answered from the leader's just-stored cache
        entry when it completes — one evaluation fans out to every
        concurrent identical request.  If the leader fails or times
        out, parked followers fall back to their own evaluations
        (degradation, never a shared wrong answer).
    """

    def __init__(
        self,
        index,
        *,
        workers: int = DEFAULT_WORKERS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        default_timeout: Optional[float] = None,
        maintenance_interval: Optional[float] = 0.05,
        watchdog_interval: float = 0.02,
        coalesce: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self._index = index
        self._queue: "queue.Queue[_Job]" = queue.Queue(maxsize=queue_depth)
        self._workers_n = workers
        self._default_timeout = default_timeout
        self._maintenance_interval = maintenance_interval
        self._watchdog_interval = watchdog_interval
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self._inflight: set[_Job] = set()
        self._inflight_lock = threading.Lock()
        self._probe = getattr(index, "cache_probe", None) if coalesce else None
        if not callable(self._probe):
            self._probe = None
        self._leaders: dict[object, _Job] = {}
        self._leader_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._stats = {
            "submitted": 0,
            "rejected": 0,
            "completed": 0,
            "failed": 0,
            "cancelled_by_watchdog": 0,
            "maintenance_runs": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "coalesce_fanout": 0,
        }
        # Wall-clock seconds each worker thread spent inside evaluate()
        # (indexed like the ``broker-worker-{i}`` thread names).
        self._busy_seconds = [0.0] * workers

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "QueryBroker":
        if self._started:
            raise RuntimeError("broker already started")
        self._started = True
        self._stop.clear()
        for i in range(self._workers_n):
            t = threading.Thread(
                target=self._worker_loop,
                args=(i,),
                name=f"broker-worker-{i}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)
        t = threading.Thread(
            target=self._watchdog_loop, name="broker-watchdog", daemon=True
        )
        t.start()
        self._threads.append(t)
        if self._maintenance_interval is not None and hasattr(
            self._index, "maintenance"
        ):
            t = threading.Thread(
                target=self._maintenance_loop,
                name="broker-maintenance",
                daemon=True,
            )
            t.start()
            self._threads.append(t)
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Drain: reject queued work, cancel nothing in flight, join."""
        if not self._started:
            return
        self._stop.set()
        # Fail queued-but-unstarted futures so callers don't hang —
        # including followers parked behind a drained leader.
        self._drain_queue()
        for t in self._threads:
            t.join(timeout=timeout)
        # Close the submit/stop race: a submit() that passed the entry
        # check before the flag flipped may have enqueued its job after
        # the drain above.  With the workers joined nothing consumes the
        # queue any more, so drain once again — between this sweep and
        # submit()'s own post-enqueue re-check (see below), every such
        # straggler is failed rather than stranded.
        self._drain_queue()
        self._threads.clear()
        self._started = False

    def _drain_queue(self) -> None:
        """Fail every queued-but-unstarted job with :class:`QueryRejected`."""
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            for waiter in [job] + self._release_followers(job):
                if not waiter.future.done():
                    waiter.future.set_exception(
                        QueryRejected("broker shut down")
                    )
                with self._inflight_lock:
                    self._inflight.discard(waiter)

    def __enter__(self) -> "QueryBroker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- intake --------------------------------------------------------------

    def submit(
        self,
        query,
        *,
        cancellation: Optional[CancellationToken] = None,
        **fields,
    ) -> Future:
        """Admit a :class:`~repro.core.system.Request` (or ``query`` plus
        its fields); returns a :class:`Future` of its QueryResult.

        The job's budget and watchdog deadline both come from the request
        (``timeout`` defaulting to the broker's), so a pre-built
        ``budget=`` is a ``TypeError``; ``cancellation`` cancels the job.
        Raises :class:`QueryRejected` *synchronously* when the queue is
        full — load shedding is an admission-time decision.
        """
        request = Request.of(query, **fields)
        if not self._started or self._stop.is_set():
            raise QueryRejected("broker is not running")
        if request.timeout is None and self._default_timeout is not None:
            request = request._replace(timeout=self._default_timeout)
        job = _Job(request, CancellationToken(parent=cancellation))
        with self._stats_lock:
            self._stats["submitted"] += 1
        if self._probe is not None:
            try:
                key, served = self._probe(request, job.budget)
            except Exception:
                key, served = None, None  # fail open: run normally
            if served is not None:
                # Resident complete result at the current generation —
                # answered at admission, no queue slot, no worker.
                with self._stats_lock:
                    self._stats["cache_hits"] += 1
                    self._stats["completed"] += 1
                job.future.set_result(served)
                return job.future
            if key is not None:
                with self._leader_lock:
                    leader = self._leaders.get(key)
                    if leader is not None:
                        # Same canonical query already in flight: park
                        # behind it instead of evaluating twice.
                        leader.followers.append(job)
                        with self._stats_lock:
                            self._stats["coalesced"] += 1
                        with self._inflight_lock:
                            self._inflight.add(job)  # watchdog coverage
                        return job.future
                    job.coalesce_key = key
                    self._leaders[key] = job
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            self._abandon_leadership(job)
            with self._stats_lock:
                self._stats["rejected"] += 1
            raise QueryRejected(
                f"admission queue full "
                f"({self._queue.maxsize} waiting, {self._workers_n} workers)"
            ) from None
        if self._stop.is_set():
            # The entry check above raced stop(): the flag flipped after
            # it passed, so this job may have been enqueued after stop()
            # drained the queue — with the workers gone, nothing would
            # ever cancel or fail it.  The flag is set before stop()
            # drains, so at this point either stop()'s sweep already
            # failed the job, or it is still queued and this drain fails
            # it now; either way the future resolves.
            self._drain_queue()
            exc = (
                job.future.exception(timeout=0)
                if job.future.done()
                else None
            )
            if isinstance(exc, QueryRejected):
                raise exc
        return job.future

    def _abandon_leadership(self, job: _Job) -> None:
        """Drop ``job``'s coalescing registration (if it holds one)."""
        if job.coalesce_key is None:
            return
        with self._leader_lock:
            if self._leaders.get(job.coalesce_key) is job:
                del self._leaders[job.coalesce_key]

    def _release_followers(self, job: _Job) -> list["_Job"]:
        """End ``job``'s leadership; returns the parked followers.

        Called when the leader finishes (either way) *before* its
        future resolves, so a submission arriving afterwards starts a
        fresh leader instead of attaching to a finished one.
        """
        if job.coalesce_key is None:
            return []
        with self._leader_lock:
            if self._leaders.get(job.coalesce_key) is job:
                del self._leaders[job.coalesce_key]
            followers, job.followers = job.followers, []
        if followers:
            with self._stats_lock:
                self._stats["coalesce_fanout"] += len(followers)
        return followers

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """Serving telemetry.

        Always present: the lifecycle counters, ``queued`` (current
        queue occupancy), ``queue_depth`` (its bound), ``in_flight``,
        ``workers`` and per-thread ``busy_seconds``.  When the index
        has a serving cache (``cache_stats()``), its telemetry is
        nested under ``"cache"``.
        """
        with self._stats_lock:
            out = dict(self._stats)
            out["busy_seconds"] = list(self._busy_seconds)
        out["queued"] = self._queue.qsize()
        out["queue_depth"] = self._queue.maxsize
        out["workers"] = self._workers_n
        with self._inflight_lock:
            out["in_flight"] = len(self._inflight)
        cache_stats = getattr(self._index, "cache_stats", None)
        if callable(cache_stats):
            out["cache"] = cache_stats()
        return out

    # -- threads -------------------------------------------------------------

    def _worker_loop(self, worker_id: int) -> None:
        while not self._stop.is_set():
            try:
                job = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            if not job.future.set_running_or_notify_cancel():
                self._run_followers(self._release_followers(job), worker_id)
                continue
            followers = self._run_job(job, worker_id)
            self._run_followers(followers, worker_id)

    def _run_job(self, job: _Job, worker_id: int) -> list[_Job]:
        """Evaluate one admitted job; returns its released followers."""
        with self._inflight_lock:
            self._inflight.add(job)
        started = time.monotonic()
        followers: list[_Job] = []
        try:
            result = self._index.evaluate(job.request, budget=job.budget)
        except BaseException as exc:  # typed QueryErrors included
            followers = self._release_followers(job)
            with self._stats_lock:
                self._stats["failed"] += 1
            job.future.set_exception(exc)
        else:
            # Leadership ends before the future resolves: a submission
            # observing the result via the future can never attach to
            # an already-finished leader.
            followers = self._release_followers(job)
            with self._stats_lock:
                self._stats["completed"] += 1
            job.future.set_result(result)
        finally:
            elapsed = time.monotonic() - started
            with self._stats_lock:
                self._busy_seconds[worker_id] += elapsed
            with self._inflight_lock:
                self._inflight.discard(job)
        return followers

    def _run_followers(self, followers: list[_Job], worker_id: int) -> None:
        """Answer parked followers after their leader finished.

        Each follower re-evaluates through the (cached) index under its
        *own* request and budget: when the leader stored a complete
        result this is an O(rows) cache hit translated to the
        follower's variables; when the leader failed, timed out, or
        produced an uncacheable (truncated) result, the follower falls
        back to a normal evaluation — degraded throughput, identical
        answers.
        """
        for f in followers:
            if not f.future.set_running_or_notify_cancel():
                with self._inflight_lock:
                    self._inflight.discard(f)
                continue
            self._run_job(f, worker_id)

    def _watchdog_loop(self) -> None:
        while not self._stop.is_set():
            now = time.monotonic()
            with self._inflight_lock:
                overdue = [
                    job
                    for job in self._inflight
                    if job.deadline_at is not None
                    and now > job.deadline_at
                    and not job.token.cancelled
                ]
            for job in overdue:
                job.token.cancel()
                with self._stats_lock:
                    self._stats["cancelled_by_watchdog"] += 1
            self._stop.wait(self._watchdog_interval)

    def _maintenance_loop(self) -> None:
        while not self._stop.is_set():
            try:
                if self._index.maintenance():
                    with self._stats_lock:
                        self._stats["maintenance_runs"] += 1
            except Exception:  # pragma: no cover - keep the thread alive
                pass
            self._stop.wait(self._maintenance_interval)
