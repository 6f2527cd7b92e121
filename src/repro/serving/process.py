"""Process-isolated shard endpoints: one OS process per shard replica.

:class:`ProcessEndpoint` is the remote transport of the
:class:`~repro.serving.endpoint.EngineEndpoint` protocol: the shard's
:class:`~repro.serving.endpoint.InProcessEndpoint` — a
:class:`~repro.reliability.wal.DurableDynamicRing` opened through
``recover`` plus its private broker — lives in a *child OS process*, and
the parent talks to it over a ``multiprocessing.Pipe`` duplex connection
(length-prefixed pickle framing, provided by
:class:`multiprocessing.connection.Connection`).  A crashed shard is
genuine process death — ``kill -9`` — not a simulated ``kill()`` inside
one interpreter, and recovery is a real respawn through WAL replay.

Wire protocol (all messages are small picklable tuples):

- parent → child: ``(req_id, method, args, kwargs)``, where ``method``
  names the child endpoint's method to call, one of :data:`RPC_METHODS`
  (``submit`` / ``insert`` / ``delete`` / ``dump`` / ``health_check`` /
  ``cache_generation`` / ``stats`` / ``shutdown``).  A query is always
  ``("submit", (request,), {})``: one frozen
  :class:`~repro.core.system.Request`, built and checked in the parent,
  so an unknown field is a ``TypeError`` before anything is written
  and no in-process handle (token, budget) ever crosses;
- child → parent: ``(req_id, "ok" | "err", result_or_exception)``.
  Responses may arrive out of order (``submit`` is answered from the
  broker's future callback), so the parent keeps a pending-future table
  keyed by ``req_id`` and a single reader thread resolves them.

**Failure classification** — the coordinator's breaker must open on the
right signal, so the parent distinguishes three terminal conditions:

- *timeout*: the child is alive but the sub-deadline fired; surfaces as
  a typed :class:`~repro.core.interface.QueryTimeout` (either the
  child's own, shipped back over the pipe, or the parent-side RPC wait
  expiring).  Counted, retryable, shard still up.
- *dead process*: the pipe broke and ``Process.exitcode`` shows an
  abnormal exit (signal or nonzero) — :class:`ShardProcessDied`.
- *connection reset*: the pipe broke while the process is still running
  or exited cleanly (orderly drain) — :class:`ShardConnectionReset`.

Both death classes subtype :class:`~repro.serving.endpoint.EndpointDown`
(itself a ``QueryRejected``), so the coordinator's retry/breaker path
treats them as transient shard failures exactly like the in-process
transport — every pending future is failed with the classified error,
never left hanging.

**Graceful SIGTERM drain** — the child installs a SIGTERM handler that
merely sets a flag; the serve loop (a ``poll``/``recv`` loop, so the
flag is observed within one poll interval) then stops admitting and
calls ``endpoint.shutdown(checkpoint=True)``: the broker finishes every
in-flight query (their responses still go out), the store checkpoints,
and the process exits 0.  ``kill -9`` skips all of that, which is
exactly what the WAL recovery path is for.

The module-level :func:`spawn_process` and :func:`heartbeat` seams are
fault sites (``proc.spawn`` / ``proc.heartbeat``) so chaos drills can
fail respawns and health probes without touching a real process.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
from concurrent.futures import Future
from pathlib import Path
from typing import Optional

from repro.core.interface import QueryTimeout
from repro.core.system import QueryResult, Request, Submitting
from repro.serving.endpoint import EndpointDown, InProcessEndpoint

__all__ = [
    "ProcessEndpoint",
    "ShardProcessDied",
    "ShardConnectionReset",
    "spawn_process",
    "heartbeat",
]

#: Shard processes are forked, like the builder pool's workers.
_CTX = mp.get_context("fork")

#: The child endpoint's methods a request may name: the whole protocol.
RPC_METHODS = frozenset(
    "submit insert delete dump health_check cache_generation stats shutdown".split()
)


class ShardProcessDied(EndpointDown):
    """The shard process exited abnormally (killed or crashed)."""


class ShardConnectionReset(EndpointDown):
    """The pipe to the shard broke while its process looked healthy."""


# -- fault sites -------------------------------------------------------------


def spawn_process(ctx, target, args) -> mp.process.BaseProcess:
    """Start one shard server process (fault site ``proc.spawn``)."""
    proc = ctx.Process(target=target, args=args, daemon=True, name="repro-shard")
    proc.start()
    return proc


def heartbeat(endpoint: "ProcessEndpoint", timeout: float) -> bool:
    """One health probe RPC to a shard process (fault site ``proc.heartbeat``)."""
    return bool(endpoint._rpc("health_check", timeout=timeout))


# -- child side --------------------------------------------------------------


def _result_payload(result) -> dict:
    """Flatten a QueryResult into a plain picklable dict."""
    budget = getattr(result, "budget", None)
    return {
        "rows": list(result),
        "truncated": bool(getattr(result, "truncated", False)),
        "interrupted_by": getattr(result, "interrupted_by", None),
        "ops": int(getattr(budget, "ops", 0)) if budget is not None else 0,
    }


def _revive_result(payload: dict) -> QueryResult:
    from repro.reliability.budget import ResourceBudget

    out = QueryResult(payload["rows"])
    out.truncated = payload["truncated"]
    out.interrupted_by = payload["interrupted_by"]
    budget = ResourceBudget()
    budget.ops = payload["ops"]
    out.budget = budget
    return out


def _shard_server_main(parent_end, conn, directory, store_options, broker_options):
    """Entry point of one shard process: recover, serve, drain, exit 0."""
    # Close the parent's pipe end *in this process* — without this the
    # child holds both ends and the parent would never see EOF on death.
    if parent_end is not None:
        try:
            parent_end.close()
        except OSError:  # pragma: no cover - defensive
            pass

    draining = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: draining.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    from repro.serving.sharding import _durable_factory

    send_lock = threading.Lock()

    def send(msg) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (OSError, ValueError):
                pass  # parent gone; nothing left to tell it

    def send_error(req_id, exc) -> None:
        try:
            send((req_id, "err", exc))
        except Exception:
            # Unpicklable exception: degrade to its repr, keep the type
            # family recognisable as a server-side failure.
            send((req_id, "err", RuntimeError(f"{type(exc).__name__}: {exc}")))

    def answer(req_id, future) -> None:
        try:
            result = future.result()
        except BaseException as exc:
            send_error(req_id, exc)
        else:
            send((req_id, "ok", _result_payload(result)))

    try:
        endpoint = InProcessEndpoint(
            _durable_factory(Path(directory), None, store_options), broker_options
        )
    except Exception as exc:  # recovery failure must reach the parent typed
        send((None, "err", RuntimeError(f"shard recovery failed: {exc}")))
        return
    send((None, "ready", {"pid": os.getpid(), "n_triples": endpoint.n_triples}))

    try:
        while not draining.is_set():
            if not conn.poll(0.1):
                continue
            try:
                req_id, method, args, kwargs = conn.recv()
            except (EOFError, OSError):
                break  # parent died: drain and exit cleanly anyway
            try:
                if method not in RPC_METHODS:
                    raise ValueError(f"unknown request {method!r}")
                out = getattr(endpoint, method)(*args, **kwargs)
            except Exception as exc:
                send_error(req_id, exc)
                continue
            if isinstance(out, Future):
                out.add_done_callback(lambda f, rid=req_id: answer(rid, f))
            else:
                send((req_id, "ok", out))
            if method == "shutdown":
                break
    finally:
        # SIGTERM or a vanished parent: the loop stopped admitting; the
        # endpoint finishes in-flight queries (their callbacks above
        # still answer) and checkpoints.  A no-op after ``shutdown``.
        try:
            endpoint.shutdown(checkpoint=True)
        except Exception:  # pragma: no cover - crashing store on exit
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass


# -- parent side -------------------------------------------------------------


class ProcessEndpoint(Submitting):
    """A shard served by its own OS process (EngineEndpoint transport).

    Parameters
    ----------
    directory:
        The shard's :class:`DurableDynamicRing` directory.  Must already
        be initialised (``DurableDynamicRing.create``); the child always
        opens it through ``recover``, so a respawn after ``kill -9``
        replays the WAL exactly like a real crash restart.
    store_options:
        Keyword arguments for the child-side ``recover`` call
        (buffer_threshold, mmap, ...).
    broker_options:
        Keyword arguments for the child's private :class:`QueryBroker`.
    spawn_timeout:
        Seconds to wait for the child's ready handshake (covers WAL
        recovery time).
    rpc_timeout:
        Default parent-side wait for synchronous RPCs (writes, stats).
    heartbeat_timeout:
        Wait for one health probe; a probe slower than this counts as a
        failed heartbeat, not a hang.
    """

    def __init__(
        self,
        directory,
        *,
        store_options: Optional[dict] = None,
        broker_options: Optional[dict] = None,
        spawn_timeout: float = 30.0,
        rpc_timeout: float = 30.0,
        heartbeat_timeout: float = 2.0,
    ) -> None:
        self.directory = str(directory)
        self._store_options = dict(store_options or {})
        self._broker_options = dict(broker_options or {})
        self.spawn_timeout = spawn_timeout
        self.rpc_timeout = rpc_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self._lock = threading.RLock()
        self._send_lock = threading.Lock()
        # One join at a time: of two concurrent joins (``kill()`` and the
        # reader thread), one can reap the child while the other reads
        # its exit code as still unknown, which files a SIGKILL as a
        # connection reset instead of a death.
        self._reap_lock = threading.Lock()
        self._conn = None
        self._proc: Optional[mp.process.BaseProcess] = None
        self._pending: dict[int, tuple[Future, Optional[callable]]] = {}
        self._next_id = 0
        self._alive = False
        self._incarnation = 0
        self._last_exitcode: Optional[int] = None
        self._counters = {
            "deaths": 0,
            "resets": 0,
            "timeouts": 0,
            "spawn_failures": 0,
            "heartbeat_failures": 0,
        }
        self._start()

    # -- lifecycle -----------------------------------------------------------

    def _start(self) -> None:
        parent_conn, child_conn = _CTX.Pipe(duplex=True)
        ready: Future = Future()
        try:
            args = (parent_conn, child_conn, self.directory,
                    self._store_options, self._broker_options)
            proc = spawn_process(_CTX, _shard_server_main, args)
        except Exception as exc:
            self._counters["spawn_failures"] += 1
            parent_conn.close()
            child_conn.close()
            raise ShardProcessDied(f"could not spawn shard process: {exc}") from exc
        child_conn.close()
        with self._lock:
            self._conn = parent_conn
            self._proc = proc
            self._pending = {}
            self._alive = True
            self._last_exitcode = None
        reader = threading.Thread(
            target=self._reader,
            args=(parent_conn, proc, ready),
            name="shard-endpoint-reader",
            daemon=True,
        )
        reader.start()
        try:
            ready.result(timeout=self.spawn_timeout)
        except Exception as exc:
            self._counters["spawn_failures"] += 1
            self.kill()
            raise ShardProcessDied(
                f"shard process failed to become ready: {exc}"
            ) from exc

    def _reader(self, conn, proc, ready: Future) -> None:
        """Single reader: resolves pending futures, classifies EOF."""
        try:
            while True:
                req_id, status, payload = conn.recv()
                if req_id is None:  # ready handshake (or recovery failure)
                    if status == "ready":
                        if not ready.done():
                            ready.set_result(payload)
                    elif not ready.done():
                        ready.set_exception(payload)
                    continue
                with self._lock:
                    entry = self._pending.pop(req_id, None)
                if entry is None:
                    continue  # request already timed out parent-side
                future, transform = entry
                if status == "ok":
                    try:
                        future.set_result(
                            transform(payload) if transform else payload
                        )
                    except Exception as exc:  # transform bug, still resolve
                        future.set_exception(exc)
                else:
                    future.set_exception(payload)
        except (EOFError, OSError, ValueError):
            pass
        self._on_connection_lost(conn, proc, ready)

    def _on_connection_lost(self, conn, proc, ready: Future) -> None:
        with self._lock:
            if self._conn is not conn:
                return  # a restart already replaced this connection
            self._alive = False
            pending = list(self._pending.values())
            self._pending.clear()
        if proc is not None:
            self._reap(proc, 5.0)  # reap the zombie
        error = self._classify_death(proc)
        if not ready.done():
            ready.set_exception(error)
        for future, _transform in pending:
            if not future.done():
                future.set_exception(error)
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def _reap(self, proc, timeout: float) -> None:
        """``proc.join(timeout)``, one thread at a time."""
        with self._reap_lock:
            proc.join(timeout=timeout)

    def _classify_death(self, proc) -> EndpointDown:
        exitcode = proc.exitcode if proc is not None else None
        with self._lock:
            self._last_exitcode = exitcode
        if exitcode is None or exitcode == 0:
            self._counters["resets"] += 1
            detail = (
                "process still running" if exitcode is None else "clean exit"
            )
            return ShardConnectionReset(f"shard connection reset ({detail})")
        self._counters["deaths"] += 1
        if exitcode < 0:
            detail = f"killed by signal {-exitcode}"
        else:
            detail = f"exit code {exitcode}"
        return ShardProcessDied(f"shard process died ({detail})")

    def kill(self) -> None:
        """``kill -9`` the shard process (chaos lever; WAL left as-is)."""
        with self._lock:
            proc = self._proc
            self._alive = False
        if proc is not None and proc.pid is not None and proc.is_alive():
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):  # pragma: no cover
                pass
            self._reap(proc, 5.0)
        # The reader thread observes EOF and fails every pending future.

    def terminate(self, wait: float = 10.0) -> Optional[int]:
        """SIGTERM the shard: drain in-flight, checkpoint, exit 0.

        Returns the child's exit code (``0`` on a clean drain).
        """
        with self._lock:
            proc = self._proc
        if proc is None or proc.pid is None or not proc.is_alive():
            return self._last_exitcode
        try:
            os.kill(proc.pid, signal.SIGTERM)
        except (OSError, ProcessLookupError):  # pragma: no cover
            pass
        self._reap(proc, wait)
        if proc.is_alive():  # drain wedged: escalate
            self.kill()
        return proc.exitcode

    def restart(self) -> None:
        """Respawn the process through WAL recovery; bumps incarnation."""
        with self._lock:
            if self._alive and self._proc is not None and self._proc.is_alive():
                return  # already running
            proc = self._proc
        if proc is not None:
            self._reap(proc, 5.0)  # reap before respawning
        self._start()
        with self._lock:
            self._incarnation += 1

    def shutdown(self, checkpoint: bool = True) -> None:
        """Orderly stop: graceful RPC, then SIGTERM, then SIGKILL."""
        with self._lock:
            proc = self._proc
            running = self._alive and proc is not None and proc.is_alive()
        if running:
            try:
                self._rpc("shutdown", checkpoint=checkpoint)
            except Exception:
                pass
            self._reap(proc, 10.0)
            if proc.is_alive():
                self.terminate()

    # -- RPC plumbing ---------------------------------------------------------

    def _request(self, kind, payload, transform=None) -> Future:
        """Send request ``kind``, whose ``payload`` is the child
        endpoint's ``(method, args, kwargs)``; a future of the answer."""
        with self._lock:
            if not self._alive or self._conn is None:
                raise EndpointDown("shard process is down")
            conn = self._conn
            req_id = self._next_id
            self._next_id += 1
            future: Future = Future()
            self._pending[req_id] = (future, transform)
        try:
            with self._send_lock:
                conn.send((req_id, *payload))
        except (OSError, ValueError) as exc:
            with self._lock:
                self._pending.pop(req_id, None)
            raise ShardConnectionReset(
                f"shard pipe write failed ({kind}): {exc}"
            ) from exc
        return future

    def _rpc(self, method, *args, timeout: Optional[float] = None, **kwargs):
        """Call the child endpoint's ``method`` and wait for its answer."""
        if timeout is None:
            timeout = self.rpc_timeout
        future = self._request(method, (method, args, kwargs))
        try:
            return future.result(timeout=timeout)
        except TimeoutError:
            with self._lock:
                self._pending = {
                    rid: entry
                    for rid, entry in self._pending.items()
                    if entry[0] is not future
                }
            self._counters["timeouts"] += 1
            raise QueryTimeout(f"shard rpc {method!r} timed out after {timeout}s")

    # -- the EngineEndpoint surface ------------------------------------------

    def submit(self, query, **fields) -> Future:
        """Send a :class:`Request` (or ``query`` plus its fields) to the
        shard process; a future of its revived result."""
        request = Request.of(query, **fields)
        # Labelled ``evaluate``: per-layer tracing times query RPCs by it.
        payload = ("submit", (request,), {})
        return self._request("evaluate", payload, _revive_result)

    def health_check(self) -> bool:
        if not self.alive:
            return False
        try:
            return heartbeat(self, self.heartbeat_timeout)
        except Exception:
            self._counters["heartbeat_failures"] += 1
            return False

    @property
    def alive(self) -> bool:
        with self._lock:
            return (
                self._alive and self._proc is not None and self._proc.is_alive()
            )

    @property
    def incarnation(self) -> int:
        with self._lock:
            return self._incarnation

    @property
    def pid(self) -> Optional[int]:
        with self._lock:
            return self._proc.pid if self._proc is not None else None

    @property
    def exitcode(self) -> Optional[int]:
        with self._lock:
            if self._proc is not None and self._proc.exitcode is not None:
                return self._proc.exitcode
            return self._last_exitcode

    @property
    def engine(self):
        """No in-process engine: the store lives in the child."""
        return None

    @property
    def n_triples(self) -> int:
        try:
            return int(self._rpc("stats")["n_triples"])
        except Exception:
            return 0

    # -- writes ---------------------------------------------------------------

    def insert(self, s: int, p: int, o: int) -> bool:
        return bool(self._rpc("insert", s, p, o))

    def delete(self, s: int, p: int, o: int) -> bool:
        return bool(self._rpc("delete", s, p, o))

    def dump(self) -> list[tuple[int, int, int]]:
        """Every triple of the shard (replica catch-up, tests)."""
        return self._rpc("dump", timeout=max(self.rpc_timeout, 60.0))

    # -- introspection --------------------------------------------------------

    def cache_generation(self):
        try:
            return self._rpc("cache_generation")
        except Exception:
            return None

    def stats(self) -> dict:
        """The child endpoint's stats under the parent's lifecycle keys
        (the child never restarts; the parent's ``alive``,
        ``incarnation`` and ``restarts`` are the shard's)."""
        out = {}
        if self.alive:
            try:
                out = self._rpc("stats")
            except Exception:
                pass
        with self._lock:
            out.update(
                alive=self._alive,
                incarnation=self._incarnation,
                restarts=self._incarnation,
                pid=self._proc.pid if self._proc is not None else None,
                exitcode=self._last_exitcode,
                transport=dict(self._counters),
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "down"
        return (
            f"ProcessEndpoint({state}, pid={self.pid}, "
            f"incarnation={self.incarnation})"
        )
