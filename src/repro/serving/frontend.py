"""The line frontend of ``repro serve`` and ``repro shard-serve``.

:meth:`LineFrontend.dispatch` turns one request line into response
lines: it skips blank and ``#`` lines, splits the (case-insensitive)
verb, handles QUIT, parses BGPs, formats rows and write acks, and maps
every user mistake or query failure to one ``error: …`` line.  What
differs per backend is a small service object: :class:`StoreService`
(a broker over the durable store: ``@epoch N`` trailers, labelled
writes, CHECKPOINT) or :class:`ShardService` (the scatter-gather
coordinator: ``[complete|partial; shards …]`` trailers, id-only writes,
the KILL/RESTART chaos levers).

Two transports drive ``dispatch``.  :meth:`LineFrontend.serve_lines` is
the blocking stdin loop of both CLI commands — one line at a time, no
thread hop, no event loop — whose SIGTERM drain may interrupt only the
idle read between requests: a request already read or running (a
query, a write and the compaction it triggers, CHECKPOINT) completes
and is answered before the final checkpoint.
:meth:`LineFrontend.serve_socket` serves TCP sessions, dispatching each
line on a worker thread.  Every query passes the ``max_in_flight`` gate,
which sheds excess queries at once with a typed ``error: rejected``
(the :class:`QueryRejected` discipline); only socket sessions can put
more than one query in flight, so only they can be shed.
"""

from __future__ import annotations

import contextlib
import itertools
import signal
import sys
import threading
from typing import Optional

from repro.core.interface import QueryError, QueryTimeout
from repro.graph import parser
from repro.graph.model import BasicGraphPattern, TriplePattern
from repro.reliability.broker import QueryRejected

__all__ = ["LineFrontend", "ShardFrontend", "ShardService", "StoreService",
           "coerce_query"]

#: Write acks by verb, indexed by whether the write changed the store.
_ACKS = {"INSERT": ("ok duplicate", "ok inserted"),
         "DELETE": ("ok absent", "ok deleted")}


def _is_id(term: str) -> bool:
    return term.lstrip("-").isdigit()


def coerce_query(text: str, graph):
    """Parse a BGP; on id-only graphs, digit constants become ids."""
    bgp = parser.parse_bgp(text)
    if graph.dictionary is not None:
        return bgp
    patterns = []
    for pattern in bgp.patterns:
        terms = []
        for term in pattern.terms:
            if isinstance(term, str) and _is_id(term):
                term = int(term)
            elif isinstance(term, str):
                raise ValueError(
                    f"constant {term!r} needs a dictionary-backed graph; "
                    f"this store is id-only — use integer ids"
                )
            terms.append(term)
        patterns.append(TriplePattern(*terms))
    return BasicGraphPattern(patterns)


class _IdleInterrupt(Exception):
    """Raised by the SIGTERM handler, only into the idle stdin read."""


def _swap_sigterm(handler):
    """Install ``handler`` for SIGTERM; returns the one it replaced
    (``None`` off the main thread, where none can be installed)."""
    try:
        return signal.signal(signal.SIGTERM, handler)
    except ValueError:  # pragma: no cover - non-main-thread callers
        return None


class LineFrontend:
    """The line protocol over one service; ``max_in_flight`` caps the
    concurrent queries of :meth:`serve_socket` sessions."""

    def __init__(self, service, max_in_flight: int = 8) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.service = service
        self.max_in_flight = max_in_flight
        self._in_flight = 0
        self._shed = 0
        self._gate = threading.Lock()
        self._idle = self._drain = False

    # -- one protocol line ----------------------------------------------------

    def dispatch(self, line: str) -> tuple[bool, list[str]]:
        """Process one request; returns ``(keep_going, response_lines)``."""
        line = line.strip()
        if not line or line.startswith("#"):
            return True, []
        tokens = line.split(None, 1)
        verb = tokens[0].upper()
        rest = tokens[1] if len(tokens) > 1 else ""
        service = self.service
        try:
            if verb == "QUIT":
                return False, []
            if verb == "QUERY":
                return True, self._query(rest)
            if verb in _ACKS:
                terms = rest.split()
                if len(terms) != 3:
                    raise ValueError(f"{verb} needs exactly 3 terms")
                return True, [_ACKS[verb][bool(service.write(verb, terms))]]
            if verb == "STATS":
                return True, service.stats_lines(self._shed)
            lines = service.command(verb, rest)
            if lines is None:
                return True, [f"error: unknown command {verb!r} ({service.verbs})"]
            return True, lines
        except QueryRejected as exc:
            return True, [f"error: rejected: {exc}"]
        except QueryTimeout:
            return True, ["error: timeout"]
        except (QueryError, ValueError, KeyError) as exc:
            return True, [f"error: {str(exc) or type(exc).__name__}"]

    def _query(self, text: str) -> list[str]:
        bgp = coerce_query(text, self.service.graph)
        with self._admit():
            result, trailer = self.service.evaluate(bgp)
        lines = [
            "  ".join(f"{k}={v}"
                      for k, v in sorted(mu.items(), key=lambda kv: str(kv[0])))
            for mu in result
        ]
        lines.append(f"-- {len(result)} solution(s) {trailer}")
        return lines

    @contextlib.contextmanager
    def _admit(self):
        """Admit one query under ``max_in_flight`` or shed it, typed."""
        with self._gate:
            if self._in_flight >= self.max_in_flight:
                self._shed += 1
                raise QueryRejected(
                    f"{self._in_flight} queries in flight "
                    f"(max {self.max_in_flight}); try later"
                )
            self._in_flight += 1
        try:
            yield
        finally:
            with self._gate:
                self._in_flight -= 1

    # -- transports -----------------------------------------------------------

    def serve_lines(self, stdin=None, stdout=None) -> None:
        """Serve requests from ``stdin`` (default ``sys.stdin``) until
        EOF, QUIT or SIGTERM; then stop the service (final checkpoint)
        and print ``bye``."""
        stdin = sys.stdin if stdin is None else stdin
        stdout = sys.stdout if stdout is None else stdout
        self._idle = self._drain = False
        reader = iter(stdin.readline, "")
        previous = _swap_sigterm(self._on_sigterm)
        try:
            with self.service.running():
                print("ready", file=stdout, flush=True)
                while line := self._next_line(reader):
                    keep_going, lines = self.dispatch(line)
                    if lines:
                        stdout.write("\n".join(lines) + "\n")
                    stdout.flush()
                    if not keep_going:
                        break
                if self._drain:
                    print("draining: finishing in-flight queries",
                          file=stdout, flush=True)
        finally:
            if previous is not None:
                _swap_sigterm(previous)
        print("bye", file=stdout, flush=True)

    def _on_sigterm(self, signum, frame) -> None:
        # Interrupt only the idle read, once; a running request finishes
        # and the loop stops before reading the next line.
        self._drain = True
        if self._idle:
            self._idle = False
            raise _IdleInterrupt

    def _next_line(self, reader) -> str:
        """The next line of ``reader`` (``iter(stdin.readline, "")``);
        ``""`` at EOF or once SIGTERM came.

        A Python signal handler runs between bytecodes, so one handled
        the instant ``readline`` returns would discard a plain
        ``return stdin.readline()``.  Here ``readline`` is called from
        inside the C ``list.extend``: by the time the handler can run,
        the line is in ``read`` and is answered before the drain."""
        read = []
        try:
            self._idle = True
            if not self._drain:
                read.extend(itertools.islice(reader, 1))
        except _IdleInterrupt:
            pass
        finally:
            self._idle = False
        return read[0] if read else ""

    async def serve_socket(self, host: str = "127.0.0.1", port: int = 0):
        """TCP transport: one protocol session per connection.  Returns
        the started :class:`asyncio.Server` (the caller owns it)."""
        import asyncio

        async def _session(reader, writer):
            loop = asyncio.get_running_loop()
            writer.write(b"ready\n")
            await writer.drain()
            try:
                while raw := await reader.readline():
                    keep_going, lines = await loop.run_in_executor(
                        None, self.dispatch, raw.decode("utf-8", "replace"))
                    writer.write("".join(f"{out}\n" for out in lines).encode())
                    await writer.drain()
                    if not keep_going:
                        break
                writer.write(b"bye\n")
                await writer.drain()
            finally:
                writer.close()

        return await asyncio.start_server(_session, host, port)


class StoreService:
    """``repro serve``: a :class:`QueryBroker` over a
    :class:`~repro.reliability.wal.DurableDynamicRing` (or a cache over
    it)."""

    verbs = "INSERT/DELETE/QUERY/CHECKPOINT/STATS/QUIT"

    def __init__(self, store, broker, final_checkpoint: bool = True) -> None:
        self.store = store
        self.broker = broker
        self.final_checkpoint = final_checkpoint
        self.decode = store.graph.dictionary is not None

    @property
    def graph(self):
        return self.store.graph

    @contextlib.contextmanager
    def running(self):
        try:
            with self.broker:
                yield
        finally:
            self.store.close(checkpoint=self.final_checkpoint)

    def evaluate(self, bgp):
        result = self.broker.evaluate(bgp, decode=self.decode)
        trailer = f"@epoch {self.store.epoch}"
        if result.truncated:
            trailer += f" (truncated: {result.interrupted_by})"
        if getattr(result, "cached", False):
            trailer += " (cached)"
        return result, trailer

    def write(self, verb: str, terms: list[str]) -> bool:
        store = self.store
        if store.graph.dictionary is not None and not all(map(_is_id, terms)):
            return getattr(store, f"{verb.lower()}_labelled")(*terms)
        return getattr(store, verb.lower())(*(int(t) for t in terms))

    def stats_lines(self, shed: int) -> list[str]:
        stats = self.broker.stats()
        stats.update(
            epoch=self.store.epoch,
            triples=self.store.n_triples,
            components=self.store.n_components,
            wal_bytes=self.store.wal_bytes,
        )
        return [f"{key:<22}: {stats[key]}" for key in sorted(stats)]

    def command(self, verb: str, rest: str) -> Optional[list[str]]:
        if verb == "CHECKPOINT":
            return [f"ok checkpoint {self.store.checkpoint()}"]
        return None


class ShardService:
    """``repro shard-serve``: a
    :class:`~repro.serving.coordinator.ShardCoordinator` (or a cache over
    one) whose ``shards`` route writes, and an optional
    :class:`~repro.serving.supervisor.ShardSupervisor` shown in STATS.
    Queries run with ``partial=True``; the trailer names the shards that
    answered, so a degraded answer is always labelled."""

    verbs = "INSERT/DELETE/QUERY/STATS/KILL/RESTART/QUIT"

    def __init__(self, coordinator, supervisor=None,
                 default_timeout: Optional[float] = None,
                 final_checkpoint: bool = True) -> None:
        self.coordinator = coordinator
        self.supervisor = supervisor
        self.default_timeout = default_timeout
        self.final_checkpoint = final_checkpoint
        self.decode = coordinator.graph.dictionary is not None

    @property
    def graph(self):
        return self.coordinator.graph

    @contextlib.contextmanager
    def running(self):
        try:
            with self.supervisor or contextlib.nullcontext():
                yield
        finally:
            self.coordinator.shards.shutdown(checkpoint=self.final_checkpoint)

    def evaluate(self, bgp):
        result = self.coordinator.evaluate(
            bgp, timeout=self.default_timeout, decode=self.decode, partial=True
        )
        report = getattr(result, "shards", None)
        if report is None:
            # Only the cache layer answers without a shard report, and it
            # stores complete answers only.
            return result, "[complete; cached]"
        state = "complete" if report.complete else "partial"
        return result, f"[{state}; shards {','.join(map(str, report.answered))}]"

    def write(self, verb: str, terms: list[str]) -> bool:
        if self.graph.dictionary is not None and not all(map(_is_id, terms)):
            raise ValueError(
                "labelled writes are not supported by shard-serve; use ids"
            )
        shards = self.coordinator.shards
        method = shards.insert if verb == "INSERT" else shards.delete
        return method(*(int(t) for t in terms))

    def stats_lines(self, shed: int) -> list[str]:
        stats = self.coordinator.stats()
        shard_stats = stats.pop("shards")
        breakers = stats.pop("breakers")
        lines = [f"{key:<18}: {stats[key]}" for key in sorted(stats)]
        lines.append(f"{'shed':<18}: {shed}")
        lines.append(
            f"{'shards':<18}: {shard_stats['live']}/{shard_stats['n_shards']} "
            f"live, ready={shard_stats['ready']}, "
            f"triples={shard_stats['n_triples']}"
        )
        lines.append(f"{'breakers':<18}: " + " ".join(b["state"] for b in breakers))
        if self.supervisor is not None:
            sup = self.supervisor.stats()
            lines.append(
                f"{'supervisor':<18}: checks={sup['checks']} "
                f"restarts={sup['restarts']} failed={sup['failed_restarts']}"
            )
        return lines

    def command(self, verb: str, rest: str) -> Optional[list[str]]:
        if verb not in ("KILL", "RESTART"):
            return None
        sid = int(rest)
        shards = self.coordinator.shards
        if not 0 <= sid < shards.n_shards:
            return [f"error: no shard {sid}"]
        if verb == "KILL":
            shards.kill_shard(sid)
            return [f"ok killed shard {sid}"]
        shards.restart_shard(sid)
        return [f"ok restarted shard {sid}"]


class ShardFrontend(LineFrontend):
    """``LineFrontend(ShardService(...))`` under its former signature,
    with an awaitable :meth:`handle_line` for in-process callers
    (``decode`` follows the graph; the argument is ignored)."""

    def __init__(self, coordinator, supervisor=None, max_in_flight: int = 8,
                 default_timeout: Optional[float] = None, decode: bool = False):
        super().__init__(ShardService(coordinator, supervisor, default_timeout),
                         max_in_flight)

    async def handle_line(self, line: str) -> tuple[bool, list[str]]:
        return self.dispatch(line)
