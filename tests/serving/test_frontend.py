"""The line frontend (one dispatch for ``repro serve`` and ``repro
shard-serve``), its stdin and socket transports, and both CLI commands."""

import asyncio
import io
import re
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph.dataset import Graph
from repro.reliability.broker import QueryBroker, QueryRejected
from repro.reliability.wal import DurableDynamicRing
from repro.serving import (
    CircuitBreaker,
    LineFrontend,
    RetryPolicy,
    ShardCoordinator,
    ShardFrontend,
    ShardService,
    ShardSupervisor,
    StoreService,
)

pytestmark = pytest.mark.serving

GOLDEN = Path(__file__).parent / "golden"


def make_frontend(sharded, supervisor=None, **kw):
    coord = ShardCoordinator(
        sharded,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001, seed=0),
        breaker_factory=lambda: CircuitBreaker(
            failure_threshold=2, reset_timeout=0.05
        ),
    )
    return LineFrontend(ShardService(coord, supervisor), **kw)


def run(frontend, line):
    return frontend.dispatch(line)


def make_store(directory, labels=False):
    if labels:
        graph = Graph.from_string_triples([("a", "p", "b"), ("b", "p", "c")])
    else:
        graph = Graph(np.empty((0, 3), dtype=np.int64), n_nodes=16,
                      n_predicates=2)
    return DurableDynamicRing.create(directory, graph)


class TestProtocol:
    def test_blank_and_comment_lines_ignored(self, sharded):
        frontend = make_frontend(sharded)
        assert run(frontend, "") == (True, [])
        assert run(frontend, "  \n") == (True, [])
        assert run(frontend, "# a comment") == (True, [])

    def test_quit_stops(self, sharded):
        assert run(make_frontend(sharded), "QUIT") == (False, [])
        assert run(make_frontend(sharded), "quit now") == (False, [])

    def test_insert_query_delete_round_trip(self, sharded):
        frontend = make_frontend(sharded)
        _, lines = run(frontend, "INSERT 29 1 29")
        assert lines == ["ok inserted"]
        _, lines = run(frontend, "INSERT 29 1 29")
        assert lines == ["ok duplicate"]
        _, lines = run(frontend, "QUERY 29 1 ?o")
        assert any("?o=29" in line for line in lines)
        assert lines[-1].endswith("[complete; shards 0,1,2,3]")
        _, lines = run(frontend, "DELETE 29 1 29")
        assert lines == ["ok deleted"]
        _, lines = run(frontend, "DELETE 29 1 29")
        assert lines == ["ok absent"]

    def test_partial_answers_are_labelled(self, sharded):
        frontend = make_frontend(sharded)
        sharded.kill_shard(2)
        _, lines = run(frontend, "QUERY ?x ?p ?y")
        assert lines[-1].endswith("[partial; shards 0,1,3]")

    def test_kill_and_restart_verbs(self, sharded):
        frontend = make_frontend(sharded)
        _, lines = run(frontend, "KILL 1")
        assert lines == ["ok killed shard 1"]
        assert not sharded.endpoints[1].alive
        _, lines = run(frontend, "RESTART 1")
        assert lines == ["ok restarted shard 1"]
        assert sharded.endpoints[1].alive
        _, lines = run(frontend, "KILL 9")
        assert lines == ["error: no shard 9"]

    def test_errors_are_lines_not_exceptions(self, sharded):
        frontend = make_frontend(sharded)
        _, lines = run(frontend, "FROB 1 2 3")
        assert lines == [
            "error: unknown command 'FROB' "
            "(INSERT/DELETE/QUERY/STATS/KILL/RESTART/QUIT)"
        ]
        _, lines = run(frontend, "INSERT 1 2")
        assert lines == ["error: INSERT needs exactly 3 terms"]
        _, lines = run(frontend, "QUERY")
        assert lines[0].startswith("error:")
        _, lines = run(frontend, "INSERT 1 0 99999")
        assert lines == ["error: node id outside the graph's universe"]

    def test_stats_lines(self, sharded):
        frontend = make_frontend(sharded, supervisor=ShardSupervisor(sharded))
        run(frontend, "QUERY ?x 0 ?y")
        _, lines = run(frontend, "STATS")
        text = "\n".join(lines)
        assert "queries" in text
        assert "shards" in text and "4/4 live" in text
        assert "breakers" in text
        assert "supervisor" in text

    def test_handle_line_is_dispatch(self, sharded):
        coord = ShardCoordinator(sharded)
        frontend = ShardFrontend(coord, max_in_flight=2, default_timeout=10)
        assert asyncio.run(frontend.handle_line("INSERT 29 1 29")) == (
            True, ["ok inserted"]
        )
        assert frontend.dispatch("QUIT") == (False, [])


class TestStoreService:
    def test_labelled_writes(self, tmp_path):
        store = make_store(tmp_path / "d", labels=True)
        frontend = LineFrontend(StoreService(store, QueryBroker(store)))
        with frontend.service.running():
            assert run(frontend, "INSERT c p a") == (True, ["ok inserted"])
            _, lines = run(frontend, "QUERY ?x p a")
            assert lines == ["x=c", "-- 1 solution(s) @epoch 1"]
            assert run(frontend, "DELETE c p a") == (True, ["ok deleted"])
            assert run(frontend, "DELETE zz p a") == (True, ["ok absent"])

    def test_shards_refuse_labelled_writes(self, tmp_path):
        from repro.serving import ShardedRingIndex

        graph = Graph.from_string_triples([("a", "p", "b")])
        with ShardedRingIndex.from_graph(graph, 2) as shards:
            frontend = LineFrontend(ShardService(ShardCoordinator(shards)))
            assert run(frontend, "INSERT b p a") == (True, [
                "error: labelled writes are not supported by shard-serve; "
                "use ids"
            ])


class TestAdmission:
    def test_shed_when_at_capacity(self, sharded):
        frontend = make_frontend(sharded, max_in_flight=1)
        frontend._in_flight = 1  # a query is (deterministically) in flight
        _, lines = frontend.dispatch("QUERY ?x ?p ?y")
        assert lines[0].startswith("error: rejected:")
        assert frontend._shed == 1
        _, lines = frontend.dispatch("STATS")
        assert "shed              : 1" in lines
        frontend._in_flight = 0
        _, lines = frontend.dispatch("QUERY ?x ?p ?y")
        assert lines[-1].startswith("--"), "capacity freed, queries flow again"
        assert frontend._in_flight == 0, "an answered query leaves the gate"

    def test_invalid_max_in_flight(self, sharded):
        with pytest.raises(ValueError):
            make_frontend(sharded, max_in_flight=0)

    def test_shed_is_a_typed_rejection(self, sharded):
        frontend = make_frontend(sharded, max_in_flight=1)
        frontend._in_flight = 1
        with pytest.raises(QueryRejected):
            with frontend._admit():
                pass


class TestServeStdin:
    def test_line_session_over_string_io(self, sharded):
        script = "INSERT 29 0 29\n\nQUERY 29 0 ?o\nQUIT\nINSERT 1 0 1\n"
        out = io.StringIO()
        frontend = make_frontend(sharded)
        frontend.serve_lines(stdin=io.StringIO(script), stdout=out)
        text = out.getvalue()
        assert text.startswith("ready\n")
        assert "ok inserted" in text
        assert "?o=29" in text
        assert text.rstrip().endswith("bye")
        assert text.count("ok inserted") == 1, "nothing runs after QUIT"

    def test_sigterm_interrupts_only_the_idle_read(self, sharded):
        class Stdin:
            lines = ["INSERT 29 0 29\n"]

            def readline(self):
                if self.lines:
                    return self.lines.pop()
                signal.raise_signal(signal.SIGTERM)  # the idle read's signal
                raise AssertionError("SIGTERM did not interrupt the read")

        before = signal.getsignal(signal.SIGTERM)
        out = io.StringIO()
        make_frontend(sharded).serve_lines(stdin=Stdin(), stdout=out)
        assert out.getvalue().splitlines() == [
            "ready", "ok inserted", "draining: finishing in-flight queries",
            "bye",
        ]
        assert signal.getsignal(signal.SIGTERM) is before

    def test_sigterm_right_after_a_read_still_answers_it(self, sharded):
        """SIGTERM handled the instant ``readline`` returns a line (the
        first C call to return after the read) must not discard that
        line: it is dispatched and answered, then the server drains."""
        stdin = io.StringIO("INSERT 29 0 29\nINSERT 30 0 30\n")
        fired = []

        def on_c_return(frame, event, arg):
            if event == "c_return" and stdin.tell() > 0 and not fired:
                fired.append(arg)
                signal.raise_signal(signal.SIGTERM)

        out = io.StringIO()
        frontend = make_frontend(sharded)
        sys.setprofile(on_c_return)
        try:
            frontend.serve_lines(stdin=stdin, stdout=out)
        finally:
            sys.setprofile(None)
        assert fired
        assert out.getvalue().splitlines() == [
            "ready", "ok inserted", "draining: finishing in-flight queries",
            "bye",
        ]
        assert stdin.read() == "INSERT 30 0 30\n", "nothing read after SIGTERM"


class TestSocket:
    @staticmethod
    def session(frontend, request: bytes) -> list[str]:
        async def scenario():
            server = await frontend.serve_socket(port=0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            assert (await reader.readline()) == b"ready\n"
            writer.write(request)
            await writer.drain()
            lines = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                lines.append(line.decode().rstrip())
            writer.close()
            server.close()
            await server.wait_closed()
            return lines

        return asyncio.run(scenario())

    def test_tcp_session(self, sharded):
        lines = self.session(make_frontend(sharded),
                             b"INSERT 29 1 29\nQUERY 29 1 ?o\nQUIT\n")
        assert "ok inserted" in lines
        assert any("?o=29" in line for line in lines)
        assert lines[-1] == "bye"

    def test_tcp_session_over_the_store(self, tmp_path):
        store = make_store(tmp_path / "d")
        frontend = LineFrontend(StoreService(store, QueryBroker(store)))
        with frontend.service.running():
            lines = self.session(frontend,
                                 b"INSERT 1 0 2\nQUERY ?x 0 ?y\nQUIT\n")
        assert lines == ["ok inserted", "?x=1  ?y=2",
                         "-- 1 solution(s) @epoch 1", "bye"]


class TestCLI:
    def test_shard_serve_end_to_end(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        script = (
            "INSERT 1 0 2\nINSERT 2 0 3\nINSERT 9 1 2\n"
            "QUERY ?x 0 ?y\nSTATS\nKILL 1\nRESTART 1\nQUIT\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        main([
            "shard-serve", str(tmp_path / "d"), "--create",
            "--shards", "3", "--n-nodes", "16", "--n-predicates", "2",
            "--timeout", "10",
        ])
        out = capsys.readouterr().out
        assert "3 durable shard(s)" in out
        assert out.count("ok inserted") == 3
        assert "?x=1  ?y=2" in out
        assert "-- 2 solution(s) [complete; shards 0,1,2]" in out
        assert "breakers" in out
        assert "ok killed shard 1" in out
        assert "ok restarted shard 1" in out
        assert "bye" in out

        # The durable store survives the session: recover and re-serve.
        monkeypatch.setattr("sys.stdin", io.StringIO("QUERY ?x 0 ?y\nQUIT\n"))
        main(["shard-serve", str(tmp_path / "d"), "--timeout", "10"])
        out = capsys.readouterr().out
        assert "recovered 3 shard(s)" in out
        assert "-- 2 solution(s) [complete; shards 0,1,2]" in out

    def test_shard_serve_with_cache(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        script = "INSERT 1 0 2\nQUERY ?x 0 ?y\nQUERY ?x 0 ?y\nQUIT\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        main([
            "shard-serve", str(tmp_path / "d"), "--create",
            "--shards", "2", "--n-nodes", "8", "--n-predicates", "1",
            "--cache", "--timeout", "10",
        ])
        out = capsys.readouterr().out
        assert "cache enabled" in out
        assert "-- 1 solution(s) [complete; shards 0,1]" in out
        assert "-- 1 solution(s) [complete; cached]" in out

    @pytest.mark.parametrize("name, argv", [
        ("serve", ["serve", "store", "--create", "--n-nodes", "16",
                   "--n-predicates", "2", "--threshold", "8", "--cache",
                   "--timeout", "10"]),
        ("shard_serve", ["shard-serve", "store", "--create", "--shards", "2",
                         "--n-nodes", "16", "--n-predicates", "2", "--cache",
                         "--timeout", "10", "--supervise-interval", "60"]),
    ])
    def test_golden_transcript(self, name, argv, tmp_path, capsys,
                               monkeypatch):
        """``golden/<name>.in`` (every verb of the server and every error
        line) answers ``golden/<name>.out`` byte for byte, STATS values
        masked to their keys."""
        from repro.__main__ import main

        script = (GOLDEN / f"{name}.in").read_text(encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        main(argv)
        out = re.sub(r"(?m)^([a-z_]+ +): .*$", r"\1: *",
                     capsys.readouterr().out)
        assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")

    def test_sigterm_mid_compaction_keeps_acked_writes(self, tmp_path, capsys,
                                                       monkeypatch):
        """SIGTERM during the geometric-merge build the 16th INSERT
        triggers (threshold 8: rings of 8 and 8 merge into 16): that
        insert completes and is acked, and the drain's final checkpoint
        holds every acked triple."""
        from repro.__main__ import main
        from repro.core import dynamic

        real_ring, built = dynamic.Ring, []

        def ring(*args, **kwargs):
            built.append(len(built))
            if len(built) == 3:
                signal.raise_signal(signal.SIGTERM)
            return real_ring(*args, **kwargs)

        monkeypatch.setattr(dynamic, "Ring", ring)
        script = "".join(f"INSERT {i} 0 {i + 1}\n" for i in range(24))
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        directory = str(tmp_path / "d")
        main(["serve", directory, "--create", "--threshold", "8",
              "--n-nodes", "32", "--n-predicates", "2"])
        out = capsys.readouterr().out
        monkeypatch.setattr(dynamic, "Ring", real_ring)
        acked = out.count("ok inserted")
        store, _ = DurableDynamicRing.recover(directory)
        try:
            recovered = store.n_triples
            assert all(store.contains(i, 0, i + 1) for i in range(acked))
        finally:
            store.close()
        assert (acked, recovered) == (16, 16)
        assert out.splitlines()[-2:] == [
            "draining: finishing in-flight queries", "bye",
        ]
