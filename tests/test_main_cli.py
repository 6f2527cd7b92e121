"""End-to-end tests for the ``python -m repro`` command line."""

import pytest

from repro.__main__ import main

NT_DOC = """\
<Bohr> <adv> <Thomson> .
<Thomson> <adv> <Strutt> .
<Nobel> <win> <Bohr> .
<Nobel> <nom> <Thomson> .
"""


@pytest.fixture()
def index_path(tmp_path, capsys):
    data = tmp_path / "g.nt"
    data.write_text(NT_DOC)
    out = tmp_path / "index.npz"
    main(["build", str(data), "-o", str(out)])
    capsys.readouterr()
    return str(out)


class TestBuild:
    def test_build_reports_stats(self, tmp_path, capsys):
        data = tmp_path / "g.nt"
        data.write_text(NT_DOC)
        main(["build", str(data), "-o", str(tmp_path / "i.npz")])
        out = capsys.readouterr().out
        assert "indexed 4 triples" in out
        assert "bytes/triple" in out

    def test_build_compressed(self, tmp_path, capsys):
        data = tmp_path / "g.nt"
        data.write_text(NT_DOC)
        path = tmp_path / "c.npz"
        main(["build", str(data), "-o", str(path), "--compressed"])
        capsys.readouterr()
        main(["stats", str(path)])
        assert "compressed ring    : True" in capsys.readouterr().out

    def test_build_plain_text_format(self, tmp_path, capsys):
        data = tmp_path / "g.txt"
        data.write_text("a p b\nb p c\n")
        main(["build", str(data), "-o", str(tmp_path / "i.npz")])
        assert "indexed 2 triples" in capsys.readouterr().out


class TestQuery:
    def test_query_decoded(self, index_path, capsys):
        main(["query", index_path, "?x adv ?y"])
        out = capsys.readouterr().out
        assert "x=Bohr  y=Thomson" in out
        assert "2 solution(s)" in out

    def test_query_json(self, index_path, capsys):
        import json

        main(["query", index_path, "Nobel win ?x", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data == [{"x": "Bohr"}]

    def test_query_limit(self, index_path, capsys):
        main(["query", index_path, "?x ?p ?y", "--limit", "2"])
        assert "2 solution(s)" in capsys.readouterr().out

    def test_query_policy_same_answers(self, index_path, capsys):
        query = "?x adv ?y . Nobel win ?x"
        main(["query", index_path, query])
        static = capsys.readouterr().out
        for policy in ("rowcount", "distinct", "adaptive"):
            main(["query", index_path, query, "--policy", policy])
            assert capsys.readouterr().out == static

    def test_plan_policy_reports_depth0(self, index_path, capsys):
        main(["plan", index_path, "?x adv ?y . Nobel win ?x",
              "--policy", "adaptive"])
        out = capsys.readouterr().out
        assert "policy            : adaptive" in out
        assert "depth-0 choice" in out


class TestExplainPathStats:
    def test_explain(self, index_path, capsys):
        main(["explain", index_path, "?x adv ?y . Nobel win ?x"])
        out = capsys.readouterr().out
        assert "elimination order : x" in out
        assert "lonely variables  : y" in out

    def test_explain_unknown_constant(self, index_path, capsys):
        main(["explain", index_path, "?x nope ?y"])
        assert "0 solutions" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["explain", "plan"])
    def test_empty_pattern_is_named(self, index_path, capsys, command):
        # All constants exist, yet Thomson won nothing: no order and no
        # "constants absent" line, but the pattern that matches nothing.
        main([command, index_path, "Thomson win ?y . ?y adv ?z"])
        out = capsys.readouterr().out
        assert "matches no triple: 0 solutions" in out
        assert "absent from the graph" not in out
        assert "elimination order" not in out

    def test_path(self, index_path, capsys):
        main(["path", index_path, "adv+", "--source", "Bohr"])
        out = capsys.readouterr().out
        assert "Thomson" in out and "Strutt" in out
        assert "2 node(s)" in out

    def test_stats(self, index_path, capsys):
        main(["stats", index_path])
        out = capsys.readouterr().out
        assert "triples            : 4" in out
        assert "predicates         : 3" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


def exit_code(argv) -> int:
    with pytest.raises(SystemExit) as info:
        main(argv)
    return info.value.code


class TestVerify:
    def test_verify_ok(self, index_path, capsys):
        main(["verify", index_path])
        out = capsys.readouterr().out
        assert "sha256 checksum" in out
        assert "index integrity: OK" in out

    def test_verify_corrupted(self, index_path, capsys):
        from repro.reliability.integrity import resolve_payload

        payload = resolve_payload(index_path)
        data = bytearray(open(payload, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(payload, "wb").write(bytes(data))
        assert exit_code(["verify", index_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "checksum" in err

    def test_verify_missing(self, tmp_path, capsys):
        assert exit_code(["verify", str(tmp_path / "nope")]) == 1
        assert "does not exist" in capsys.readouterr().err


class TestErrorPaths:
    def test_build_missing_input(self, tmp_path, capsys):
        assert exit_code(
            ["build", str(tmp_path / "absent.nt"), "-o", str(tmp_path / "i")]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_build_malformed_ntriples(self, tmp_path, capsys):
        data = tmp_path / "bad.nt"
        data.write_text("<a> <p> <b> .\nNOT NTRIPLES\n")
        assert exit_code(
            ["build", str(data), "-o", str(tmp_path / "i")]
        ) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "NOT NTRIPLES" in err

    def test_build_lenient_skips_bad_lines(self, tmp_path, capsys):
        data = tmp_path / "bad.nt"
        data.write_text("<a> <p> <b> .\nNOT NTRIPLES\n<b> <p> <c> .\n")
        main(["build", str(data), "-o", str(tmp_path / "i"), "--lenient"])
        captured = capsys.readouterr()
        assert "indexed 2 triples" in captured.out
        assert "skipped 1 malformed line(s)" in captured.err

    def test_query_missing_index(self, tmp_path, capsys):
        assert exit_code(
            ["query", str(tmp_path / "nope"), "?x ?p ?y"]
        ) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_query_malformed_query(self, index_path, capsys):
        assert exit_code(["query", index_path, "?x ?p"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_query_corrupted_index(self, index_path, capsys):
        from repro.reliability.integrity import resolve_payload

        payload = resolve_payload(index_path)
        open(payload, "wb").write(b"garbage")
        assert exit_code(["query", index_path, "?x ?p ?y"]) == 1
        assert "error:" in capsys.readouterr().err


class TestPartialFlag:
    def test_partial_prints_truncation_notice(self, tmp_path, capsys):
        from repro.core import RingIndex
        from repro.graph.dataset import Graph
        from repro.graph.generators import random_graph

        # CLI queries need labels, so relabel a dense random graph
        # before saving; the triangle query below cannot finish in 2ms.
        graph = random_graph(2000, n_nodes=50, n_predicates=1, seed=2)
        labelled = Graph.from_string_triples(
            (f"n{s}", "p", f"n{o}") for s, _, o in graph.triples
        )
        path = str(tmp_path / "dense")
        RingIndex(labelled).save(path)
        main(
            [
                "query", path, "?a p ?b . ?b p ?c . ?c p ?a",
                "--timeout", "0.002", "--partial", "--limit", "1000000",
            ]
        )
        out = capsys.readouterr().out
        assert "(truncated: timeout)" in out

    def test_without_partial_times_out_with_exit_2(self, tmp_path, capsys):
        from repro.core import RingIndex
        from repro.graph.dataset import Graph
        from repro.graph.generators import random_graph

        graph = random_graph(2000, n_nodes=50, n_predicates=1, seed=2)
        labelled = Graph.from_string_triples(
            (f"n{s}", "p", f"n{o}") for s, _, o in graph.triples
        )
        path = str(tmp_path / "dense")
        RingIndex(labelled).save(path)
        assert exit_code(
            [
                "query", path, "?a p ?b . ?b p ?c . ?c p ?a",
                "--timeout", "0.002", "--limit", "1000000",
            ]
        ) == 2
        assert "timed out" in capsys.readouterr().err
