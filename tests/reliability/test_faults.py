"""Fault injection: failure handling proven under induced failures.

The contract being tested: whatever is injected into the hot paths,
queries end in exactly one of three ways — correct results, a typed
exception, or (with ``partial=True``) a truncated-but-correct prefix.
Never a silent wrong answer.
"""

import inspect

import pytest

from repro.core import QueryExecutionError, QueryTimeout, RingIndex
from repro.core import ltj
from repro.graph import BasicGraphPattern, TriplePattern, Var
from repro.graph.generators import random_graph
from repro.reliability.faults import (
    Fault,
    FaultInjector,
    InjectedFault,
    available_sites,
    inject_faults,
)
from repro.reliability.integrity import IndexIntegrityError
from repro.sequences.wavelet_matrix import WaveletMatrix
from tests.util import as_solution_set, naive_evaluate

pytestmark = pytest.mark.reliability

X, Y, Z = Var("x"), Var("y"), Var("z")

# Two-hop join with a constant predicate (already dictionary-encoded).
TWO_HOP = BasicGraphPattern(
    [TriplePattern(X, 0, Y), TriplePattern(Y, 0, Z)]
)
TRIANGLE = BasicGraphPattern(
    [TriplePattern(X, 0, Y), TriplePattern(Y, 0, Z), TriplePattern(Z, 0, X)]
)


@pytest.fixture(scope="module")
def graph():
    return random_graph(400, n_nodes=25, n_predicates=2, seed=3)


@pytest.fixture(scope="module")
def index(graph):
    return RingIndex(graph)


class TestRegistry:
    def test_sites_cover_the_tentpole_surface(self):
        sites = available_sites()
        for expected in (
            "wavelet.rank",
            "wavelet.rank_pair",
            "wavelet.select",
            "wavelet.range_next_value",
            "wavelet.intersect_ranges",
            "wavelet.intersect_ranges_many",
            "bitvector.access",
            "io.save",
            "io.load",
        ):
            assert expected in sites

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            Fault("wavelet.frobnicate")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            Fault("wavelet.rank", probability=1.5)


class TestLatencyFaults:
    def test_latency_makes_budget_fire(self, index):
        with inject_faults(Fault("wavelet.rank", latency=0.002)):
            with pytest.raises(QueryTimeout):
                index.evaluate(TWO_HOP, timeout=0.02)

    def test_latency_with_partial_yields_correct_prefix(self, graph, index):
        reference = naive_evaluate(graph, TWO_HOP)
        with inject_faults(Fault("wavelet.rank", latency=0.002)):
            result = index.evaluate(TWO_HOP, timeout=0.02, partial=True)
        assert result.truncated
        assert result.interrupted_by == "timeout"
        # Graceful degradation, not graceful corruption: every returned
        # row is a genuine solution.
        assert as_solution_set(result) <= reference
        assert len(result) < len(reference)


class TestErrorFaults:
    def test_engine_error_wrapped_with_bgp(self, index):
        with inject_faults(Fault("wavelet.rank", error=InjectedFault)):
            with pytest.raises(QueryExecutionError) as info:
                index.evaluate(TWO_HOP)
        assert "injected fault at wavelet.rank" in str(info.value)
        assert info.value.bgp is not None

    def test_io_load_fault_is_integrity_error(self, tmp_path, index):
        path = str(tmp_path / "idx")
        index.save(path)
        with inject_faults(Fault("io.load", error=InjectedFault)):
            with pytest.raises(IndexIntegrityError, match="injected fault"):
                RingIndex.load(path)

    def test_io_save_fault_propagates(self, tmp_path, index):
        with inject_faults(Fault("io.save", error=InjectedFault)):
            with pytest.raises(InjectedFault):
                index.save(str(tmp_path / "idx"))

    def test_probabilistic_fault_is_seeded(self, index):
        # Same seed, same workload -> identical trip counts.
        counts = []
        for _ in range(2):
            injector = FaultInjector(
                [Fault("wavelet.rank", probability=0.3)], seed=42
            )
            with injector:
                index.evaluate(TWO_HOP)
            counts.append(injector.fired["wavelet.rank"])
        assert counts[0] == counts[1] > 0

    def test_max_fires_limits_trips(self, index):
        fault = Fault("wavelet.rank", latency=0.0, max_fires=3)
        injector = FaultInjector([fault])
        with injector:
            index.evaluate(TWO_HOP)
        assert fault.fired == 3


class TestTriangleSites:
    """Since binds step through ``rank_pair`` and backward iterators
    intersect by one lockstep descent, ``wavelet.rank`` and
    ``wavelet.range_next_value`` no longer reach a ring triangle: these
    two sites do."""

    @pytest.mark.parametrize(
        "site", ["wavelet.rank_pair", "wavelet.intersect_ranges"]
    )
    def test_site_fires_and_surfaces_typed(self, index, site):
        injector = FaultInjector([Fault(site, error=InjectedFault)])
        with injector:
            with pytest.raises(QueryExecutionError, match=f"injected fault at {site}"):
                index.evaluate(TRIANGLE)
        assert injector.fired[site] == 1

    def test_static_kernel_stays_static(self):
        raw = inspect.getattr_static(WaveletMatrix, "intersect_ranges")
        with inject_faults(Fault("wavelet.intersect_ranges", latency=0.0)):
            patched = inspect.getattr_static(WaveletMatrix, "intersect_ranges")
            assert isinstance(patched, staticmethod) and patched is not raw
        assert inspect.getattr_static(WaveletMatrix, "intersect_ranges") is raw

    def test_batched_site_fires_and_surfaces_typed(self, graph, index, monkeypatch):
        """With every run of bindings batched, the block descent is where
        a triangle intersects: a fault there is a typed error, and a
        flaky one is a typed error or the right answer, never a wrong
        one."""
        monkeypatch.setattr(ltj, "BATCH_CROSSOVER", 1)
        site = "wavelet.intersect_ranges_many"
        injector = FaultInjector([Fault(site, error=InjectedFault)])
        with injector:
            with pytest.raises(QueryExecutionError, match=f"injected fault at {site}"):
                index.evaluate(TRIANGLE)
        assert injector.fired[site] == 1
        reference = naive_evaluate(graph, TRIANGLE)
        outcomes = set()
        for seed in range(8):
            flaky = Fault(site, probability=0.1, error=InjectedFault)
            with inject_faults(flaky, seed=seed):
                try:
                    rows = index.evaluate(TRIANGLE)
                except QueryExecutionError:
                    outcomes.add("typed")
                    continue
            assert as_solution_set(rows) == reference
            outcomes.add("correct")
        assert outcomes == {"typed", "correct"}


class TestHygiene:
    def test_uninstall_restores_originals(self, index):
        original = WaveletMatrix.rank
        with inject_faults(Fault("wavelet.rank", latency=0.001)):
            assert WaveletMatrix.rank is not original
        assert WaveletMatrix.rank is original

    def test_uninstall_after_crash(self, index):
        original = WaveletMatrix.rank
        with pytest.raises(QueryExecutionError):
            with inject_faults(Fault("wavelet.rank", error=InjectedFault)):
                index.evaluate(TWO_HOP)
        assert WaveletMatrix.rank is original

    def test_reinstall_rejected(self):
        injector = FaultInjector([Fault("wavelet.rank")])
        with injector:
            with pytest.raises(RuntimeError, match="already installed"):
                injector.install()

    def test_results_correct_after_faulty_run(self, graph, index):
        # A fault-ridden query must not poison subsequent clean ones.
        with pytest.raises(QueryExecutionError):
            with inject_faults(Fault("wavelet.rank", error=InjectedFault)):
                index.evaluate(TWO_HOP)
        assert as_solution_set(index.evaluate(TWO_HOP)) == naive_evaluate(
            graph, TWO_HOP
        )
