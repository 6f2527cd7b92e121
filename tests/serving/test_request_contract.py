"""One request contract, asked of every query surface.

A :class:`~repro.core.system.Request` means the same thing wherever it
is evaluated: in process on a ring, through the result cache, through
a broker over a cached durable store, through a shard endpoint (in
process or across a pipe), and through the scatter-gather coordinator
with or without a cache in front.  Rows are compared as multisets —
the coordinator's row order is canonical, the engine's is not.
"""

import pickle
from collections import Counter

import pytest

from repro.cache import CachedQuerySystem
from repro.core import QueryCancelled, Request, RingIndex
from repro.graph import Var
from repro.graph.dataset import Graph
from repro.reliability.broker import QueryBroker
from repro.reliability.budget import CancellationToken, ResourceBudget
from repro.reliability.wal import DurableDynamicRing
from repro.serving import (
    InProcessEndpoint,
    ProcessEndpoint,
    ShardCoordinator,
    ShardedRingIndex,
)
from repro.serving.sharding import _memory_factory
from tests.serving.conftest import WORKLOAD, random_graph

pytestmark = pytest.mark.serving

JOIN = "?x p0 ?y . ?y p1 ?z"
#: Asked only by the timeout case, so it is cold in every cache.
COLD = "?x p1 ?y . ?y p0 ?z"
X = Var("x")


def labelled_graph() -> Graph:
    """The serving suite's random graph, with labels to decode."""
    ids = random_graph()
    return Graph.from_string_triples(
        (f"n{s}", f"p{p}", f"n{o}") for s, p, o in ids.triples.tolist()
    )


GRAPH = labelled_graph()

#: (surface, whether a repeated request is served from a result cache,
#: whether it runs in this process — a token never crosses a pipe).
SURFACES = {
    "ring": (False, True),
    "cached-ring": (True, True),
    "broker-cached-store": (True, True),
    "in-process-endpoint": (False, True),
    "process-endpoint": (False, False),
    "coordinator": (False, True),
    "cached-coordinator": (True, True),
}


def _durable(directory) -> str:
    DurableDynamicRing.create(
        str(directory), GRAPH, buffer_threshold=256
    ).close(checkpoint=True)
    return str(directory)


@pytest.fixture(scope="module", params=list(SURFACES))
def surface(request, tmp_path_factory):
    name = request.param
    closers = []
    if name == "ring":
        system = RingIndex(GRAPH)
    elif name == "cached-ring":
        system = CachedQuerySystem(RingIndex(GRAPH))
    elif name == "broker-cached-store":
        store, _ = DurableDynamicRing.recover(
            _durable(tmp_path_factory.mktemp("store")), buffer_threshold=256
        )
        system = QueryBroker(CachedQuerySystem(store), workers=2).start()
        closers += [system.stop, store.close]
    elif name == "in-process-endpoint":
        system = InProcessEndpoint(_memory_factory(GRAPH, 256), {"workers": 1})
        closers.append(system.shutdown)
    elif name == "process-endpoint":
        system = ProcessEndpoint(
            _durable(tmp_path_factory.mktemp("proc")),
            store_options={"buffer_threshold": 256},
            broker_options={"workers": 1},
        )
        closers.append(lambda: system.shutdown(checkpoint=False))
    else:
        shards = ShardedRingIndex.from_graph(GRAPH, 3)
        closers.append(shards.shutdown)
        system = ShardCoordinator(shards)
        if name == "cached-coordinator":
            system = CachedQuerySystem(system)
    yield name, system
    for close in closers:
        close()


@pytest.fixture(scope="module")
def reference():
    return RingIndex(GRAPH)


def multiset(rows) -> Counter:
    return Counter(frozenset(row.items()) for row in rows)


def test_limit_is_a_count_not_a_truncation(surface, reference):
    name, system = surface
    full = multiset(reference.evaluate(JOIN))
    total = sum(full.values())
    for limit in (2, total + 5):
        got = system.evaluate(JOIN, limit=limit)
        assert len(got) == min(limit, total)
        assert not got.truncated and got.interrupted_by is None
        assert not multiset(got) - full, "limited rows must be answer rows"
        if SURFACES[name][0]:
            again = system.evaluate(JOIN, limit=limit)
            assert again.cached, "a complete limited answer is cacheable"
            assert list(again) == list(got)


def test_limit_zero_admits_no_row(surface):
    _, system = surface
    got = system.evaluate(JOIN, limit=0)
    assert len(got) == 0
    assert not got.truncated and got.interrupted_by is None


@pytest.mark.parametrize("limit", [-2, 1.5, True, "3"])
def test_a_limit_that_is_not_a_count_is_refused(limit):
    with pytest.raises(ValueError, match="limit"):
        Request.of(JOIN, limit=limit)


def test_project_deduplicates(surface, reference):
    _, system = surface
    got = system.evaluate(JOIN, project=[X])
    want = multiset(reference.evaluate(JOIN, project=[X]))
    assert multiset(got) == want
    assert set(want.values()) == {1}


def test_decode_gives_labels(surface, reference):
    _, system = surface
    got = system.evaluate(JOIN, decode=True)
    assert multiset(got) == multiset(reference.evaluate(JOIN, decode=True))
    assert all(isinstance(v, str) for row in got for v in row.values())


def test_expired_deadline_under_partial_is_flagged(surface):
    _, system = surface
    got = system.evaluate(COLD, timeout=0.0, partial=True)
    assert got.truncated
    assert got.interrupted_by == "timeout"


def test_cancelled_token_is_honoured_in_process(surface):
    name, system = surface
    token = CancellationToken()
    token.cancel()
    system.evaluate(JOIN)  # warm any cache: a hit must not answer either
    if SURFACES[name][1]:
        with pytest.raises(QueryCancelled):
            system.evaluate(JOIN, cancellation=token)
    else:
        with pytest.raises(TypeError, match="cancellation"):
            system.evaluate(JOIN, cancellation=token)


def test_broker_refuses_a_prebuilt_budget(tmp_path):
    with QueryBroker(RingIndex(GRAPH), workers=1) as broker:
        with pytest.raises(TypeError, match="budget"):
            broker.submit(JOIN, budget=ResourceBudget(max_ops=1))
        with pytest.raises(TypeError, match="bogus"):
            broker.submit(JOIN, bogus=1)
        assert broker.stats()["submitted"] == 0


def test_request_is_frozen_and_pickles():
    request = Request.of(JOIN, limit=3, project=[X], decode=True, timeout=1.5)
    revived = pickle.loads(pickle.dumps(request))
    assert revived.bgp.patterns == request.bgp.patterns
    assert revived._replace(bgp=None) == request._replace(bgp=None)
    assert request.project == (X,)
    assert Request.of(request) is request
    with pytest.raises(TypeError):
        Request.of(request, limit=4)
    with pytest.raises(AttributeError):
        request.limit = 4
    budget = request.budget()
    assert (budget.timeout, budget.max_solutions, budget.max_ops) == (1.5, 3, None)


def test_spent_budget_stops_a_query_shorter_than_one_check():
    # WORKLOAD[0] finishes in fewer ops than the budget's check interval,
    # so only the poll on entry can see a deadline or token spent already.
    index = RingIndex(random_graph())
    got = index.evaluate(WORKLOAD[0], timeout=0, partial=True)
    assert len(got) == 0
    assert got.truncated and got.interrupted_by == "timeout"
    token = CancellationToken()
    token.cancel()
    with pytest.raises(QueryCancelled):
        index.evaluate(WORKLOAD[0], cancellation=token)


def test_coordinator_dispatches_nothing_on_a_spent_budget():
    token = CancellationToken()
    token.cancel()
    with ShardedRingIndex.from_graph(random_graph(), 3) as shards:
        coordinator = ShardCoordinator(shards)
        with pytest.raises(QueryCancelled):
            coordinator.evaluate(WORKLOAD[0], cancellation=token)
        got = coordinator.evaluate(WORKLOAD[0], cancellation=token, partial=True)
        assert len(got) == 0
        assert got.truncated and got.interrupted_by == "cancelled"
        assert coordinator.stats()["shard_calls"] == 0


def test_coordinator_asks_no_shard_at_limit_zero():
    with ShardedRingIndex.from_graph(GRAPH, 3) as shards:
        coordinator = ShardCoordinator(shards)
        got = coordinator.evaluate(JOIN, limit=0)
        assert len(got) == 0
        assert not got.truncated and got.interrupted_by is None
        # A budget spent on entry still stops it, as it stops a ring.
        spent = coordinator.evaluate(JOIN, limit=0, timeout=0, partial=True)
        assert len(spent) == 0
        assert spent.truncated and spent.interrupted_by == "timeout"
        assert coordinator.stats()["shard_calls"] == 0
