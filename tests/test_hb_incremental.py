"""The incremental reachability index vs. rebuild-from-scratch.

``KeyGraph(incremental=True)`` maintains its transitive closure across
``add_node``/``add_edge`` once computed; ``incremental=False`` is the
historical invalidate-and-rebuild behaviour.  The two must agree on
every query and produce identical reach bitsets under any interleaving
of construction and queries — hypothesis drives randomized scripts,
and the app traces exercise the full builder both ways.  Edges on a
closed graph are swept in batches at the next read; a per-edge
reference model checks that batching changes no closure, dirty set or
bit count.
"""

import random

from hypothesis import given, settings, strategies as st
import pytest

from repro.analysis import bench_scale
from repro.hb import HBCycleError, KeyGraph, build_happens_before
from repro.hb.reference import ReferenceHappensBefore

#: scale for the whole-app differentials (REPRO_BENCH_SCALE overrides)
SCALE = bench_scale(default=0.02)


@st.composite
def graph_scripts(draw):
    """A random interleaving of add_node / add_edge / reaches steps.

    Edges always point from a lower to a higher node id, so the graph
    stays acyclic by construction.
    """
    initial = draw(st.integers(min_value=2, max_value=5))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["edge", "query", "node"]),
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=10_000),
            ),
            max_size=60,
        )
    )
    return initial, steps


def replay(script):
    """Run one script on an incremental and a legacy graph in lockstep."""
    initial, steps = script
    inc = KeyGraph(incremental=True)
    legacy = KeyGraph(incremental=False)
    count = 0
    for _ in range(initial):
        inc.add_node(count)
        legacy.add_node(count)
        count += 1
    for kind, x, y in steps:
        if kind == "node":
            inc.add_node(count)
            legacy.add_node(count)
            count += 1
        elif kind == "edge":
            a, b = x % count, y % count
            if a == b:
                continue
            u, v = min(a, b), max(a, b)
            assert inc.add_edge(u, v, "r") == legacy.add_edge(u, v, "r")
        else:  # query — forces closure at an arbitrary point
            a, b = x % count, y % count
            assert inc.reaches(a, b) == legacy.reaches(a, b), (a, b)
    return inc, legacy


@settings(max_examples=200, deadline=None)
@given(graph_scripts())
def test_incremental_closure_matches_rebuild(script):
    inc, legacy = replay(script)
    assert inc.reach_vector() == legacy.reach_vector()
    assert inc.edge_count == legacy.edge_count


@settings(max_examples=100, deadline=None)
@given(graph_scripts())
def test_incremental_computes_at_most_one_full_closure(script):
    inc, legacy = replay(script)
    assert inc.closure_recomputations <= 1
    assert legacy.bits_propagated == 0


class TestIncrementalMechanics:
    def closed_chain(self, n=4):
        g = KeyGraph()
        nodes = [g.add_node(i) for i in range(n)]
        for u, v in zip(nodes, nodes[1:]):
            g.add_edge(u, v, "po")
        g.close()
        return g, nodes

    def test_edge_on_closed_graph_updates_in_place(self):
        g, nodes = self.closed_chain()
        before = g.closure_recomputations
        extra = g.add_node(99)
        g.add_edge(nodes[-1], extra, "x")
        assert g.reaches(nodes[0], extra)
        assert g.closure_recomputations == before
        assert g.bits_propagated > 0

    def test_implied_edge_propagates_nothing(self):
        g, nodes = self.closed_chain()
        spent = g.bits_propagated
        g.add_edge(nodes[0], nodes[2], "shortcut")
        assert g.bits_propagated == spent

    def test_back_edge_on_closed_graph_raises_immediately(self):
        g, nodes = self.closed_chain()
        with pytest.raises(HBCycleError) as excinfo:
            g.add_edge(nodes[3], nodes[0], "back")
        assert len(excinfo.value.cycle) >= 2

    def test_self_loop_on_closed_graph_raises_immediately(self):
        g, nodes = self.closed_chain()
        with pytest.raises(HBCycleError):
            g.add_edge(nodes[1], nodes[1], "self")

    def test_drain_dirty_reports_changed_nodes_once(self):
        g, nodes = self.closed_chain()
        assert g.drain_dirty() == set(range(g.node_count))  # initial closure
        assert g.drain_dirty() == set()
        g.add_edge(g.add_node(50), nodes[0], "pre")
        dirty = g.drain_dirty()
        assert dirty  # the new source node gained reach bits
        assert g.drain_dirty() == set()

    def test_close_is_idempotent(self):
        g, nodes = self.closed_chain()
        g.close()
        g.close()
        assert g.closure_recomputations == 1


@st.composite
def edge_batches(draw):
    """A closed DAG, then batches of new nodes and edges between reads.

    Every node draws a hidden rank and edges run from lower to higher
    (rank, id), so the graph stays acyclic while node ids are *not* a
    topological order — the sweep's highest-id-first heuristic must
    not matter for the result.
    """
    ranks = draw(st.lists(st.integers(0, 50), min_size=2, max_size=12))
    pair = st.tuples(st.integers(0, 10_000), st.integers(0, 10_000))
    initial = draw(st.lists(pair, max_size=20))
    batches = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 50), max_size=4),  # new node ranks
                st.lists(pair, max_size=12),  # edges
                st.sampled_from(["drain", "vector", "reaches"]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return ranks, initial, batches


class PerEdgeModel:
    """Reference closure over big-int rows, propagating every edge on
    arrival (the per-edge worklist the batched sweep replaced)."""

    def __init__(self, n, edges):
        self.pred = [[] for _ in range(n)]
        succ = [[] for _ in range(n)]
        for u, v in edges:
            succ[u].append(v)
            self.pred[v].append(u)
        self.reach = [self._dfs(succ, x) for x in range(n)]
        self.dirty = set(range(n))
        self.bits = 0

    @staticmethod
    def _dfs(succ, root):
        seen, stack = {root}, [root]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return sum(1 << x for x in seen)

    def add_node(self):
        node = len(self.reach)
        self.reach.append(1 << node)
        self.pred.append([])
        self.dirty.add(node)

    def add_edge(self, u, v):
        self.pred[v].append(u)
        stack = []
        gained = self.reach[v] & ~self.reach[u]
        if gained:
            self.reach[u] |= gained
            self.bits += bin(gained).count("1")
            self.dirty.add(u)
            stack.append(u)
        while stack:
            x = stack.pop()
            for p in self.pred[x]:
                gained = self.reach[x] & ~self.reach[p]
                if gained:
                    self.reach[p] |= gained
                    self.bits += bin(gained).count("1")
                    self.dirty.add(p)
                    stack.append(p)

    def drain(self):
        dirty, self.dirty = self.dirty, set()
        return dirty


def _ordered_edge(order, x, y):
    n = len(order)
    a, b = x % n, y % n
    if a == b:
        return None
    return (a, b) if order[a] < order[b] else (b, a)


@settings(max_examples=200, deadline=None)
@given(edge_batches())
def test_batched_flush_matches_per_edge_and_scratch(case):
    """Batches of edges between reads leave the same reach vectors,
    the same ``drain_dirty()`` sets and the same ``bits_propagated``
    as propagating every edge on arrival, and the same closure as a
    from-scratch build of the final graph."""
    ranks, initial, batches = case
    order = [(rank, i) for i, rank in enumerate(ranks)]
    g = KeyGraph()
    for i in range(len(order)):
        g.add_node(i)
    edges = []
    for x, y in initial:
        e = _ordered_edge(order, x, y)
        if e is not None and g.add_edge(*e, "base"):
            edges.append(e)
    g.close()
    model = PerEdgeModel(len(order), edges)
    assert g.drain_dirty() == model.drain()
    for new_ranks, batch, read in batches:
        for rank in new_ranks:
            order.append((rank, len(order)))
            g.add_node(len(order) - 1)
            model.add_node()
        for x, y in batch:
            e = _ordered_edge(order, x, y)
            if e is not None and g.add_edge(*e, "batch"):
                edges.append(e)
                model.add_edge(*e)
        if read == "drain":
            assert g.drain_dirty() == model.drain()
        elif read == "vector":
            assert [r.to_int() for r in g.reach_vector()] == model.reach
        else:
            assert g.reaches(0, len(order) - 1) == bool(
                model.reach[0] >> (len(order) - 1) & 1
            )
        assert g.bits_propagated == model.bits
    assert [r.to_int() for r in g.reach_vector()] == model.reach
    assert g.drain_dirty() == model.drain()
    assert g.bits_propagated == model.bits
    scratch = KeyGraph()
    for i in range(len(order)):
        scratch.add_node(i)
    for u, v in edges:
        scratch.add_edge(u, v, "x")
    assert scratch.reach_vector() == g.reach_vector()
    assert scratch.closure_recomputations == 1 == g.closure_recomputations


class TestCycleThroughPendingEdges:
    """A cycle closed only by edges added since the last read passes
    both immediate tests and raises at the next read."""

    def two_pending_edges(self):
        g = KeyGraph()
        nodes = [g.add_node(i) for i in range(3)]
        g.add_edge(nodes[0], nodes[1], "po")
        g.add_edge(nodes[1], nodes[2], "po")
        g.close()
        extra = g.add_node(3)
        g.add_edge(nodes[2], extra, "x")  # immediate test passes
        g.add_edge(extra, nodes[0], "y")  # stale reach[0] lacks 3: passes
        return g

    @pytest.mark.parametrize(
        "read",
        [
            lambda g: g.reach_vector(),
            lambda g: g.reaches(0, 1),
            lambda g: g.reach_set(0),
            lambda g: g.close(),
            lambda g: g.drain_dirty(),
            lambda g: g.closure_bytes(),
            lambda g: g.chunk_stats(),
        ],
        ids=["reach_vector", "reaches", "reach_set", "close", "drain_dirty",
             "closure_bytes", "chunk_stats"],
    )
    def test_next_read_raises(self, read):
        g = self.two_pending_edges()
        with pytest.raises(HBCycleError) as excinfo:
            read(g)
        assert len(excinfo.value.cycle) >= 2

    def test_online_poll_raises(self):
        from repro.stream.incremental import IncrementalHB
        from repro.testing import TraceBuilder

        # A joins B before forking it.  Online every edge of the cycle
        # (join -> fork -> begin(B) -> end(B) -> join) lands between two
        # polls, so ingest's immediate tests all pass.
        b = TraceBuilder()
        b.thread("A")
        b.thread("B")
        b.begin("A")
        b.join("A", "B")
        b.fork("A", "B")
        b.begin("B")
        b.end("B")
        b.end("A")
        trace = b.build(validate=False)
        online = IncrementalHB(trace)
        for i in range(len(trace)):
            online.ingest(i)
        with pytest.raises(HBCycleError):
            online.poll()
        with pytest.raises(HBCycleError):
            build_happens_before(trace)


def _sample_pairs(n, k, seed=0):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]


class TestBuilderDifferential:
    """The incremental builder vs. the legacy builder vs. the oracle."""

    APPS = None  # filled lazily to keep import time down

    @classmethod
    def apps(cls):
        if cls.APPS is None:
            from repro.apps import ALL_APPS

            cls.APPS = ALL_APPS
        return cls.APPS

    @pytest.mark.parametrize(
        "app_name", "connectbot mytracks zxing todolist browser firefox "
        "vlc fbreader camera music".split()
    )
    def test_incremental_build_is_bit_identical(self, app_name):
        app_cls = next(a for a in self.apps() if a.name == app_name)
        run = app_cls(scale=SCALE, seed=0).run()
        fast = build_happens_before(run.trace)
        slow = build_happens_before(run.trace, incremental=False)
        assert set(fast.graph.edges()) == set(slow.graph.edges())
        assert fast.graph.reach_vector() == slow.graph.reach_vector()
        assert fast.iterations == slow.iterations
        assert fast.derived_edges == slow.derived_edges
        for a, b in _sample_pairs(len(run.trace), 500):
            assert fast.ordered(a, b) == slow.ordered(a, b), (a, b)

    @pytest.mark.parametrize("app_name", ["mytracks", "browser", "camera"])
    def test_incremental_build_matches_reference_oracle(self, app_name):
        app_cls = next(a for a in self.apps() if a.name == app_name)
        run = app_cls(scale=0.01, seed=0).run()
        fast = build_happens_before(run.trace)
        oracle = ReferenceHappensBefore(run.trace)
        for a, b in _sample_pairs(len(run.trace), 1000, seed=7):
            assert fast.ordered(a, b) == oracle.ordered(a, b), (
                a,
                b,
                run.trace[a],
                run.trace[b],
            )

    def test_incremental_build_closes_once_despite_rounds(self):
        app_cls = next(a for a in self.apps() if a.name == "mytracks")
        run = app_cls(scale=0.05, seed=0).run()
        hb = build_happens_before(run.trace)
        assert hb.iterations >= 2  # the fixpoint does real work here
        assert hb.graph.closure_recomputations == 1
        legacy = build_happens_before(run.trace, incremental=False)
        assert legacy.graph.closure_recomputations > hb.graph.closure_recomputations
