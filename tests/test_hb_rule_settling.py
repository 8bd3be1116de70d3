"""Exactness of the popcount settle tests in the derived-rule fixpoint.

Atomicity and queue rule 1 skip a member's pairwise enumeration when
two popcounts agree (``docs/model.md``).  The builder has no unpruned
path to compare against, so the check lives here: the fixpoint is
driven round by round exactly as ``build_happens_before`` drives it,
and at each round's entry every member the settle test settles is
enumerated by brute force — pair by pair over the group's records, with
no bitset masks — and must conclude nothing that the closure does not
already imply.

The remaining checks pin what the pruning must not disturb: the
builder still matches :class:`ReferenceHappensBefore` under models the
settle arguments do not cover (no send rule, atomicity alone), and a
cycle that only the derived rules close is still reported as
:class:`HBCycleError`.
"""

import functools
from bisect import bisect_left

import pytest
from hypothesis import given, settings

from repro.apps import ALL_APPS
from repro.hb import CAFA_MODEL, HBCycleError, ModelConfig, build_happens_before
from repro.hb.builder import (
    _add_base_edges,
    _build_key_graph,
    _BuildState,
    _check_one_looper_per_queue,
    _DerivedRules,
    _scan,
)
from repro.hb.reference import ReferenceHappensBefore
from repro.testing import TraceBuilder

from tests.test_property_hb_reference import assert_equivalent
from tests.test_property_runtime_hb import program_specs, run_program

#: queue rule 1 without its settle test (the argument needs send_begin)
NO_SEND_RULE = ModelConfig(send_begin=False)
#: atomicity as the only derived rule
ATOMICITY_ONLY = ModelConfig(
    queue_rule_1=False, queue_rule_2=False, queue_rule_3=False, queue_rule_4=False
)


def settled_atomicity_members(rules, reach):
    """Settled members, each checked against brute-force enumeration."""
    settled = 0
    for g in rules.atom_groups:
        for i in range(len(g.recs) - 1):
            if not rules._atomicity_settled(reach, g, i):
                continue
            settled += 1
            b, e = g.begin_node[i], g.end_node[i]
            for j in range(i + 1, len(g.recs)):
                if g.end_node[j] in reach[b]:  # premise begin_i < end_j
                    assert g.begin_node[j] in reach[e], (g.recs[i], g.recs[j])
    return settled


def settled_queue_rule_1_members(rules, reach):
    settled = 0
    for g in rules.queue_groups:
        if len(g.sends) < 2:
            continue
        for i, rec in enumerate(g.sends):
            start = bisect_left(g.delays, rec.delay)
            if not rules._queue_rule_1_settled(reach, g, i, start):
                continue
            settled += 1
            for j, other in enumerate(g.sends):
                if j == i or other.delay < rec.delay:
                    continue
                if g.send_node[j] in reach[g.send_node[i]]:  # premise
                    assert g.send_begin_node[j] in reach[g.send_end_node[i]], (
                        rec,
                        other,
                    )
    return settled


def check_settled_members(trace, config=CAFA_MODEL):
    """Drive the fixpoint round by round; return (atomicity, rule 1)
    members settled across all rounds, each brute-force checked."""
    state = _BuildState(trace=trace, config=config)
    _scan(state)
    _check_one_looper_per_queue(state)
    graph, _, _ = _build_key_graph(state)
    _add_base_edges(state, graph)
    graph.close()
    rules = _DerivedRules(state, graph)
    graph.drain_dirty()
    dirty = None
    atomicity = queue_1 = 0
    while True:
        reach = graph.reach_vector()
        atomicity += settled_atomicity_members(rules, reach)
        if config.send_begin:
            queue_1 += settled_queue_rule_1_members(rules, reach)
        new_edges = rules.apply(dirty)
        if not new_edges:
            break
        for u, v, rule in new_edges:
            graph.add_edge(u, v, rule)
        dirty = graph.drain_dirty()
    return atomicity, queue_1


@functools.lru_cache(maxsize=None)
def app_trace(app_cls):
    return app_cls(scale=0.01, seed=0).run().trace


@pytest.mark.parametrize("app_cls", ALL_APPS, ids=lambda a: a.name)
def test_settled_members_conclude_nothing_on_apps(app_cls):
    atomicity, queue_1 = check_settled_members(app_trace(app_cls))
    assert atomicity > 0 and queue_1 > 0  # the check is not vacuous


@settings(max_examples=30, deadline=None)
@given(program_specs())
def test_settled_members_conclude_nothing_on_generated_traces(spec):
    check_settled_members(run_program(spec))


@pytest.mark.parametrize(
    "config", [NO_SEND_RULE, ATOMICITY_ONLY], ids=["no-send-rule", "atomicity-only"]
)
class TestModelsOutsideTheQueueArgument:
    @settings(max_examples=15, deadline=None)
    @given(spec=program_specs())
    def test_builder_matches_reference(self, config, spec):
        trace = run_program(spec)
        if len(trace) > 120:  # keep the O(n^3) oracle tractable
            return
        assert_equivalent(trace, config)

    def test_builder_matches_reference_on_apps(self, config):
        trace = app_trace(ALL_APPS[0])
        hb = build_happens_before(trace, config)
        oracle = ReferenceHappensBefore(trace, config)
        bounds = [trace.ops_of(e) for e in trace.events()]
        ends = [ops[-1] for ops in bounds if ops]
        begins = [ops[0] for ops in bounds if ops]
        for a in ends:
            for b in begins:
                assert hb.ordered(a, b) == oracle.ordered(a, b), (a, b)

    def test_settled_members_conclude_nothing(self, config):
        check_settled_members(app_trace(ALL_APPS[0]), config)


def derived_cycle_trace():
    """An inconsistent trace whose base graph is acyclic but whose
    derived rules close a cycle.

    Events A and B of looper L run A-then-B and E1 and E2 of looper M
    are sent in order; but B claims to have sent A (a backward send
    edge) and E2 forks a thread that E1 joins.  Atomicity then
    concludes end(A) < begin(B) while begin(B) already reaches end(A),
    and queue rule 1 concludes end(E1) < begin(E2) while begin(E2)
    already reaches end(E1).
    """
    b = TraceBuilder()
    b.looper("L")
    b.looper("M")
    b.thread("T")
    b.thread("U")
    b.thread("S")
    b.thread("R")
    for name in ("A", "B"):
        b.event(name, looper="L")
    for name in ("E1", "E2"):
        b.event(name, looper="M")
    b.begin("A")
    b.fork("A", "T")
    b.end("A")
    b.begin("T")
    b.end("T")
    b.begin("B")
    b.send("B", "A")
    b.join("B", "T")
    b.end("B")
    b.begin("S")
    b.send("S", "E1")
    b.fork("S", "R")
    b.end("S")
    b.begin("R")
    b.send("R", "E2")
    b.end("R")
    b.begin("E2")
    b.fork("E2", "U")
    b.end("E2")
    b.begin("U")
    b.end("U")
    b.begin("E1")
    b.join("E1", "U")
    b.end("E1")
    return b.build(validate=False)


@pytest.mark.parametrize(
    "config",
    [
        CAFA_MODEL,
        ATOMICITY_ONLY,
        ModelConfig(atomicity=False),
        ModelConfig(atomicity=False, send_begin=False),
    ],
    ids=["cafa", "atomicity-only", "queue-rules", "queue-rules-no-send-rule"],
)
def test_cycle_closed_by_derived_rules_raises(config):
    trace = derived_cycle_trace()
    # the base graph alone is acyclic: only a derived edge closes it
    build_happens_before(trace, ModelConfig(atomicity=False).without_queue_rules())
    with pytest.raises(HBCycleError):
        build_happens_before(trace, config)
