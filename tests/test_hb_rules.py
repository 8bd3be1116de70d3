"""Rule-by-rule tests of the causality model (Section 3.3)."""

import pytest

from repro import CAFA_MODEL, CONVENTIONAL_MODEL, ModelConfig, build_happens_before
from repro.hb import HBCycleError
from repro.testing import TraceBuilder


class TestProgramOrder:
    def test_ops_of_one_task_are_ordered(self):
        b = TraceBuilder()
        b.thread("t")
        b.begin("t")
        i = b.read("t", "x")
        j = b.write("t", "y")
        b.end("t")
        hb = build_happens_before(b.build())
        assert hb.ordered(i, j)
        assert not hb.ordered(j, i)

    def test_events_of_a_looper_have_no_program_order(self):
        """The core relaxation: sequential execution on one looper does
        not imply happens-before (Section 3.1)."""
        b = TraceBuilder()
        b.looper("L")
        b.thread("T1")
        b.thread("T2")
        b.event("A", looper="L")
        b.event("B", looper="L")
        b.begin("T1"); b.send("T1", "A"); b.end("T1")
        b.begin("T2"); b.send("T2", "B"); b.end("T2")
        b.begin("A"); i = b.write("A", "x"); b.end("A")
        b.begin("B"); j = b.read("B", "x"); b.end("B")
        hb = build_happens_before(b.build())
        assert hb.concurrent(i, j)

    def test_conventional_model_orders_same_looper_events(self):
        b = TraceBuilder()
        b.looper("L")
        b.thread("T1")
        b.thread("T2")
        b.event("A", looper="L")
        b.event("B", looper="L")
        b.begin("T1"); b.send("T1", "A"); b.end("T1")
        b.begin("T2"); b.send("T2", "B"); b.end("T2")
        b.begin("A"); i = b.write("A", "x"); b.end("A")
        b.begin("B"); j = b.read("B", "x"); b.end("B")
        hb = build_happens_before(b.build(), CONVENTIONAL_MODEL)
        assert hb.ordered(i, j)


class TestForkJoin:
    def _trace(self):
        b = TraceBuilder()
        b.thread("t")
        b.thread("u")
        b.begin("t")
        f = b.fork("t", "u")
        b.begin("u")
        w = b.write("u", "x")
        b.end("u")
        j = b.join("t", "u")
        r = b.read("t", "x")
        b.end("t")
        return b.build(), f, w, j, r

    def test_fork_orders_parent_before_child(self):
        trace, f, w, j, r = self._trace()
        hb = build_happens_before(trace)
        assert hb.ordered(f, w)

    def test_join_orders_child_before_parent(self):
        trace, f, w, j, r = self._trace()
        hb = build_happens_before(trace)
        assert hb.ordered(w, r)

    def test_disabled_fork_join_drops_both(self):
        trace, f, w, j, r = self._trace()
        hb = build_happens_before(trace, ModelConfig(fork_join=False))
        assert not hb.ordered(f, w)
        assert not hb.ordered(w, r)


class TestSignalWait:
    def test_notify_orders_before_matched_wait(self):
        b = TraceBuilder()
        b.thread("t")
        b.thread("u")
        b.begin("t")
        b.begin("u")
        w1 = b.write("t", "x")
        ticket = b.next_ticket()
        b.notify("t", "mon", ticket=ticket)
        b.wait("u", "mon", ticket=ticket)
        r1 = b.read("u", "x")
        b.end("t")
        b.end("u")
        hb = build_happens_before(b.build())
        assert hb.ordered(w1, r1)

    def test_unmatched_tickets_fall_back_to_trace_order(self):
        b = TraceBuilder()
        b.thread("t")
        b.thread("u")
        b.begin("t")
        b.begin("u")
        n = b.notify("t", "mon", ticket=-1)
        w = b.wait("u", "mon", ticket=-1)
        b.end("t")
        b.end("u")
        hb = build_happens_before(b.build())
        assert hb.ordered(n, w)

    def test_different_monitors_unordered(self):
        b = TraceBuilder()
        b.thread("t")
        b.thread("u")
        b.begin("t")
        b.begin("u")
        n = b.notify("t", "m1", ticket=-1)
        w = b.wait("u", "m2", ticket=-1)
        b.end("t")
        b.end("u")
        hb = build_happens_before(b.build())
        assert not hb.ordered(n, w)


class TestListenerRule:
    def test_register_orders_before_perform(self):
        b = TraceBuilder()
        b.looper("L")
        b.thread("T")
        b.thread("S")
        b.event("E", looper="L")
        b.begin("S"); b.send("S", "E"); b.end("S")
        b.begin("T")
        reg = b.register("T", "click")
        b.end("T")
        b.begin("E")
        perf = b.perform("E", "click")
        b.end("E")
        hb = build_happens_before(b.build())
        assert hb.ordered(reg, perf)

    def test_missing_register_means_no_edge(self):
        """This is how Type I false positives arise (Section 6.3)."""
        b = TraceBuilder()
        b.looper("L")
        b.thread("T")
        b.thread("S")
        b.event("E", looper="L")
        b.begin("S"); b.send("S", "E"); b.end("S")
        b.begin("T")
        w = b.write("T", "x")
        b.end("T")
        b.begin("E")
        b.perform("E", "click")
        r = b.read("E", "x")
        b.end("E")
        hb = build_happens_before(b.build())
        assert hb.concurrent(w, r)


class TestExternalInputRule:
    def _trace(self):
        b = TraceBuilder()
        b.looper("L")
        b.event("e1", looper="L", external=True)
        b.event("e2", looper="L", external=True)
        b.begin("e1"); b.end("e1")
        b.begin("e2"); b.end("e2")
        return b.build()

    def test_external_events_chained(self):
        hb = build_happens_before(self._trace())
        assert hb.event_ordered("e1", "e2")

    def test_rule_can_be_disabled(self):
        hb = build_happens_before(self._trace(), ModelConfig(external_input=False))
        assert not hb.event_ordered("e1", "e2")


class TestIpcRule:
    def test_call_orders_into_handler_and_reply_back(self):
        b = TraceBuilder()
        b.thread("app")
        b.thread("svc")
        b.begin("app")
        b.begin("svc")
        w = b.write("app", "arg")
        call = b.ipc_call("app", txn=9, service="gps")
        handle = b.ipc_handle("svc", txn=9, service="gps")
        r = b.read("svc", "arg")
        w2 = b.write("svc", "result")
        reply = b.ipc_reply("svc", txn=9, service="gps")
        ret = b.ipc_return("app", txn=9, service="gps")
        r2 = b.read("app", "result")
        b.end("app")
        b.end("svc")
        hb = build_happens_before(b.build())
        assert hb.ordered(w, r)
        assert hb.ordered(w2, r2)

    def test_unrelated_transactions_unordered(self):
        b = TraceBuilder()
        b.thread("a")
        b.thread("b")
        b.begin("a")
        b.begin("b")
        c1 = b.ipc_call("a", txn=1, service="s")
        h2 = b.ipc_handle("b", txn=2, service="s")
        b.end("a")
        b.end("b")
        hb = build_happens_before(b.build())
        assert not hb.ordered(c1, h2)


class TestLockEdges:
    def _trace(self):
        b = TraceBuilder()
        b.thread("t")
        b.thread("u")
        b.begin("t")
        b.begin("u")
        b.acquire("t", "lk")
        w = b.write("t", "x")
        b.release("t", "lk")
        b.acquire("u", "lk")
        r = b.read("u", "x")
        b.release("u", "lk")
        b.end("t")
        b.end("u")
        return b.build(), w, r

    def test_cafa_model_derives_no_order_from_locks(self):
        """Section 3.1: no unlock -> lock happens-before."""
        trace, w, r = self._trace()
        hb = build_happens_before(trace)
        assert hb.concurrent(w, r)

    def test_lock_edges_option_orders_critical_sections(self):
        trace, w, r = self._trace()
        hb = build_happens_before(trace, ModelConfig(lock_edges=True))
        assert hb.ordered(w, r)


class TestSendRule:
    def test_send_orders_before_event_begin(self):
        b = TraceBuilder()
        b.looper("L")
        b.thread("T")
        b.event("E", looper="L")
        b.begin("T")
        w = b.write("T", "x")
        b.send("T", "E")
        b.end("T")
        b.begin("E")
        r = b.read("E", "x")
        b.end("E")
        hb = build_happens_before(b.build())
        assert hb.ordered(w, r)


class TestCycleDetection:
    def test_inconsistent_trace_raises(self):
        # Two events that each "send" the other cannot exist in a real
        # execution; the builder must refuse rather than loop.
        b = TraceBuilder()
        b.looper("L1")
        b.looper("L2")
        b.event("A", looper="L1")
        b.event("B", looper="L2")
        b.begin("A")
        b.send("A", "B")
        b.end("A")
        b.begin("B")
        b.send("B", "A")  # B claims to have sent A, which already ran
        b.end("B")
        with pytest.raises(HBCycleError):
            build_happens_before(b.build(validate=False))


class TestFixpointCounters:
    """Per-rule work of the derived-rule fixpoint, pinned exactly on a
    trace where atomicity and queue rule 1 each conclude one edge."""

    @staticmethod
    def _trace():
        b = TraceBuilder()
        b.looper("L1")
        b.looper("L2")
        b.thread("S")
        b.thread("T")
        b.thread("U")
        b.event("A", looper="L1")
        b.event("B", looper="L1")
        b.event("E1", looper="L2")
        b.event("E2", looper="L2")
        # atomicity: begin(A) < end(B) through T, so end(A) < begin(B)
        b.begin("A")
        b.fork("A", "T")
        b.end("A")
        b.begin("T")
        t = b.next_ticket()
        b.notify("T", "m", t)
        b.end("T")
        b.begin("B")
        b.wait("B", "m", t)
        b.end("B")
        # queue rule 1: send(E1) < send(E2) across two tasks (so no
        # chain seeding), equal delays, so end(E1) < begin(E2)
        b.begin("S")
        b.send("S", "E1")
        t2 = b.next_ticket()
        b.notify("S", "n", t2)
        b.end("S")
        b.begin("U")
        b.wait("U", "n", t2)
        b.send("U", "E2")
        b.end("U")
        b.begin("E1")
        b.end("E1")
        b.begin("E2")
        b.end("E2")
        return b.build()

    def test_rule_work_is_exact(self):
        from repro.hb import RuleWork

        hb = build_happens_before(self._trace())
        work = hb.profile.rule_work
        # Round one: A concludes end(A) < begin(B), E1 is settled (its
        # begin reaches no later end yet); send(E1) concludes
        # end(E1) < begin(E2), send(E2) is settled.  Round two re-reads
        # the two members whose begin moved; both now settle.
        assert work["atomicity"] == RuleWork(
            members_examined=4,
            members_settled=3,
            pairs_enumerated=1,
            edges_concluded=1,
        )
        assert work["queue-rule-1"] == RuleWork(
            members_examined=2,
            members_settled=1,
            pairs_enumerated=1,
            edges_concluded=1,
        )
        for rule in ("queue-rule-2", "queue-rule-3", "queue-rule-4"):
            assert work[rule] == RuleWork()
        assert hb.profile.edges_per_round == [2]
        assert hb.derived_edges == 2

    def test_counters_reach_stats_text_and_document(self):
        from repro.hb import hb_stats

        trace = self._trace()
        stats = hb_stats(trace, build_happens_before(trace))
        text = stats.format()
        assert (
            "rule atomicity: 4 members examined, 3 settled by popcount, "
            "1 pairs enumerated, 1 edges concluded" in text
        )
        assert "rule queue-rule-1: 2 members examined" in text
        # rules that did no work print no line
        assert "rule queue-rule-2" not in text
        profile = stats.build_section()["profile"]
        assert profile["rule_work"]["queue-rule-1"] == {
            "members_examined": 2,
            "members_settled": 1,
            "pairs_enumerated": 1,
            "edges_concluded": 1,
        }

    def test_disabled_rules_have_no_counters(self):
        config = ModelConfig(
            queue_rule_1=False,
            queue_rule_2=False,
            queue_rule_3=False,
            queue_rule_4=False,
        )
        hb = build_happens_before(self._trace(), config)
        assert list(hb.profile.rule_work) == ["atomicity"]


class TestExplain:
    def test_explain_returns_a_rule_path(self):
        b = TraceBuilder()
        b.thread("t")
        b.thread("u")
        b.begin("t")
        f = b.fork("t", "u")
        b.begin("u")
        w = b.write("u", "x")
        b.end("u")
        b.end("t")
        hb = build_happens_before(b.build())
        steps = hb.explain(f, w)
        assert steps is not None
        rules = [rule for _, rule in steps]
        assert "fork" in rules

    def test_explain_none_when_unordered(self):
        b = TraceBuilder()
        b.thread("t")
        b.thread("u")
        b.begin("t")
        b.begin("u")
        i = b.read("t", "x")
        j = b.write("u", "x")
        b.end("t")
        b.end("u")
        hb = build_happens_before(b.build())
        assert hb.explain(i, j) is None


class TestModelApplicability:
    def test_shared_queue_between_loopers_rejected(self):
        """Section 3.1: the model does not apply when multiple looper
        threads drain one event queue."""
        from repro.hb import ModelNotApplicableError

        b = TraceBuilder()
        b.looper("L1")
        b.looper("L2")
        b.thread("T")
        b.event("A", looper="L1", queue="shared")
        b.event("B", looper="L2", queue="shared")
        b.begin("T")
        b.send("T", "A")
        b.send("T", "B")
        b.end("T")
        b.begin("A"); b.end("A")
        b.begin("B"); b.end("B")
        with pytest.raises(ModelNotApplicableError, match="one\\s+looper"):
            build_happens_before(b.build())

    def test_distinct_queues_are_fine(self):
        b = TraceBuilder()
        b.looper("L1")
        b.looper("L2")
        b.thread("T")
        b.event("A", looper="L1")
        b.event("B", looper="L2")
        b.begin("T")
        b.send("T", "A")
        b.send("T", "B")
        b.end("T")
        b.begin("A"); b.end("A")
        b.begin("B"); b.end("B")
        build_happens_before(b.build())  # must not raise
