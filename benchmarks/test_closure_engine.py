"""Experiment P5 — the chunked sparse-bitset closure engine.

Three claims, each pinned by a recorded bound in
``bounds_pr5.json``:

* **Memory.**  On the largest scaling workload (music at scale 0.5),
  the chunked sparse closure must fit in ``max_closure_bytes`` — the
  bytes a dense big-int-per-node closure of the same graph takes,
  halved.  The copy-on-write chunk sharing between a node and its
  widest successor is where the win comes from, so the bound also
  guards the sharing discipline.

* **Repropagation.**  On a single-looper trace dense with events (the
  shape that made per-group dirty tracking coarse: every derived-rule
  group lives on the one looper, so one changed node used to re-read
  every group member), the per-event dirty sets must re-examine
  strictly fewer premises than group granularity would have, and no
  more than the recorded count.  The trace is hand-built, so the
  counters are deterministic by construction and the bound is exact.

* **Fixpoint work.**  On the memory workload, the popcount settle test
  of atomicity and queue rule 1 must settle exactly the recorded number
  of members and leave exactly the recorded number of candidate pairs
  to pairwise enumeration — machine-independent counts, where the
  wall-clock speedup they stand for is not.

The closure's correctness is checked separately, against the reference
oracle (``tests/test_differential_oracle.py``).
"""

import json
from pathlib import Path

import pytest

from repro.apps import make_app
from repro.hb import build_happens_before
from repro.testing import TraceBuilder

BOUNDS = json.loads(
    (Path(__file__).parent / "bounds_pr5.json").read_text(encoding="utf-8")
)


@pytest.fixture(scope="module")
def memory_workload():
    """The recorded app trace both music@0.5 gates build."""
    bounds = BOUNDS["memory"]
    app = make_app(bounds["app"], scale=bounds["scale"], seed=bounds["seed"])
    return app.run().trace


def huge_looper_trace(n_events: int):
    """One looper, ``n_events`` externally-sent events: every queue
    group of the derived-rule fixpoint lands on the same looper."""
    b = TraceBuilder()
    b.looper("L")
    b.thread("T")
    for i in range(n_events):
        b.event(f"E{i}", looper="L")
    b.begin("T")
    for i in range(n_events):
        b.send("T", f"E{i}", delay=i % 5)
    b.end("T")
    for i in range(n_events):
        b.begin(f"E{i}")
        b.write(f"E{i}", "x", site=f"w{i}")
        b.end(f"E{i}")
    return b.build()


def test_sparse_closure_memory_stays_under_bound(benchmark, memory_workload):
    """The chunked closure of the recorded workload must stay within
    ``max_closure_bytes`` (an exact, deterministic byte count) and
    share chunks between nodes."""
    bounds = BOUNDS["memory"]
    hb = benchmark.pedantic(
        lambda: build_happens_before(memory_workload), rounds=1, iterations=1
    )
    nodes = hb.graph.node_count
    closure_bytes = hb.profile.closure_bytes
    assert nodes > 0 and closure_bytes > 0
    assert closure_bytes <= bounds["max_closure_bytes"]
    # The sharing discipline, not just sparsity, keeps the bytes down.
    assert hb.profile.chunks_shared > 0
    benchmark.extra_info["key_nodes"] = nodes
    benchmark.extra_info["closure_bytes"] = closure_bytes
    benchmark.extra_info["closure_bytes_per_node"] = round(closure_bytes / nodes, 1)


def test_per_event_dirty_tracking_beats_per_group(benchmark):
    """On the single-huge-looper trace the per-event dirty sets must
    re-examine strictly fewer fixpoint premises than per-group
    granularity would have — and exactly as few as when the bound was
    recorded (the hand-built trace is deterministic)."""
    bounds = BOUNDS["repropagation"]
    trace = huge_looper_trace(bounds["looper_events"])

    hb = benchmark.pedantic(
        lambda: build_happens_before(trace), rounds=1, iterations=1
    )
    profile = hb.profile
    assert profile.rounds >= 2  # the dirty rounds did real work
    assert profile.group_dirty_events > 0
    assert profile.events_repropagated < profile.group_dirty_events
    assert profile.events_repropagated <= bounds["max_events_repropagated"]
    benchmark.extra_info["events_repropagated"] = profile.events_repropagated
    benchmark.extra_info["group_dirty_events"] = profile.group_dirty_events


def test_fixpoint_settles_the_recorded_members(benchmark, memory_workload):
    """Per derived rule, the members settled by popcount and the pairs
    still enumerated on the memory workload must equal the recorded
    counts exactly."""
    hb = benchmark.pedantic(
        lambda: build_happens_before(memory_workload), rounds=1, iterations=1
    )
    work = hb.profile.rule_work
    for rule, recorded in BOUNDS["fixpoint"]["rules"].items():
        assert work[rule].members_settled == recorded["members_settled"], rule
        assert work[rule].pairs_enumerated == recorded["pairs_enumerated"], rule
        benchmark.extra_info[f"{rule}.members_settled"] = work[rule].members_settled
        benchmark.extra_info[f"{rule}.pairs_enumerated"] = work[rule].pairs_enumerated
