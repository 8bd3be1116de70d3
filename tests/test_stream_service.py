"""The streaming service proper: in-process feed, epoch retirement on
multi-session streams, bounded closure memory, and the ``repro stream``
/ ``repro stats --stream`` CLI surface."""

import gzip

import pytest

from repro.apps import make_app
from repro.cli import main
from repro.detect import UseFreeDetector
from repro.stream import (
    SESSION_ID_STRIDE,
    StreamAnalyzer,
    concat_sessions,
)
from repro.trace import dumps_trace, save_trace_file

SCALE = 0.02
SEED = 1

_TRACES = {}


def app_trace(name="connectbot"):
    if name not in _TRACES:
        _TRACES[name] = make_app(name, scale=SCALE, seed=SEED).run().trace
    return _TRACES[name]


def offline_reports(trace):
    return [str(r) for r in UseFreeDetector(trace).detect().reports]


def stream_reports(trace, **kwargs):
    analyzer = StreamAnalyzer(**kwargs)
    for line in dumps_trace(trace, version=2).splitlines():
        analyzer.feed_line(line)
    return analyzer, [str(r) for r in analyzer.finish()]


class TestInProcessFeed:
    """append()/add_task() — no serialization round-trip at all."""

    def test_append_api_matches_offline(self):
        trace = app_trace()
        analyzer = StreamAnalyzer()
        for info in trace.tasks.values():
            analyzer.add_task(info)
        for op in trace:
            analyzer.append(op)
        online = [str(r) for r in analyzer.finish()]
        assert online == offline_reports(trace)
        assert analyzer.profile.ops_ingested == len(trace)

    def test_detect_now_is_provisional_and_harmless(self):
        trace = app_trace()
        lines = dumps_trace(trace, version=2).splitlines()
        analyzer = StreamAnalyzer(gc=False)
        half = len(lines) // 2
        for line in lines[:half]:
            analyzer.feed_line(line)
        provisional = {str(r.key) for r in analyzer.detect_now()}
        full_keys = {
            str(r.key) for r in UseFreeDetector(trace).detect().reports
        }
        # A mid-stream snapshot can only see races among ops so far.
        assert provisional <= full_keys
        for line in lines[half:]:
            analyzer.feed_line(line)
        assert [str(r) for r in analyzer.finish()] == offline_reports(trace)

    def test_poll_every_validated(self):
        with pytest.raises(ValueError, match="poll_every"):
            StreamAnalyzer(poll_every=0)

    def test_finish_is_idempotent_reports_accessor(self):
        trace = app_trace()
        analyzer, online = stream_reports(trace)
        assert [str(r) for r in analyzer.reports()] == online


class TestEpochGC:
    """Multi-session streams retire epochs and bound closure memory."""

    def _concat(self, k):
        return concat_sessions(app_trace(), sessions=k)

    def test_three_sessions_retire_three_epochs(self):
        combined = self._concat(3)
        analyzer, online = stream_reports(combined, gc=True)
        assert analyzer.profile.epochs_retired == 3
        assert online == offline_reports(combined)
        assert analyzer.profile.cross_epoch_accesses == 0
        assert analyzer.profile.retired_addresses > 0
        assert len(analyzer.epochs) == 3
        assert [e.index for e in analyzer.epochs] == [0, 1, 2]
        assert sum(e.ops for e in analyzer.epochs) == len(combined)

    def test_gc_bounds_peak_closure(self):
        combined = self._concat(3)
        single, _ = stream_reports(app_trace(), gc=True)
        bounded, _ = stream_reports(combined, gc=True)
        unbounded, _ = stream_reports(combined, gc=False)
        # With GC the peak stays within 2x one session's footprint;
        # without it the closure grows with every session.
        assert (
            bounded.profile.peak_closure_bytes
            <= 2 * single.profile.peak_closure_bytes
        )
        assert (
            unbounded.profile.peak_closure_bytes
            > bounded.profile.peak_closure_bytes
        )
        assert unbounded.profile.epochs_retired == 0

    def test_no_gc_matches_offline_on_concat(self):
        combined = self._concat(3)
        _, online = stream_reports(combined, gc=False)
        assert online == offline_reports(combined)

    def test_session_renaming_keeps_sessions_disjoint(self):
        combined = self._concat(2)
        base = app_trace()
        assert len(combined) == 2 * len(base)
        assert len(combined.tasks) == 2 * len(base.tasks)
        names = set(combined.tasks)
        assert all(n.startswith(("s0:", "s1:")) for n in names)
        assert SESSION_ID_STRIDE >= 1_000_000
        with pytest.raises(ValueError):
            concat_sessions(base, sessions=0)


class TestRuleWork:
    """``StreamProfile.rule_work`` sums the fixpoint's per-rule work
    over every poll, rule rebuild and epoch."""

    @staticmethod
    def _work(profile):
        return {
            rule: (w.members_examined, w.members_settled,
                   w.pairs_enumerated, w.edges_concluded)
            for rule, w in profile.rule_work.items()
            if w.members_examined
        }

    def _trace(self):
        from tests.test_hb_rules import TestFixpointCounters

        return TestFixpointCounters._trace()

    def test_one_poll_does_the_batch_work(self):
        # The whole session fits in one poll: the same work, member for
        # member, as the batch build pinned in test_hb_rules.py.
        analyzer, _ = stream_reports(self._trace(), gc=False)
        assert analyzer.profile.polls == 1
        assert self._work(analyzer.profile) == {
            "atomicity": (4, 3, 1, 1),
            "queue-rule-1": (2, 1, 1, 1),
        }
        assert set(analyzer.profile.rule_work) == {
            "atomicity", "queue-rule-1", "queue-rule-2", "queue-rule-3",
            "queue-rule-4",
        }

    def test_accumulates_across_rebuilds(self):
        # Polling after every op rebuilds the rules on each membership
        # change; the earlier rebuilds' work is kept.
        analyzer, _ = stream_reports(self._trace(), gc=False, poll_every=1)
        assert self._work(analyzer.profile) == {
            "atomicity": (6, 5, 1, 1),
            "queue-rule-1": (2, 1, 1, 1),
        }

    def test_accumulates_across_epochs(self):
        single, _ = stream_reports(self._trace(), gc=True)
        double, _ = stream_reports(
            concat_sessions(self._trace(), sessions=2), gc=True
        )
        assert double.profile.epochs_retired == 2 * single.profile.epochs_retired
        assert self._work(single.profile) == {
            "atomicity": (2, 2, 0, 0),
            "queue-rule-1": (2, 1, 1, 1),
        }
        assert self._work(double.profile) == {
            "atomicity": (4, 4, 0, 0),
            "queue-rule-1": (4, 2, 2, 2),
        }

    def test_merge_and_json_round_trip(self):
        import dataclasses
        import json

        from repro.stream import StreamProfile, merge_profiles

        analyzer, _ = stream_reports(self._trace(), gc=False)
        merged = merge_profiles([analyzer.profile, analyzer.profile])
        assert self._work(merged) == {
            "atomicity": (8, 6, 2, 2),
            "queue-rule-1": (4, 2, 2, 2),
        }
        doc = json.loads(json.dumps(dataclasses.asdict(merged)))
        assert StreamProfile.from_dict(doc) == merged

    def test_printed_by_the_profile(self):
        analyzer, _ = stream_reports(self._trace(), gc=False)
        rendered = analyzer.profile.format()
        assert (
            "rule atomicity: 4 members examined, 3 settled by popcount, "
            "1 pairs enumerated, 1 edges concluded"
        ) in rendered
        assert "rule queue-rule-2" not in rendered  # examined nothing


class TestStreamCLI:
    """`repro stream` and `repro stats --stream` end to end."""

    def _trace_file(self, tmp_path, name="session.trace.gz"):
        path = tmp_path / name
        save_trace_file(app_trace(), path, version=2)
        return path

    def test_stream_file(self, tmp_path, capsys):
        path = self._trace_file(tmp_path)
        assert main(["stream", str(path)]) == 0
        out = capsys.readouterr().out
        assert "epoch 0" in out
        assert "records ingested" in out

    def test_stats_stream(self, tmp_path, capsys):
        path = self._trace_file(tmp_path)
        assert main(["stats", str(path), "--stream"]) == 0
        out = capsys.readouterr().out
        assert "records ingested" in out
        assert "  rule atomicity: " in out  # the stream profile's line

    def test_stream_strict_rejects_truncation(self, tmp_path, capsys):
        text = dumps_trace(app_trace(), version=2)
        path = tmp_path / "crash.trace"
        path.write_text(text[: int(len(text) * 0.6)], encoding="utf-8")
        assert main(["stream", str(path)]) == 1
        err = capsys.readouterr().err
        assert "--salvage" in err

    def test_stream_salvage_analyzes_prefix(self, tmp_path, capsys):
        text = dumps_trace(app_trace(), version=2)
        path = tmp_path / "crash.trace.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fp:
            fp.write(text[: int(len(text) * 0.6)])
        assert main(["stream", str(path), "--salvage"]) == 0
        out = capsys.readouterr().out
        assert "records ingested" in out

    def test_stream_selftest(self, capsys):
        assert main(["stream", "--selftest", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "identical" in out
