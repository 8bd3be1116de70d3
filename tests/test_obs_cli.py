"""CLI surface of the telemetry layer: `repro stats --json` /
`--trace-out`, and the `repro top` renderer."""

import json

import pytest

from repro.cli import _render_status, main
from repro.obs import STATS_SCHEMA
from repro.obs.export import MetricsServer
from repro.obs.metrics import Histogram, MetricsSnapshot


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs_cli") / "trace.jsonl"
    assert main([
        "record", "connectbot", "-o", str(path), "--scale", "0.02",
    ]) == 0
    return str(path)


class TestStatsJson:
    def test_document_covers_every_section(self, trace_path, capsys):
        assert main(["stats", trace_path, "--stream", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == STATS_SCHEMA
        for section in ("trace", "decode", "build", "query", "stream",
                        "sparse"):
            assert section in doc
        # Sections actually computed are present; --sparse was not.
        assert doc["trace"]["ops"] > 0
        assert doc["decode"]["records"] > 0
        assert doc["build"]["key_nodes"] > 0
        assert doc["query"]["queries"] > 0
        assert doc["stream"]["ops_ingested"] == doc["trace"]["ops"]
        assert doc["stream"]["rule_work"]["atomicity"]["members_examined"] > 0
        assert doc["sparse"] is None

    def test_stable_build_keys(self, trace_path, capsys):
        assert main(["stats", trace_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {
            "key_nodes", "edges", "rule_counts", "fixpoint_iterations",
            "derived_edges", "events", "loopers", "threads",
            "closure_recomputations", "bits_propagated",
            "edges_per_round", "profile",
        } <= set(doc["build"])
        assert doc["stream"] is None

    def test_json_output_is_the_only_stdout(self, trace_path, capsys):
        assert main(["stats", trace_path, "--json"]) == 0
        out = capsys.readouterr().out
        json.loads(out)  # the whole stdout parses as one document


class TestStatsSampled:
    def test_builds_the_relation_once(self, trace_path, capsys, monkeypatch):
        """The sampled confirm pass reuses the relation ``repro stats``
        already built, and the query counters stay the detector's."""
        import repro.detect.sampling
        import repro.hb

        assert main(["stats", trace_path, "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)

        real = repro.hb.build_happens_before
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.hb, "build_happens_before", counting)
        monkeypatch.setattr(
            repro.detect.sampling, "build_happens_before", counting
        )
        assert main(["stats", trace_path, "--sampled", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sampling"]["hb_built"] == 1  # the confirm pass ran
        assert doc["sampling"]["pairs_queried"] > 0
        assert len(calls) == 1
        assert doc["query"] == plain["query"]


class TestStatsTraceOut:
    def test_writes_a_chrome_trace(self, trace_path, tmp_path, capsys):
        spans_path = tmp_path / "spans.json"
        assert main([
            "stats", trace_path, "--stream", "--trace-out", str(spans_path),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(spans_path.read_text())
        names = {event["name"] for event in doc["traceEvents"]}
        assert {"trace.decode", "hb.scan", "hb.base_edges", "hb.closure",
                "hb.fixpoint", "detect.usefree", "stream.detect"} <= names
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0

    def test_tracing_does_not_leak_into_later_runs(self, trace_path,
                                                   tmp_path, capsys):
        from repro.obs import disable_tracing

        assert main([
            "stats", trace_path, "--trace-out", str(tmp_path / "s.json"),
        ]) == 0
        capsys.readouterr()
        # The CLI leaves a recorder installed only for its own run; the
        # test harness resets it so later tests pay the no-op path.
        disable_tracing()


class TestTopRenderer:
    def _doc(self):
        snap = MetricsSnapshot()
        snap.counter("repro_router_frames_total", 100.0)
        snap.counter("repro_router_bytes_total", 5000.0)
        snap.counter("repro_router_sessions_total", 3.0)
        snap.gauge("repro_router_shards", 2.0)
        for shard in ("0", "1"):
            labels = {"shard": shard}
            snap.gauge("repro_shard_sessions_active", 1.0, labels=labels)
            snap.counter("repro_shard_sessions_finished_total", 2.0,
                         labels=labels)
            snap.counter("repro_shard_sessions_failed_total", 0.0,
                         labels=labels)
            snap.counter("repro_shard_ops_ingested_total", 500.0,
                         labels=labels)
            snap.counter("repro_shard_frames_handled_total", 50.0,
                         labels=labels)
            snap.gauge("repro_shard_queue_depth", 3.0, labels=labels)
            snap.gauge("repro_shard_queue_bound", 256.0, labels=labels)
        hist = Histogram()
        hist.observe(0.002)
        hist.observe(0.004)
        snap.histogram("repro_feed_latency_seconds", hist.data())
        return snap.as_dict()

    def test_renders_overview_shards_and_latency(self):
        text = _render_status(self._doc(), None, 0.0)
        assert "sessions routed 3" in text
        assert "active 2" in text
        assert "feed-to-detect latency" in text
        assert "p95" in text
        # one row per shard with its queue depth/bound
        assert "3/256" in text
        assert text.count("3/256") == 2

    def test_rates_between_two_scrapes(self):
        first = self._doc()
        second = json.loads(json.dumps(first))
        second["counters"]["repro_router_frames_total"] = 300.0
        text = _render_status(second, first, 2.0)
        assert "100/s" in text  # (300-100)/2

    def test_rates_dash_without_a_previous_scrape(self):
        assert "(-)" in _render_status(self._doc(), None, 0.0)


class TestTopCommand:
    def test_once_against_a_live_endpoint(self, capsys):
        snap = MetricsSnapshot()
        snap.counter("repro_router_frames_total", 10.0)
        snap.gauge("repro_router_shards", 1.0)
        server = MetricsServer(lambda: snap)
        try:
            host = f"127.0.0.1:{server.port}"
            assert main(["top", host, "--once"]) == 0
        finally:
            server.stop()
        out = capsys.readouterr().out
        assert "repro daemon status" in out
        assert "frames 10" in out

    def test_once_against_a_status_socket(self, tmp_path, capsys):
        from repro.obs.export import StatusSocketServer

        snap = MetricsSnapshot()
        snap.counter("repro_router_sessions_total", 4.0)
        path = str(tmp_path / "status.sock")
        server = StatusSocketServer(lambda: snap, path)
        try:
            assert main(["top", "--status-socket", path, "--once"]) == 0
        finally:
            server.stop()
        assert "sessions routed 4" in capsys.readouterr().out

    def test_requires_exactly_one_endpoint(self, capsys):
        assert main(["top"]) == 2
        assert main(["top", "host:1", "--status-socket", "x"]) == 2
        capsys.readouterr()

    def test_unreachable_daemon_fails_cleanly(self, capsys):
        assert main(["top", "127.0.0.1:1", "--once"]) == 1
        assert "cannot reach" in capsys.readouterr().err
