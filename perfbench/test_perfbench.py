"""Tests of the benchmark itself: its correctness checks must fire when
one report goes missing, and its span arithmetic must add up.

    python3 -m pytest perfbench -q

The workloads run here at small scales so the suite takes seconds.
"""

import time

import pytest

from checks import join_expected, same_reports
from measure import growth_exponent, percentile
from tracing import Tracer
from workloads import DaemonTriage, OfflinePaper, OnlineLong


@pytest.fixture
def offline(tmp_path):
    workload = OfflinePaper()
    workload.scale = 0.05
    return workload, workload.setup(0, tmp_path)


@pytest.fixture
def online(tmp_path):
    workload = OnlineLong()
    workload.scale = 0.02
    return workload, workload.setup(0, tmp_path)


@pytest.fixture
def daemon(tmp_path):
    workload = DaemonTriage()
    workload.scale, workload.seeds_per_app = 0.01, 1
    return workload, workload.setup(0, tmp_path)


def test_offline_iteration_passes_against_ground_truth(offline):
    workload, inputs = offline
    it = workload.iterate(inputs)
    assert (it.attempted, it.failed) == (1, 0)
    assert len(it.feeds) == 1 and it.verdict_s > 0 and it.rss_kib > 0
    (f0, f1), = it.feeds
    assert f1 - f0 == pytest.approx(it.verdict_s)


def test_offline_check_fires_when_a_report_is_dropped(offline):
    workload, inputs = offline
    inputs.data["expected"] = inputs.data["expected"][1:]
    it = workload.iterate(inputs)
    assert it.failed == 1
    assert any("unmatched report" in p for p in it.problems["trace"])


def test_join_reports_missed_ground_truth(offline):
    workload, inputs = offline
    expected = inputs.data["expected"]
    from repro.detect import detect_use_free_races
    from repro.trace import load_trace_file

    reports = detect_use_free_races(load_trace_file(inputs.data["path"])).reports
    assert join_expected(reports, expected) == []
    problems = join_expected(reports[1:], expected)
    assert len(problems) == 1 and problems[0].startswith("missed expected race")


def test_online_check_fires_when_a_report_is_dropped(online):
    workload, inputs = online
    assert workload.iterate(inputs).failed == 0
    inputs.data["reference"] = inputs.data["reference"][:-1]
    it = workload.iterate(inputs)
    assert it.failed == 1
    assert it.problems["session"][0].startswith("unexpected report")


def test_same_reports_is_byte_exact():
    assert same_reports(["a", "b"], ["a", "b"]) == []
    assert same_reports(["a"], ["a", "b"]) == ["missing report b"]
    assert same_reports(["b", "a"], ["a", "b"]) == ["reports differ in order"]


def test_daemon_check_fires_when_one_session_loses_a_report(daemon):
    workload, inputs = daemon
    reference = inputs.data["reference"]
    it = workload.iterate(inputs)
    assert (it.attempted, it.failed) == (len(reference), 0)
    sid = next(s for s, reports in sorted(reference.items()) if reports)
    reference[sid] = reference[sid][1:]
    it = workload.iterate(inputs, shards=0)
    assert list(it.problems) == [sid]


def test_tracer_self_time_and_inclusive_nesting():
    tracer = Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with tracer.span("root", "bench") as root:
        with tracer.span("outer", "a"):
            busy(0.01)
            with tracer.span("outer", "a"):
                busy(0.01)
                with tracer.span("inner", "b"):
                    busy(0.02)
    with tracer.span("other", "a"):
        busy(0.01)
    self_times = tracer.self_times(root.index)
    total = sum(self_times.values())
    assert abs(total - root.seconds) < 1e-9
    assert self_times["b"] == pytest.approx(0.02, abs=0.005)
    assert self_times["a"] == pytest.approx(0.02, abs=0.005)
    # The nested "outer" is not counted twice; "other" is outside root.
    assert tracer.inclusive(["outer"], root.index) == pytest.approx(0.04, abs=0.005)
    assert tracer.inclusive(["other"], root.index) == 0.0
    doc = tracer.chrome_trace()
    assert [e["name"] for e in doc["traceEvents"]][:2] == ["root", "outer"]
    assert doc["traceEvents"][1]["args"]["parent"] == 0


def test_shims_record_and_restore():
    class Target:
        def work(self, x):
            return x + 1

    original = Target.work
    seen = []
    tracer = Tracer()
    tracer.shim(Target, "work", "target.work", "t", seen.append)
    try:
        assert Target().work(1) == 2
    finally:
        tracer.close()
    assert Target.work is original
    assert seen == [2] and [row[0] for row in tracer.spans] == ["target.work"]


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert percentile(values, 99) == 198 and sum(v > 198 for v in values) == 2
    assert percentile(list(range(1, 39)), 99) == 38  # 38 feeds: the slowest
    assert percentile([3.0, 1.0], 50) == 1.0
    assert percentile([5.0], 99) == 5.0


def test_end_to_end_drops_warm_up_and_reports_medians(monkeypatch):
    import run
    from workloads import Iteration

    class Meter:
        """The machine runs at half the reference speed throughout."""

        footprint_kib = 24

        def scale(self, t0, t1):
            return 0.5

        def stop(self):
            pass

    monkeypatch.setattr(run, "SpeedMeter", Meter)

    class Fake:
        name, units = "fake", 1
        verdicts = iter([100.0, 1.0, 3.0, 2.0])

        def iterate(self, inputs):
            verdict = next(self.verdicts)
            return Iteration(
                verdict_s=verdict, feeds=[(0.0, verdict / 2), (1.0, 1.0 + verdict)], rss_kib=1048,
                attempted=1, problems={}, detail={"big": object()},
            )

    units = {"verdict_s": "s", "feed_tail_ms": "ms", "peak_rss_mb": "MiB", "setup_s": "s"}
    result = run._end_to_end(Fake(), None, [0.5, 0.7, 0.6], 0.0, units)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 0, True)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # The 100 s warm-up is checked but not timed; the loop stops after
    # two timed iterations because its time is spent.  The meter's own
    # memory is left out of the peak.
    assert values == {"verdict_s": 1.0, "feed_tail_ms": 1000.0, "peak_rss_mb": 1.0, "setup_s": 0.6}


def test_speed_meter_scales_to_the_reference_probe():
    from measure import REFERENCE_PROBE_S, SpeedMeter

    meter = SpeedMeter(interval=0.001)
    assert meter.footprint_kib > 16 * 1024  # the table, tens of MiB
    t0 = time.perf_counter()
    time.sleep(0.05)
    t1 = time.perf_counter()
    meter.stop()
    assert not meter._thread.is_alive()
    probes = [c for t, c in meter._samples if t0 <= t <= t1]
    assert len(probes) > 1
    assert meter.scale(t0, t1) == pytest.approx(
        sum(REFERENCE_PROBE_S / c for c in probes) / len(probes)
    )
    # Outside every sample: the next probe, else the last one.
    first_t, first_c = meter._samples[0]
    assert meter.scale(first_t - 2, first_t - 1) == REFERENCE_PROBE_S / first_c
    last_t, last_c = meter._samples[-1]
    assert meter.scale(last_t + 1, last_t + 2) == REFERENCE_PROBE_S / last_c


def test_growth_exponent():
    assert growth_exponent((1, 2.0), (2, 8.0)) == pytest.approx(2.0)
