#!/usr/bin/env python3
"""Run one benchmark workload, check its outputs, and print its metrics.

    python3 perfbench/run.py --workload offline-paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run it from the repository root; it imports the program from ``src/``.
A run sets up its inputs from ``--seed`` three to nine times, for about
five seconds, in a child process it waits for (``setup_s`` is the
median); no process outlives a run.  Then it analyses them in a closed
loop for about ``--seconds``: a warm-up iteration, at least two timed
ones, and another only while it is expected to end in time.  Every
iteration's reports are checked; each metric is the median over the
timed iterations.

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones, from
a traced pass that also writes its spans as Chrome ``trace_event`` JSON
to ``perfbench/out/``.  The last line of standard output is always one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people.  ``--all`` runs every
workload in its own process and prints one table, ``failed_ratio``
(``failed / attempted``) included.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from measure import FEED_PERCENTILE, SpeedMeter, percentile, summary
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: set-ups per run: at least the minimum, and more until the time is
#: spent or the maximum is reached; ``setup_s`` is their median
SETUP_REPEATS = (3, 9)
SETUP_SECONDS = 5.0
#: timed iterations per run, whatever ``--seconds`` says, after the
#: warm-up
MIN_ITERATIONS = 2


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return json.load(fp)


def _import_program() -> None:
    """Put ``src/`` first on the path; refuse to run without it, so a
    stray installed copy of the program is never measured instead."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _set_up_all(name: str, seed: int):
    """Every set-up of a run, in a child process so that what set-up
    leaves behind does not count in the analysing process's memory.
    Returns the inputs, the set-up times at reference speed and the
    per-layer phase medians."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    times, scaled, records, encodes = [], [], [], []
    inputs = None
    least, most = SETUP_REPEATS
    meter = SpeedMeter()
    try:
        while len(times) < least or (len(times) < most and sum(times) < SETUP_SECONDS):
            gc.collect()
            t0 = time.perf_counter()
            got = workload.setup(seed, OUT)
            t1 = time.perf_counter()
            times.append(t1 - t0)
            scaled.append((t1 - t0) * meter.scale(t0, t1))
            records.append(got.phases["record"])
            encodes.append(got.phases["encode"])
            if inputs is None:
                inputs = got
            elif got.digest != inputs.digest:
                raise RuntimeError(f"{name}: set-up is not deterministic")
    finally:
        meter.stop()
    phases = {"apps.record_s": median(records), "trace.encode_s": median(encodes)}
    return inputs, scaled, phases


def _set_up(name: str, seed: int):
    """:func:`_set_up_all` in a child ``run.py --set-up``, which hands
    its result over through a pickle file under ``perfbench/out/``."""
    path = OUT / f"setup-{name}-seed{seed}.pickle"
    path.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__)), "--set-up", name, "--seed", str(seed)]
    subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    with open(path, "rb") as fp:
        got = pickle.load(fp)
    path.unlink()
    return got


def set_up_child(name: str, seed: int) -> None:
    _import_program()
    got = _set_up_all(name, seed)
    with open(OUT / f"setup-{name}-seed{seed}.pickle", "wb") as fp:
        pickle.dump(got, fp)


def _iterate(workload, inputs, seconds: float):
    """Closed-loop iterations for about ``seconds``, the first of them a
    warm-up whose timings are dropped; a raising iteration counts every
    trace or session it held as failed.  Returns the checked iterations
    (warm-up included), the timed ones, and how many raised."""
    done, timed, raised = [], [], 0
    meter = SpeedMeter()
    start = time.perf_counter()
    try:
        while True:
            gc.collect()
            t0 = time.perf_counter()
            try:
                it = workload.iterate(inputs)
            except Exception:
                traceback.print_exc()
                raised += 1
            else:
                it.speed_scale = meter.scale(t0, time.perf_counter())
                it.rss_kib -= meter.footprint_kib
                # Each feed at the speed of its own moment.
                feeds = [(f1 - f0) * meter.scale(f0, f1) for f0, f1 in it.feeds]
                it.feed_tail_s = percentile(feeds, FEED_PERCENTILE)
                # Keep the figures, not what the pass built, so that the
                # process does not grow from one iteration to the next.
                it.feeds, it.detail = [], {}
                done.append(it)
                if len(done) + raised > 1:
                    timed.append(it)
            count = len(done) + raised
            elapsed = time.perf_counter() - start
            if count > MIN_ITERATIONS and elapsed * (count + 1) / count > seconds:
                return done, timed, raised
    finally:
        meter.stop()


def _report(iterations, raised: int, units: int) -> dict:
    attempted = sum(it.attempted for it in iterations) + raised * units
    failed = sum(it.failed for it in iterations) + raised * units
    for it in iterations:
        for unit, problems in it.problems.items():
            for problem in problems:
                print(f"FAILED {unit}: {problem}")
    return {"correct": failed == 0 and bool(iterations), "attempted": attempted, "failed": failed}


def _end_to_end(workload, inputs, setup_times, seconds: float, units: dict) -> dict:
    checked, iterations, raised = _iterate(workload, inputs, seconds)
    result = _report(checked, raised, workload.units)
    if not iterations:
        sys.exit(f"perfbench: every timed {workload.name} iteration raised")
    walls = [it.verdict_s for it in iterations]
    verdicts = [it.verdict_s * it.speed_scale for it in iterations]
    tails = [it.feed_tail_s * 1000 for it in iterations]
    rss = [it.rss_kib / 1024 for it in iterations]
    values = {
        "verdict_s": median(verdicts),
        "feed_tail_ms": median(tails),
        "peak_rss_mb": median(rss),
        "setup_s": median(setup_times),
    }
    print("iterations " + json.dumps(
        {"verdict_s": verdicts, "wall_s": walls, "feed_tail_ms": tails, "peak_rss_mb": rss}
    ))
    print(f"verdict_s     {summary(verdicts)} iterations, at reference speed")
    print(f"wall_s        {summary(walls)} iterations, as measured")
    print(f"feed_tail_ms  {summary(tails)} iterations, p{FEED_PERCENTILE} of each")
    print(f"peak_rss_mb   {summary(rss)} iterations")
    print(f"setup_s       {summary(setup_times)} set-ups")
    print(f"failed_ratio  {result['failed']}/{result['attempted']}")
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in values.items()
    }
    return result


def _per_layer(workload, inputs, seed: int, phases: dict, units: dict) -> dict:
    tracer = Tracer()
    values, iterations = workload.traced(inputs, tracer, seed)
    values.update(phases)
    result = _report(iterations, 0, workload.units)
    unknown = values.keys() - units.keys()
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.dump(str(path))
    print(f"spans         {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    for name in sorted(units):
        print(f"{name:32} {values.get(name, 0):.6g} {units[name]}")
    result["metrics"] = {
        name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()
    }
    return result


def run_one(args, spec: dict) -> dict:
    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    # One CPU for the run, its set-up child and its shard worker, so that
    # the speed meter times the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    inputs, setup_times, phases = _set_up(workload.name, args.seed)
    print(
        f"{workload.name} seed {args.seed}: {inputs.ops} ops, {inputs.events} events, "
        f"{inputs.size} bytes"
    )
    print("inputs " + json.dumps({"ops": inputs.ops, "events": inputs.events, "bytes": inputs.size}))
    try:
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            return _per_layer(workload, inputs, args.seed, phases, units)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        return _end_to_end(workload, inputs, setup_times, args.seconds, units)
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, then one table."""
    results = {}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [
            sys.executable, str(Path(__file__)), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
    names = list(results)
    print(f"{'metric':14} {'unit':6} " + " ".join(f"{n:>14}" for n in names))
    for metric in spec["end_to_end"]:
        row = [results[n]["metrics"][metric["name"]]["value"] for n in names]
        print(f"{metric['name']:14} {metric['unit']:6} " + " ".join(f"{v:>14.4f}" for v in row))
    ratios = [results[n]["failed"] / results[n]["attempted"] for n in names]
    print(f"{'failed_ratio':14} {'1':6} " + " ".join(f"{r:>14.4f}" for r in ratios))
    return 0 if all(results[n]["correct"] for n in names) else 1


def main(argv=None) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set-up", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.set_up:
        set_up_child(args.set_up, args.seed)
        return 0
    if args.all:
        return run_all(args, spec)
    if args.workload is None:
        parser.error("--workload or --all is required")
    result = run_one(args, spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
