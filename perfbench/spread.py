#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--first-seed 1]
                                [--seed-step 1] [--traced] [--out FILE]
                                [--trajectory LABEL]

Runs ``perfbench/run.py`` ``--runs`` times on each workload, one run at
a time, with seeds ``--first-seed``, ``+ --seed-step``, ... (a step of
0 repeats one seed), and prints per metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  A spread
above a third of the metric's bound is marked.  ``--out`` writes every
run's values, inputs and wall time as JSON; ``--traced`` adds one
``--trace 1`` run per workload on the first seed; ``--trajectory`` appends
the summary to ``perfbench/trajectory.json`` under a label such as the
commit measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    found = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("inputs", "iterations"):
            found[key] = json.loads(rest)
    result = json.loads(lines[-1])
    return {"seed": seed, "wall_s": wall, **found, **result}


def stats(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seed-step", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true",
                        help="also make one --trace 1 run per workload, first seed")
    parser.add_argument("--out")
    parser.add_argument("--trajectory", metavar="LABEL")
    args = parser.parse_args(argv)
    doc = {"run_seconds": args.seconds, "workloads": {}}
    for name in args.workload or names:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k * args.seed_step
            runs.append(run(name, seed, args.seconds))
            last = runs[-1]
            print(
                f"{name} seed {seed}: {last['wall_s']:.1f}s wall, correct={last['correct']}, "
                + ", ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()),
                flush=True,
            )
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = summary[metric["name"]] = stats(values)
            flag = ""
            if s["spread"] > metric["bound"] / 3:
                flag = "  <-- above a third of the bound"
            print(
                f"  {metric['name']:13} median {s['median']:.4g} {metric['unit']} "
                f"[{s['q1']:.4g}, {s['q3']:.4g}] spread {s['spread']:.3f} "
                f"(bound {metric['bound']}){flag}"
            )
        doc["workloads"][name] = {"summary": summary, "runs": runs}
        if args.traced:
            traced = run(name, args.first_seed, args.seconds, trace=1)
            doc["workloads"][name]["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    if args.trajectory:
        append_trajectory(args.trajectory, doc)
    return 0


def _machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fp:
            model = next(l.split(":", 1)[1].strip() for l in fp if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{os.cpu_count()} CPUs, {model}, Python {platform.python_version()}"


def append_trajectory(label: str, doc: dict) -> None:
    path = HERE / "trajectory.json"
    history = json.loads(path.read_text()) if path.exists() else []
    entry = {"label": label, "machine": _machine(), "run_seconds": doc["run_seconds"], "workloads": {}}
    for name, data in doc["workloads"].items():
        runs = data["runs"]
        entry["workloads"][name] = {
            "seeds": [r["seed"] for r in runs],
            "inputs_first_seed": runs[0]["inputs"],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": data["summary"],
        }
        if "per_layer" in data:
            entry["workloads"][name]["per_layer_first_seed"] = data["per_layer"]
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
