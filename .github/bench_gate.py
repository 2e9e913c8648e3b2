#!/usr/bin/env python3
"""Gate the fleet replay's performance on fleetbench's three workloads.

Run from anywhere in a checkout, with no arguments:

    python3 .github/bench_gate.py

Each workload runs through fleetbench/run.py at seed 1 for 4 seconds,
once untraced (--trace 0, the end-to-end metrics) and once traced
(--trace 1, the per-layer metrics). Every result, with the Go version,
commit and core count, goes to BENCH_fresh.json. The gated metrics are
then compared against the committed BENCH_fleet.json; the script exits
1 naming each workload and metric out of bounds, each run that failed
or reported failed replays, and each gated metric that is missing.
To refresh the baseline, copy BENCH_fresh.json over BENCH_fleet.json.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["week-steady", "hetero-flash", "regions-control"]
PASSES = {"untraced": "0", "traced": "1"}

# Each gated metric: the pass that reports it and the bound on
# fresh / baseline. Allocations repeat within a few percent at a fixed
# seed, so they gate tightly; throughput moves with the runner's
# hardware, so its bound catches gross regressions only.
GATES = {
    "replay_qps": ("untraced", "min", 0.5),
    "alloc_bytes_per_query": ("untraced", "max", 1.10),
    "runtime.allocs_per_interval": ("traced", "max", 1.10),
}


def output(*cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(workload, trace):
    """One fleetbench run: its JSON result, or None if it printed none."""
    cmd = [sys.executable, "fleetbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "4", "--trace", trace]
    print("$", " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def value(report, workload, name, metric):
    res = report.get("workloads", {}).get(workload, {}).get(name) or {}
    return res.get("metrics", {}).get(metric, {}).get("value")


def check(base, fresh):
    """Every regression of fresh against base, one line each."""
    problems = []
    for w in WORKLOADS:
        for name in PASSES:
            res = fresh["workloads"][w][name]
            if res is None:
                problems.append(f"{w} {name}: run failed, no result")
            elif not res.get("correct") or res.get("failed", 0) > 0:
                problems.append(f"{w} {name}: correct {res.get('correct')}, "
                                f"{res.get('failed')} of {res.get('attempted')} replays failed")
        for metric, (name, kind, bound) in GATES.items():
            old, new = value(base, w, name, metric), value(fresh, w, name, metric)
            if not old or new is None:
                where = "fresh run" if old else "baseline"
                problems.append(f"{w} {metric}: missing from the {where}")
                continue
            ratio = new / old
            ok = ratio >= bound if kind == "min" else ratio <= bound
            print(f"{w:16} {metric:28} {old:14.6g} -> {new:14.6g}  "
                  f"x{ratio:.3f} ({kind} x{bound})  {'ok' if ok else 'REGRESSED'}")
            if not ok:
                problems.append(f"{w} {metric}: {new:.6g} is x{ratio:.3f} of the "
                                f"baseline {old:.6g}, bound {kind} x{bound}")
    return problems


def main():
    fresh = {
        "go_version": output("go", "env", "GOVERSION"),
        "commit": output("git", "rev-parse", "HEAD"),
        "cpus": os.cpu_count(),
        "command": "python3 fleetbench/run.py --workload W --seed 1 --seconds 4 --trace {0,1}",
        "workloads": {w: {name: run(w, t) for name, t in PASSES.items()} for w in WORKLOADS},
    }
    with open(os.path.join(ROOT, "BENCH_fresh.json"), "w") as f:
        json.dump(fresh, f, indent=2, sort_keys=True)
        f.write("\n")
    try:
        with open(os.path.join(ROOT, "BENCH_fleet.json")) as f:
            base = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench-gate: cannot read the baseline: {err}", file=sys.stderr)
        return 1
    problems = check(base, fresh)
    for p in problems:
        print("bench-gate: REGRESSION:", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
