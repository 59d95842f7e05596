#!/usr/bin/env python3
"""Runs perfbench over several seeds and reports each metric's spread.

For every workload and seed it runs

    bash perfbench/run.sh --workload W --seed S --seconds N --trace T

from the repository root and reads the JSON result line. For each
end-to-end metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json. With --out it also
writes a record of every value, the medians of the per-layer metrics
(--trace-seeds) and a fingerprint of the host. It exits 1 if any
spread is above a third of its metric's bound:

    python3 perfbench/spread.py --seeds 1-10 --trace-seeds 1 \\
        --out perfbench/baseline.json
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOMAXPROCS = set()  # values the perfbench runs reported on standard error


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    took = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {res}")
    m = re.search(r"^perfbench: GOMAXPROCS=(\d+)$", proc.stderr, re.M)
    if m:
        GOMAXPROCS.add(int(m.group(1)))
    return res, took


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def fingerprint():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                           text=True).stdout.strip()
    if commit and dirty:
        commit += "-dirty"
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "go_version": go, "commit": commit or "unknown", "kernel": platform.release(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="", help="comma-separated; default all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="seeds of the end-to-end runs, e.g. 1-10 or 3,7")
    ap.add_argument("--trace-seeds", default="", help="seeds of traced runs (per-layer medians)")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", default="", help="write the record as JSON to this file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]

    record = {"host": fingerprint(), "run_seconds": seconds, "workloads": {}}
    ok = True
    for w in names:
        runs, took = [], []
        for s in seed_list(args.seeds):
            res, t = run_once(w, s, seconds, 0)
            runs.append(res)
            took.append(t)
            print(f"{w} seed {s}: {t:.1f}s " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
        entry = {"seeds": seed_list(args.seeds), "run_wall_s": took, "end_to_end": {}, "per_layer": {}}
        for k in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][k]["value"] for r in runs]
            summ = summarize(vals) if len(vals) >= 2 else {"median": vals[0], "values": vals}
            summ["unit"] = runs[0]["metrics"][k]["unit"]
            entry["end_to_end"][k] = summ
            if len(vals) >= 2:
                bound = bounds.get(k)
                flag = ""
                if bound is not None and summ["spread"] > bound / 3:
                    flag = "  <-- above bound/3"
                    ok = False
                print(f"  {k:16s} median={summ['median']:.6g} q1={summ['q1']:.6g} "
                      f"q3={summ['q3']:.6g} spread={summ['spread']:.4f} bound={bound}{flag}")
        trace_runs = [run_once(w, s, seconds, 1)[0] for s in seed_list(args.trace_seeds)]
        for k in sorted(trace_runs[0]["metrics"] if trace_runs else []):
            vals = [r["metrics"][k]["value"] for r in trace_runs]
            entry["per_layer"][k] = {"median": statistics.median(vals), "values": vals,
                                     "unit": trace_runs[0]["metrics"][k]["unit"]}
        record["workloads"][w] = entry
    record["host"]["gomaxprocs"] = sorted(GOMAXPROCS)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
