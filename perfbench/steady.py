#!/usr/bin/env python3
"""Steadiness runner for the repository benchmark.

Runs every workload of BENCHMARK.json several times, each with another seed,
and prints each metric's median, quartiles and quartile spread (q3 - q1 as a
share of the median) next to the bound BENCHMARK.json allows.  Run it from
the root of the repository:

    python3 perfbench/steady.py                      # 10 seeds per workload
    python3 perfbench/steady.py --runs 5 --workloads matrix
    python3 perfbench/steady.py --trace              # also traced runs: overhead

With --trace, every seed is also run traced, and the report adds the
per-layer medians and the tracing overhead (traced minus untraced median) of
each end-to-end metric.  Every result line is appended to
.bench_out/steady.jsonl as {"workload", "seed", "trace", "result"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: the correctness gate failed")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(bench, workload, untraced, traced):
    print(f"\n== {workload}: {len(untraced)} untraced run(s)")
    print(f"  {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    worst = True
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in untraced]
        if len(values) < 2:
            print(f"  {name:<24} {values[0]:>12.4f}")
            continue
        q1, med, q3 = spread(values)
        share = (q3 - q1) / med if med else float("inf")
        bound = metric["bound"]
        if share < bound / 3:
            verdict = "steady"
        elif share < bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
            worst = False
        print(f"  {name:<24} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {share:>8.3f} {bound:>6.2f}  {verdict}")
    if traced:
        print(f"  tracing overhead over {len(traced)} traced run(s) (traced - untraced median):")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = statistics.median(r["metrics"][name]["value"] for r in untraced)
            with_trace = statistics.median(r["metrics"]["traced." + name]["value"] for r in traced)
            print(f"    {name:<24} {with_trace - base:>+12.4f} {metric['unit']}")
        print("  per-layer medians (traced):")
        for metric in bench["per_layer"]:
            name = metric["name"]
            if name.startswith("traced."):
                continue
            med = statistics.median(r["metrics"][name]["value"] for r in traced)
            print(f"    {name:<40} {med:>14.4f} {metric['unit']}")
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    rows = {n: ([], []) for n in names}
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "steady.jsonl"), "a") as log:
        for name in names:
            for i in range(args.runs):
                seed = args.first_seed + i
                for trace in ([False, True] if args.trace else [False]):
                    result = run_once(bench, name, seed, trace)
                    rows[name][1 if trace else 0].append(result)
                    log.write(json.dumps({"workload": name, "seed": seed,
                                          "trace": trace, "result": result}) + "\n")
                    log.flush()
    ok = all([report(bench, n, *rows[n]) for n in names if rows[n][0]])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
