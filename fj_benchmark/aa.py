#!/usr/bin/env python3
"""A/A calibration: run the whole benchmark N times, twice over, on the same
code, and print for every end-to-end metric of every workload the two set
medians, how far apart they are, the spread of each set and the bound.

    python3 fj_benchmark/aa.py [--runs 5] [--bin PATH] > fj_benchmark/AA_BASELINE.md

Run from the repository root. Spread is the driver's: the distance between
the first and third quartile (statistics.quantiles, n=4) over the median.
Set A uses seeds 1..N, set B seeds 101..100+N. --bin runs a built binary in
place of the command of BENCHMARK.json (which builds first); --raw keeps
every run's values.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {out}")
    return {k: v["value"] for k, v in result["metrics"].items()}, time.time() - started


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--bin")
    parser.add_argument("--raw", help="also write every run's metrics to this JSON file")
    parser.add_argument("--workload", action="append", help="only this workload (repeatable)")
    args = parser.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    command = [args.bin] if args.bin else spec["command"]
    seconds = spec["run_seconds"]
    sets = {"A": range(1, args.runs + 1), "B": range(101, 101 + args.runs)}

    print(f"# A/A baseline: {args.runs} runs a set, {seconds} s timed phase\n")
    print("`worse` is how much worse set B's median is than set A's, as a share of A's")
    print("(negative: better). `ok` needs worse ≤ bound and both spreads ≤ bound")
    print("(`setup_s` is exempt from the spread rule).\n")
    worst = {}
    raw = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: {} for name in sets}
        wall = []
        for name, seeds in sets.items():
            for seed in seeds:
                metrics, took = run_once(command, workload, seed, seconds)
                wall.append(took)
                for metric, value in metrics.items():
                    values[name].setdefault(metric, []).append(value)
        raw[workload] = values
        print(f"## {workload} (median run {statistics.median(wall):.1f} s wall)\n")
        print("| metric | unit | median A | median B | worse | spread A | spread B | bound | ok |")
        print("|---|---|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            a, b = values["A"][m["name"]], values["B"][m["name"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (med_b - med_a) / med_a
            spreads = (spread(a), spread(b))
            ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(spreads) <= m["bound"])
            worst[m["name"]] = max(worst.get(m["name"], 0), abs(worse), *spreads)
            print(f"| {m['name']} | {m['unit']} | {med_a:.6g} | {med_b:.6g} | {worse:+.4f} "
                  f"| {spreads[0]:.4f} | {spreads[1]:.4f} | {m['bound']} | {'yes' if ok else 'NO'} |")
        print()
        sys.stdout.flush()
    print("## Worst case per metric over the workloads run\n")
    print("| metric | max(|worse|, spreads) | bound |")
    print("|---|---|---|")
    for m in spec["end_to_end"]:
        print(f"| {m['name']} | {worst[m['name']]:.4f} | {m['bound']} |")
    if args.raw:
        json.dump(raw, open(args.raw, "w"), indent=1)


if __name__ == "__main__":
    main()
