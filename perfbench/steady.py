#!/usr/bin/env python3
"""Steadiness and A/B runner for the krcore benchmark.

One build (run from the repository root):

    python3 perfbench/steady.py --workload enum-grid --runs 10

runs the workload --runs times with seeds --seed-base, --seed-base + 1, ...
and prints, per end-to-end metric, the median, the first and third quartile
(Python's statistics.quantiles, n=4), the spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json. A spread above a third of its bound is
flagged; setup_s is reported but not held to its bound.

Two builds:

    python3 perfbench/steady.py --workload max-grid --runs 10 \\
        --compare PARENT_CHECKOUT CHANGE_CHECKOUT

runs --runs pairs, seed i on both sides, alternating which side runs first,
and prints each side's median and quartiles, the pairs the change wins (ties
count for neither), and a verdict per metric: "gain" when the change wins at
least nine tenths of the pairs and the medians differ by more than the
parent's own quartile spread, "regression" when the change's median is worse
than the parent's by more than the bound, else "no claim". Confirm a claim on
the confirmation seeds (--seed-base 1001), which no change should be tuned on.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIRM_SEED_BASE = 1001


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed):
    """Runs the benchmark command in `root`; returns the result object."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: seed {seed} failed with status {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{root}: seed {seed} reported incorrect results")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args, spec):
    root = os.path.dirname(HERE)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(args.runs):
        result = run_once(root, spec, args.workload, args.seed_base + i)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"run {i + 1}/{args.runs} seed {args.seed_base + i}: " +
              ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              flush=True)
    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    steady = True
    for m in spec["end_to_end"]:
        q1, median, q3 = quartiles(values[m["name"]])
        spread = (q3 - q1) / median if median else float("inf")
        flag = ""
        if m["name"] != "setup_s" and spread > m["bound"] / 3:
            flag = "  > bound/3"
            steady = False
        print(f"{m['name']:<16} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {m['bound']:>6}{flag}")
    return 0 if steady else 1


def compare(args, spec):
    parent, change = args.compare
    values = {side: {m["name"]: [] for m in spec["end_to_end"]}
              for side in (parent, change)}
    for i in range(args.runs):
        seed = args.seed_base + i
        order = (parent, change) if i % 2 == 0 else (change, parent)
        for side in order:
            result = run_once(side, spec, args.workload, seed)
            for name, vals in values[side].items():
                vals.append(result["metrics"][name]["value"])
        print(f"pair {i + 1}/{args.runs} seed {seed} done", flush=True)
    print(f"\n{args.workload}: {args.runs} pairs, parent={parent} "
          f"change={change}")
    print(f"{'metric':<16} {'parent med':>11} {'[q1, q3]':>23} "
          f"{'change med':>11} {'[q1, q3]':>23} {'wins':>6}  verdict")
    for m in spec["end_to_end"]:
        a, b = values[parent][m["name"]], values[change][m["name"]]
        lower = m["better"] == "lower"
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        aq1, amed, aq3 = quartiles(a)
        bq1, bmed, bq3 = quartiles(b)
        worse = (bmed - amed) if lower else (amed - bmed)
        verdict = "no claim"
        if wins >= 0.9 * len(a) and -worse > aq3 - aq1:
            verdict = "gain"
        elif amed and worse / amed > m["bound"]:
            verdict = "regression"
        print(f"{m['name']:<16} {amed:>11.5g} [{aq1:>10.5g}, {aq3:>10.5g}] "
              f"{bmed:>11.5g} [{bq1:>10.5g}, {bq3:>10.5g}] "
              f"{wins:>3}/{len(a):<2}  {verdict}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1,
                        help=f"first seed; {CONFIRM_SEED_BASE} for the "
                             f"confirmation seeds")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="two checkouts to run against each other")
    args = parser.parse_args()
    spec = load_spec(os.path.dirname(HERE))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"unknown workload {args.workload}")
    return compare(args, spec) if args.compare else steadiness(args, spec)


if __name__ == "__main__":
    sys.exit(main())
