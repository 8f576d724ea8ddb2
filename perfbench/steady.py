#!/usr/bin/env python3
"""Steadiness and paired-comparison runs for perfbench.

Steadiness: run one workload N times with seeds 1..N, as two sets of
runs of one commit are compared, and print per end-to-end metric the
median, the quartiles and the spread (Q3 - Q1) / median beside the
metric's bound from BENCHMARK.json:

    python3 perfbench/steady.py --workload weave-cold --runs 10

Each run's line shows the share of the machine's CPU time the host
stole during its timed phase; a run above STEAL_FLAG percent is marked
"disturbed". Marked runs stay in the figures: they are what a
comparison on this host meets.

Pairs: alternate runs of two checkouts of the repository (the parent
and the change), the same seed on both sides of a pair and the side that
runs first alternating, and print per metric each side's median and
quartiles, the change's wins out of the pairs, and whether the gain rule
holds (wins in at least nine tenths of the pairs, and a median gap
larger than the parent's own quartile spread):

    python3 perfbench/steady.py --workload weave-hot --runs 10 \\
        --parent ../parent-checkout --change .

Run from the root of a checkout. Every run lasts BENCHMARK.json's
run_seconds.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

STEAL_FLAG = 10.0


def bench_run(checkout, workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1200)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)} in {checkout} (exit {p.returncode})")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"run reported incorrect output: seed {seed} in {checkout}")
    m = re.search(r"perfbench: steal ([0-9.]+)%", p.stderr)
    steal = float(m.group(1)) if m else 0.0
    return res, steal


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def steal_note(steal):
    return f"steal {steal:.1f}%" + (" disturbed" if steal > STEAL_FLAG else "")


def steadiness(args, spec, seconds):
    values = {}
    shares = set()
    for seed in range(1, args.runs + 1):
        res, steal = bench_run(".", args.workload, seed, seconds)
        shares.add(f"{res['failed']}/{res['attempted']}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}" for n, m in sorted(res["metrics"].items()))
              + f" ({steal_note(steal)})", flush=True)
    print(f"\n{args.workload}: {args.runs} runs of {seconds}s, failed/attempted seen: {sorted(shares)}")
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}{'spread/bound':>14}")
    for name in sorted(values):
        q1, med, q3 = quartiles(values[name])
        spread = (q3 - q1) / med if med else float("inf")
        bound = spec[name]["bound"] if name in spec else float("nan")
        print(f"{name:<16}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}{bound:>7.2f}{spread / bound:>14.2f}")


def pairs(args, spec, seconds):
    sides = {"parent": args.parent, "change": args.change}
    values = {"parent": {}, "change": {}}
    for seed in range(1, args.runs + 1):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        notes = []
        for side in order:
            res, steal = bench_run(sides[side], args.workload, seed, seconds)
            notes.append(f"{side} {steal_note(steal)}")
            for name, m in res["metrics"].items():
                values[side].setdefault(name, []).append(m["value"])
        print(f"pair {seed}/{args.runs} (seed {seed}): {', '.join(notes)}", flush=True)
    print(f"\n{args.workload}: {args.runs} pairs of {seconds}s runs")
    print(f"{'metric':<16}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}{'wins':>7}{'gain':>6}")
    for name in sorted(values["parent"]):
        par, chg = values["parent"][name], values["change"][name]
        lower = spec.get(name, {}).get("better", "lower") == "lower"
        wins = sum(1 for p, c in zip(par, chg) if (c < p if lower else c > p))
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        gap = (pmed - cmed) if lower else (cmed - pmed)
        gain = wins >= 0.9 * len(par) and gap > (pq3 - pq1)
        fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
        print(f"{name:<16}{fmt((pq1, pmed, pq3)):>30}{fmt((cq1, cmed, cq3)):>30}"
              f"{wins:>4}/{len(par):<2}{'yes' if gain else 'no':>6}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs (steadiness) or pairs")
    ap.add_argument("--parent", help="parent checkout (pairs mode)")
    ap.add_argument("--change", help="change checkout (pairs mode)")
    args = ap.parse_args()
    spec, seconds = load_spec(".")
    if args.runs < 2:
        raise SystemExit("need at least 2 runs")
    if bool(args.parent) != bool(args.change):
        raise SystemExit("pairs mode needs both --parent and --change")
    if args.parent:
        pairs(args, spec, seconds)
    else:
        steadiness(args, spec, seconds)


if __name__ == "__main__":
    main()
