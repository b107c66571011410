#!/usr/bin/env python3
"""Steadiness: run one workload N times and summarise every metric.

    python3 perfbench/steady.py --workload W [--runs 10] [--seconds 10]
        [--trace 0] [--first-seed 1] [--json OUT]
        [--checkout A --checkout B]

Each run gets its own seed (first-seed, first-seed + 1, ...). For every
metric it prints the median, the first and third quartile (Python's
`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median, and
the min and max. With two `--checkout` roots (two builds of the program,
each with this benchmark) every seed runs on both, alternating which goes
first, and the table adds the ratio of B's median to A's. Run from a
checkout root; with no `--checkout` it measures the current directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # The benchmark files of `root` itself, when it is another checkout.
    if os.path.abspath(root) != os.path.abspath(os.getcwd()):
        cmd[1] = os.path.join(root, "perfbench", "run.py")
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(cmd)} (exit {out.returncode}) in {root}")
    return json.loads(lines[-1])


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3, (q3 - q1) / med if med else float("nan"), min(values), max(values)


def table(title, runs):
    print(f"\n{title}: {len(runs)} runs")
    failed = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share per run: {failed}")
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'min':>12} {'max':>12}")
    meds = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if any(v is None for v in values):
            print(f"{name:<40} (missing in some runs)")
            continue
        med, q1, q3, spread, lo, hi = summary(values)
        meds[name] = med
        unit = runs[0]["metrics"][name]["unit"]
        print(f"{name + ' [' + unit + ']':<40} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{spread:>8.3f} {lo:>12.4f} {hi:>12.4f}")
    return meds


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--checkout", action="append", default=[])
    p.add_argument("--json", help="append every run's result line to this file")
    a = p.parse_args()
    roots = a.checkout or [os.getcwd()]
    if len(roots) > 2:
        sys.exit("at most two --checkout roots")
    results = {root: [] for root in roots}
    for i in range(a.runs):
        seed = a.first_seed + i
        order = roots if i % 2 == 0 else list(reversed(roots))
        for root in order:
            r = run_once(root, a.workload, seed, a.seconds, a.trace)
            results[root].append(r)
            print(f"run {i + 1}/{a.runs} seed {seed} {root}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                  file=sys.stderr)
            if a.json:
                with open(a.json, "a") as f:
                    f.write(json.dumps({"root": root, "workload": a.workload, "seed": seed,
                                        "result": r}) + "\n")
    meds = [table(f"{a.workload} @ {root}", results[root]) for root in roots]
    if len(roots) == 2:
        print(f"\nmedian ratio B/A ({roots[1]} / {roots[0]})")
        for name, ma in meds[0].items():
            mb = meds[1].get(name)
            if mb is not None and ma:
                print(f"{name:<40} {mb / ma:>8.3f}")


if __name__ == "__main__":
    main()
