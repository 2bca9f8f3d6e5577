#!/usr/bin/env python3
"""Check that the benchmark is steady on one commit.

Usage, from the root of the repository:

    python3 perfbench/steady.py --workload hw-steady --runs 5

It makes two sets of runs of the same commit, alternating between them (A,
B, A, B, ...), each run with a seed of its own: set A uses seeds 101, 102,
..., set B seeds 201, 202, .... For every end-to-end metric in
BENCHMARK.json it prints the median and quartiles of each set and of all
runs together, the spread (the distance between the quartiles as a share of
the median, as statistics.quantiles(values, n=4) gives them) and two
verdicts:

  spread  "steady" when the spread is below a third of the metric's bound,
          "within" when below the bound, "NOISY" otherwise (setup_s is
          exempt: one cold set-up per run is expected to vary);
  median  "ok" when set B's median is not worse than set A's by more than
          the bound, "WORSE" otherwise.

It also requires the share of failed operations to be the same in every run.
With --json FILE it writes every run's result there as well.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run {workload} seed {seed} failed (exit {done.returncode})")
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(name, spread, bound):
    if name == "setup_s":
        return "exempt"
    if spread < bound / 3:
        return "steady"
    return "within" if spread <= bound else "NOISY"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--json", help="write every run's result to this file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    sets = {"A": [], "B": []}
    for i in range(args.runs):
        for name, base in (("A", 101), ("B", 201)):
            res = run_once(args.workload, base + i, seconds)
            if not res["correct"]:
                raise SystemExit(f"set {name} seed {base + i}: output check failed")
            sets[name].append(res)
            vals = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics)
            print(f"set {name} seed {base + i}: {vals}", flush=True)

    shares = {r["failed"] / r["attempted"] for s in sets.values() for r in s}
    ok = len(shares) == 1
    print(f"\nfailed share: {sorted(shares)} ({'same in every run' if ok else 'DIFFERS'})")
    print(f"\n{'metric':16} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for m in metrics:
        name, bound, better = m["name"], m["bound"], m["better"]
        meds = {}
        for set_name, runs in (("A", sets["A"]), ("B", sets["B"]), ("all", sets["A"] + sets["B"])):
            med, q1, q3 = summary([r["metrics"][name]["value"] for r in runs])
            meds[set_name] = med
            spread = (q3 - q1) / med if med else float("inf")
            v = verdict(name, spread, bound)
            ok = ok and v != "NOISY"
            print(f"{name:16} {set_name:3} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.1%} {bound:6.0%}  {v}")
        a, b = meds["A"], meds["B"]
        worse = (b - a) / a if better == "lower" else (a - b) / a
        good = worse <= bound
        ok = ok and good
        print(f"{'':16} B vs A median {worse:+.1%} worse: {'ok' if good else 'WORSE'}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(sets, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
