#!/usr/bin/env python3
"""Interleaved-pair comparison of two source trees on the repository benchmark.

    python3 scripts/bench_pairs.py OLD_TREE NEW_TREE --workload list-read \\
        --seconds 30 --first-seed 401 --pairs 10 [--trace 0]

Pair i runs `perfbench/run.py` once in each tree with seed first-seed + i,
OLD first on even pairs and NEW first on odd ones, so a drift of the host
over time falls on both sides alike.  Each tree builds its own benchmark
(run.py builds from the tree that holds it); run.py itself is not changed.

For every metric both trees report, one line gives each side's median and
quartiles ([q1, q3], from statistics.quantiles with n=4), the range and
median of the per-pair ratios NEW/OLD, and in how many pairs NEW was better,
in the direction BENCHMARK.json gives for the metric ("?" when it gives
none).  A run that fails, times out or reports an incorrect result stops
the script with exit status 1.  Progress goes to stderr, the table to
stdout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def directions():
    """Metric name -> "higher" or "lower", from this tree's BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {
        m["name"]: m["better"]
        for key in ("end_to_end", "per_layer")
        for m in spec.get(key, [])
    }


def run_once(tree, args, seed):
    cmd = [
        sys.executable, os.path.join(tree, "perfbench", "run.py"),
        "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("bench_pairs: %s failed (exit %d) at seed %d"
                 % (tree, proc.returncode, seed))
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2]) if len(lines) > 1 else {}
    if not result.get("correct", False):
        sys.exit("bench_pairs: %s reported an incorrect result at seed %d"
                 % (tree, seed))
    return provenance.get("provenance", {}), result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def ratio(a, b):
    if a:
        return b / a
    return 1.0 if b == 0 else float("inf")


def fmt(x):
    return "%.0f" % x if abs(x) >= 10000 else "%.4g" % x


def side(values):
    q1, med, q3 = quartiles(values)
    return "%s [%s, %s]" % (fmt(med), fmt(q1), fmt(q3))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="baseline source tree")
    ap.add_argument("new", help="changed source tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = {"old": os.path.abspath(args.old), "new": os.path.abspath(args.new)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            ap.error("no perfbench/run.py under %s" % tree)

    runs = {"old": [], "new": []}
    revs = {}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        for name in order:
            print("bench_pairs: pair %d/%d seed %d %s"
                  % (i + 1, args.pairs, seed, name), file=sys.stderr)
            provenance, result = run_once(trees[name], args, seed)
            revs[name] = provenance.get("rev", "unknown")[:12]
            runs[name].append(result)

    print("workload %s, %d s, trace %d, %d pairs, seeds %d..%d"
          % (args.workload, args.seconds, args.trace, args.pairs,
             args.first_seed, args.first_seed + args.pairs - 1))
    print("old %s, new %s; ratios are new/old" % (revs["old"], revs["new"]))
    for name in ("old", "new"):
        attempted = sum(r.get("attempted", 0) for r in runs[name])
        failed = sum(r.get("failed", 0) for r in runs[name])
        print("%s: %d operations attempted, %d failed" % (name, attempted, failed))
    better = directions()
    names = [m for m in runs["old"][0]["metrics"] if m in runs["new"][0]["metrics"]]
    width = max(len(m) for m in names)
    for m in names:
        old = [r["metrics"][m]["value"] for r in runs["old"]]
        new = [r["metrics"][m]["value"] for r in runs["new"]]
        ratios = [ratio(a, b) for a, b in zip(old, new)]
        direction = better.get(m)
        if direction is None:
            wins = "?"
        else:
            sign = 1 if direction == "higher" else -1
            wins = str(sum(1 for a, b in zip(old, new) if sign * (b - a) > 0))
        print("%-*s  old %s  new %s  ratio %.3f..%.3f median %.3f  new better %s/%d"
              % (width, m, side(old), side(new), min(ratios), max(ratios),
                 statistics.median(ratios), wins, args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
