#!/usr/bin/env python3
"""A/B comparison of this working tree against a git revision on perfbench.

    scripts/perf_ab.py <rev> [--pairs N]

Extracts <rev> into a temporary directory (git archive) so that each side
builds its own perfbench binary, then runs the two sides on every
BENCHMARK.json workload in N interleaved pairs (default 10), alternating
which side goes first. Each run lasts BENCHMARK.json's run_seconds. For
every end-to-end metric and workload it prints both sides' median and
quartiles, the relative change of the median, how many pairs the working
tree won, and a verdict:

  gain          won >= 9/10 of the pairs and the medians differ by more
                than the interquartile range of <rev>'s runs
  REGRESSION    the median is worse than <rev>'s by more than the metric's
                BENCHMARK.json bound
  unresolved    the run-to-run spread (interquartile range over the
                median, either side) is wider than the bound, and not
                every run of the working tree beats every run of <rev>
  within bound  none of the above

Exit status: 0 with no REGRESSION, 1 with one, 2 when a side could not
build or run or a run failed its correctness checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def die(msg):
    print(f"perf-ab: {msg}", file=sys.stderr)
    sys.exit(2)


def run_side(root, workload, seconds):
    """One perfbench run of one side; returns its end-to-end metrics."""
    env = dict(os.environ)
    # run.py builds under $CARGO_TARGET_DIR when set: unset, each side
    # builds in its own tree instead of both sharing one binary.
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seconds", str(seconds)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"{root}: {workload} gave no result line (exit {proc.returncode})")
    if not result.get("correct"):
        die(f"{root}: {workload} failed a correctness check")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(metric, base, change):
    """The table row for one metric of one workload."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    better = (lambda c, b: c < b) if lower else (lambda c, b: c > b)
    won = sum(better(c, b) for b, c in zip(base, change))
    scale = abs(bm) if bm else 1.0
    worse_by = ((cm - bm) if lower else (bm - cm)) / scale
    spread = max(b3 - b1, c3 - c1) / scale
    if better(cm, bm) and won >= 0.9 * len(base) and abs(cm - bm) > b3 - b1:
        word = "gain"
    elif spread > bound and not better(max(change) if lower else min(change),
                                       min(base) if lower else max(base)):
        word = "unresolved"
    elif worse_by > bound:
        word = "REGRESSION"
    else:
        word = "within bound"
    rel = (cm - bm) / scale * 100.0
    sides = [f"{m:.4g} [{q1:.4g}, {q3:.4g}]"
             for q1, m, q3 in ((b1, bm, b3), (c1, cm, c3))]
    return (f"{metric['name']:16} {sides[0]:>27}  {sides[1]:>27}  "
            f"{rel:+7.1f}% {won:>3}/{len(base):<3} {word} (bound {bound})",
            word)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    tmp = tempfile.mkdtemp(prefix="perf-ab-")
    try:
        base_root = os.path.join(tmp, "base")
        os.mkdir(base_root)
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.rev],
                                 stdout=subprocess.PIPE)
        if archive.returncode or subprocess.run(
                ["tar", "-x", "-C", base_root],
                input=archive.stdout).returncode:
            die(f"cannot extract {args.rev}")
        sides = {"base": base_root, "change": ROOT}
        # Build both sides before anything is timed.
        for root in sides.values():
            run_side(root, workloads[0], 1)

        runs = {(w, s): [] for w in workloads for s in sides}
        for pair in range(args.pairs):
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            for workload in workloads:
                for side in order:
                    runs[(workload, side)].append(
                        run_side(sides[side], workload, seconds))
            print(f"perf-ab: pair {pair + 1}/{args.pairs} done",
                  file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    regressions = 0
    print(f"perf-ab: working tree vs {args.rev}, {args.pairs} pairs of "
          f"{seconds} s runs, first side alternating")
    for workload in workloads:
        print(f"\n== {workload}")
        print(f"{'metric':16} {'base median [q1, q3]':>27}  "
              f"{'change median [q1, q3]':>27}  {'delta':>8} {'won':>7} "
              "verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row, word = verdict(
                metric, [r[name] for r in runs[(workload, "base")]],
                [r[name] for r in runs[(workload, "change")]])
            regressions += word == "REGRESSION"
            print(row)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
