#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

Builds the `perfbench` binary from this checkout's sources on first use,
then for each requested workload labels the seeded inputs in one process
and measures them in another. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload hard_boolean --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, default seed
    python3 perfbench/run.py --self-test      # determinism of the work counters

Exit status: 0 when every correctness check passed, 1 when one failed, 2 when
the benchmark could not build or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["corpus_batch", "hard_boolean", "session_replay", "corpus_dist"]

# Each step may take this long beyond the measured --seconds: input
# generation, labelling, set-up, and the pass that is running when time is up.
STEP_SLACK_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    # The caller may pin the build tree (CARGO_TARGET_DIR is honoured so
    # that every build product of a checkout lands in one place).
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    ninja = shutil.which("ninja")
    gen = ["-G", "Ninja"] if ninja else []
    steps = []
    if not os.path.exists(os.path.join(out, "build.ninja" if ninja else "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def run_one(binary, workload, seed, seconds, trace, echo=True):
    """Labels and measures one workload; returns (exit code, result dict)."""
    work = os.path.join(os.path.dirname(build_dir()), "perfbench-work")
    os.makedirs(work, exist_ok=True)
    labels = os.path.join(work, f"labels-{workload}-{seed}.txt")
    common = ["--workload", workload, "--seed", str(seed)]
    timeout = seconds + STEP_SLACK_S
    try:
        lab = subprocess.run([binary, "label", *common, "--out", labels],
                             stdout=sys.stderr, timeout=timeout)
        if lab.returncode:
            log(f"labelling {workload} failed")
            return 2, None
        proc = subprocess.run(
            [binary, "run", *common, "--seconds", str(seconds),
             "--trace", str(trace), "--labels", labels],
            stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: a step exceeded {timeout} s")
        return 2, None
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload}: no result line (exit {proc.returncode})")
        return 2, None
    if proc.returncode not in (0, 1):
        log(f"{workload}: perfbench exited {proc.returncode}")
        return 2, None
    return proc.returncode, result


def self_test(binary, seed):
    """Two traced runs with one seed must give identical work counters.

    On these single-process workloads every per-layer metric counted in
    `count` units is a deterministic work counter. The traced metrics must
    also be exactly BENCHMARK.json's per-layer list, with its units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    ok = True
    for workload in ["corpus_batch", "hard_boolean"]:
        runs = []
        for _ in range(2):
            code, result = run_one(binary, workload, seed, 1, 1, echo=False)
            if code or not result["correct"]:
                log(f"self-test: {workload} run failed")
                return 1
            runs.append(result["metrics"])
        printed = {n: m["unit"] for n, m in runs[0].items()}
        if printed != spec:
            ok = False
            print(f"{workload}: per-layer metrics differ from BENCHMARK.json")
        counters = [n for n, m in runs[0].items() if m["unit"] == "count"]
        for name in counters:
            a, b = runs[0][name]["value"], runs[1][name]["value"]
            same = a == b
            ok &= same
            print(f"{workload:14} {name:28} {a:>14.17g} {b:>14.17g} "
                  f"{'same' if same else 'DIFFERENT'}")
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 2
    if args.self_test:
        return self_test(binary, args.seed)
    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed, args.seconds,
                               args.trace)
        if result is None:
            return 2
        print(json.dumps(result), flush=True)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        code, result = run_one(binary, workload, args.seed, args.seconds,
                               args.trace)
        if result is None:
            return 2
        worst = max(worst, code)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
