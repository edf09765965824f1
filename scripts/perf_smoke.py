#!/usr/bin/env python3
"""Perf-smoke guard over the --quick benchmark JSON outputs.

Two modes:

  perf_smoke.py snapshot <micro.json> <corpus.json> <out.json>
      Condense one --quick run of bench_micro (--json) and bench_smt_corpus
      (--json) into the checked-in baseline snapshot (BENCH_PR6.json).
      Counters exported by the micro benchmarks (dfa_states_built,
      alphabet_minterms) are recorded alongside the corpus counters so the
      snapshot reflects the measured run.

  perf_smoke.py compare <baseline.json> <micro.json> <corpus.json>
      Compare a fresh --quick run against the snapshot. A benchmark that got
      more than TOLERANCE times slower than the baseline fails the check.
      The tolerance is deliberately generous: --quick timings are noisy and
      the guard is meant to catch order-of-magnitude perf-path regressions
      (an accidentally disabled cache, a quadratic loop), not 10% drift.
      Exits 0 with a message when the baseline is absent, so fresh clones
      and non-perf branches are not blocked.

  perf_smoke.py dist <w1-stats.json> <wn-stats.json> <snapshot.json>
      Gate the multi-process scaling run (scripts/ci/dist_consistency.sh):
      both passes must have solved the full corpus with zero lost verdicts,
      and on multi-core hosts the N-worker wall must be <= DIST_GATE times
      the 1-worker wall. On a single-core host the speedup gate is loudly
      skipped (forked workers cannot beat one process on one core) while
      the correctness checks still apply. The measurement is merged into
      the snapshot's "dist" block so bench_trend.py can plot the scaling
      trajectory across PRs.

  perf_smoke.py --trend [bench_trend.py args...]
      Line up every checked-in BENCH_PR<n>.json and print the perf
      trajectory across PRs (delegates to scripts/bench_trend.py) — the
      long-horizon view the one-baseline compare cannot give.

Beyond the ratio checks, the guard asserts on every compare that
  - brzozowski_calls > 0: witnesses were revalidated through the classical
    Brzozowski matcher (a revalidation that silently stops running trips
    this);
  - analysis_nodes_visited > 0 and analysis_cache_hits > 0: every query
    went through the pre-solve static analyzer, and the memo actually
    carried weight across the corpus (DESIGN.md section 14);
  - dfa_states_built > 0 and alphabet_minterms > 0: the lazy-DFA series
    really built states over a compressed alphabet (both were silently 0 in
    BENCH_PR4.json because only the corpus bench reported counters);
  - the solve_latency_us and dnf_expansion_arcs histograms carry samples:
    the profiling layer (DESIGN.md section 13) really observed the run —
    counts are asserted rather than microsecond sums, which can floor to 0
    at --quick scale;
  - the resident-session corpus replay (DESIGN.md section 15) served
    verdict-cache hits, its warm pass was no slower than the cold one, and
    every warm verdict matched its cold verdict (the wall-clock *speedup*
    gate lives in scripts/ci/session_cache.sh, which measures the server
    end-to-end).
"""

import json
import os
import sys

TOLERANCE = 2.5

# Micro benchmarks below this baseline time are dominated by harness noise
# at --quick scale; they are recorded but not compared.
MIN_COMPARE_NS = 200.0

# User counters lifted from the micro report into the snapshot, keyed by
# the benchmark that exports them.
MICRO_COUNTERS = {
    "BM_CachedMatcherThroughput/1024": ("dfa_states_built",
                                        "alphabet_minterms"),
}


def load_micro(path):
    """name -> (real_time ns, user counters) from a benchmark JSON report."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        counters = {
            k: float(v) for k, v in b.items()
            if isinstance(v, (int, float)) and k not in (
                "real_time", "cpu_time", "iterations", "repetition_index",
                "threads", "family_index", "per_family_instance_index")
        }
        out[b["name"]] = (float(b["real_time"]) * scale, counters)
    return out


def micro_counter_view(micro):
    """Flatten the interesting per-benchmark counters into one dict."""
    view = {}
    for series, keys in MICRO_COUNTERS.items():
        _, counters = micro.get(series, (None, {}))
        for k in keys:
            if k in counters:
                view[k] = counters[k]
    return view


# Histograms the corpus run must have populated (asserted by count, not by
# microsecond sums, which can floor to 0 at --quick scale).
REQUIRED_HISTOGRAMS = ("solve_latency_us", "dnf_expansion_arcs")


def load_corpus(path):
    with open(path) as f:
        doc = json.load(f)
    groups = {g["name"]: float(g["direct_ms"]) for g in doc.get("groups", [])}
    counters = doc.get("counters", {})
    histograms = doc.get("histograms", {})
    session = doc.get("session", {})
    return groups, counters, histograms, session


def snapshot(micro_path, corpus_path, out_path):
    micro = load_micro(micro_path)
    groups, counters, histograms, session = load_corpus(corpus_path)
    if session.get("cache_hits", 0) <= 0:
        print("perf-smoke: refusing snapshot: the session replay recorded "
              "no verdict-cache hits — a baseline without a working cache "
              "would make the warm-pass gate vacuous")
        return 1
    latency = histograms.get("solve_latency_us", {})
    doc = {
        "tolerance": TOLERANCE,
        "micro_ns": {name: ns for name, (ns, _) in micro.items()},
        "micro_counters": micro_counter_view(micro),
        "corpus_direct_ms": groups,
        "corpus_counters": {
            k: counters[k]
            for k in ("dfa_states_built", "dfa_evictions",
                      "alphabet_minterms", "analysis_nodes_visited",
                      "analysis_cache_hits", "verdict_cache_hits",
                      "verdict_cache_misses", "verdict_cache_inserts",
                      "session_checks")
            if k in counters
        },
        # Cold/warm latency split of the resident-session corpus replay
        # (DESIGN.md section 15): the verdict cache's measured payoff.
        "session": {
            k: session[k]
            for k in ("instances", "mismatches", "cold_ms", "warm_ms",
                      "cold_p50_us", "cold_p90_us", "cold_p99_us",
                      "warm_p50_us", "warm_p90_us", "warm_p99_us",
                      "cache_hits", "cache_misses", "cache_inserts")
            if k in session
        },
        # Latency distribution of the corpus run (bench_trend.py plots the
        # percentile drift across PR snapshots).
        "corpus_latency": {
            k: latency[k]
            for k in ("count", "p50", "p90", "p99")
            if k in latency
        },
    }
    # A refreshed snapshot must not drop the dist-scaling block merged in
    # by 'perf_smoke.py dist' (the bench run doesn't measure it).
    try:
        with open(out_path) as f:
            prev = json.load(f)
        if "dist" in prev:
            doc["dist"] = prev["dist"]
    except (FileNotFoundError, json.JSONDecodeError):
        pass
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perf-smoke: wrote snapshot {out_path}")
    return 0


def compare(baseline_path, micro_path, corpus_path):
    try:
        with open(baseline_path) as f:
            base = json.load(f)
    except FileNotFoundError:
        print(f"perf-smoke: no baseline at {baseline_path}, skipping "
              "(run 'scripts/check.sh --quick' to create one)")
        return 0

    tol = float(base.get("tolerance", TOLERANCE))
    failures = []
    compared = 0

    cur_micro = load_micro(micro_path)
    for name, base_ns in sorted(base.get("micro_ns", {}).items()):
        entry = cur_micro.get(name)
        if entry is None or base_ns < MIN_COMPARE_NS:
            continue
        cur_ns = entry[0]
        compared += 1
        if cur_ns > tol * base_ns:
            failures.append(
                f"  micro {name}: {cur_ns:.0f}ns vs baseline "
                f"{base_ns:.0f}ns ({cur_ns / base_ns:.2f}x > {tol}x)")

    cur_groups, cur_counters, cur_hists, cur_session = load_corpus(corpus_path)
    for name, base_ms in sorted(base.get("corpus_direct_ms", {}).items()):
        cur_ms = cur_groups.get(name)
        if cur_ms is None or base_ms <= 0.5:  # sub-ms groups are noise
            continue
        compared += 1
        if cur_ms > tol * base_ms:
            failures.append(
                f"  corpus {name}: {cur_ms:.1f}ms vs baseline "
                f"{base_ms:.1f}ms ({cur_ms / base_ms:.2f}x > {tol}x)")

    brz = cur_counters.get("brzozowski_calls", 0)
    if brz <= 0:
        failures.append(
            "  corpus brzozowski_calls == 0: no witness was revalidated "
            "through the classical matcher")

    for key in ("analysis_nodes_visited", "analysis_cache_hits"):
        if cur_counters.get(key, 0) <= 0:
            failures.append(
                f"  corpus {key} == 0: the pre-solve analyzer never ran "
                "(portfolio routing bypassed?)")

    micro_counters = micro_counter_view(cur_micro)
    for key in ("dfa_states_built", "alphabet_minterms"):
        if micro_counters.get(key, 0) <= 0:
            failures.append(
                f"  micro {key} == 0: the throughput series did not exercise "
                "the measured path")

    for hist in REQUIRED_HISTOGRAMS:
        if cur_hists.get(hist, {}).get("count", 0) <= 0:
            failures.append(
                f"  corpus histogram {hist} is empty: the profiling layer "
                "recorded no samples (built with -DSBD_OBS=0, or the "
                "recording sites regressed)")

    # The resident-session replay (DESIGN.md section 15): the verdict cache
    # must actually serve hits, the warm pass must not cost more than the
    # cold one, and warm verdicts must be identical to cold verdicts.
    if cur_session.get("cache_hits", 0) <= 0:
        failures.append(
            "  session cache_hits == 0: the verdict cache never served a "
            "hit across the warm corpus replay")
    if cur_session.get("mismatches", 0) > 0:
        failures.append(
            f"  session mismatches == {cur_session['mismatches']}: a warm "
            "(cached) verdict differed from the cold solve")
    cold_ms = cur_session.get("cold_ms", 0)
    warm_ms = cur_session.get("warm_ms", 0)
    if cold_ms > 0 and warm_ms > cold_ms:
        failures.append(
            f"  session warm pass slower than cold ({warm_ms:.1f}ms > "
            f"{cold_ms:.1f}ms): cache hits are not paying for themselves")

    if failures:
        print("perf-smoke: REGRESSION vs " + baseline_path)
        print("\n".join(failures))
        print("If the slowdown is intended, refresh the baseline with "
              "'scripts/check.sh --quick'.")
        return 1
    lat = cur_hists.get("solve_latency_us", {})
    speedup = cold_ms / warm_ms if warm_ms > 0 else 0.0
    print(f"perf-smoke: ok ({compared} series within {tol}x, "
          f"brzozowski_calls={brz}, "
          f"latency p50/p99 {lat.get('p50', 0)}/{lat.get('p99', 0)}us "
          f"over {lat.get('count', 0)} queries, session warm speedup "
          f"{speedup:.1f}x on {cur_session.get('cache_hits', 0)} cache hits)")
    return 0


# Multi-process scaling gate (DESIGN.md section 16): with SBD_DIST_WORKERS
# workers (CI uses 4) the batch must finish in at most this fraction of the
# 1-worker wall. Only enforced on hosts with >= 2 cores: fork-based workers
# time-slice a single core, where the ratio is meaningless.
DIST_GATE = 0.60


def dist(w1_path, wn_path, snapshot_path):
    with open(w1_path) as f:
        w1 = json.load(f)
    with open(wn_path) as f:
        wn = json.load(f)

    failures = []
    for doc, label in ((w1, "1-worker"), (wn, f"{wn.get('workers')}-worker")):
        if doc.get("queries", 0) <= 0:
            failures.append(f"  {label} run solved no queries")
        if doc.get("lost", 0) != 0:
            failures.append(f"  {label} run lost {doc['lost']} verdicts")
    if w1.get("queries") != wn.get("queries"):
        failures.append(
            f"  query counts differ: {w1.get('queries')} vs "
            f"{wn.get('queries')} — the runs did not solve the same corpus")

    w1_us = w1.get("wall_us", 0)
    wn_us = wn.get("wall_us", 0)
    cores = os.cpu_count() or 1
    ratio = wn_us / w1_us if w1_us > 0 else None
    if ratio is None:
        failures.append("  1-worker run recorded no wall time")
    elif cores >= 2:
        if ratio > DIST_GATE:
            failures.append(
                f"  {wn.get('workers')}-worker wall {wn_us}us > "
                f"{DIST_GATE}x 1-worker wall {w1_us}us ({ratio:.2f}x): "
                "adding workers is not buying throughput (admission "
                "control stalled, or steals stopped firing?)")
    else:
        print(f"perf-smoke: dist speedup gate SKIPPED — host has {cores} "
              f"core(s); {wn.get('workers')} forked workers cannot beat one "
              "process on one core. Correctness checks still enforced.")

    if failures:
        print(f"perf-smoke: dist gate FAILED "
              f"({w1_path} vs {wn_path})")
        print("\n".join(failures))
        return 1

    # Merge the measurement into the snapshot so the scaling trajectory is
    # visible across PR baselines. The snapshot may not exist yet (fresh
    # clone before 'check.sh --quick'); record into a new doc then.
    try:
        with open(snapshot_path) as f:
            snap = json.load(f)
    except FileNotFoundError:
        snap = {}
    snap["dist"] = {
        "queries": wn.get("queries"),
        "workers": wn.get("workers"),
        "shards": wn.get("shards"),
        "w1_wall_us": w1_us,
        "wn_wall_us": wn_us,
        "scaling_ratio": round(ratio, 3),
        "gate": DIST_GATE,
        "gate_enforced": cores >= 2,
        "cores": cores,
        "steals": wn.get("steals", 0),
        "requeues": wn.get("requeues", 0),
    }
    with open(snapshot_path, "w") as f:
        json.dump(snap, f, indent=2, sort_keys=True)
        f.write("\n")
    enforced = "enforced" if cores >= 2 else "recorded only"
    print(f"perf-smoke: dist ok ({wn.get('queries')} queries, "
          f"{wn.get('workers')} workers {wn_us}us vs 1 worker {w1_us}us = "
          f"{ratio:.2f}x, gate {DIST_GATE}x {enforced} on {cores} cores, "
          f"steals={wn.get('steals', 0)}) -> {snapshot_path}")
    return 0


def main(argv):
    if len(argv) == 5 and argv[1] == "snapshot":
        return snapshot(argv[2], argv[3], argv[4])
    if len(argv) == 5 and argv[1] == "compare":
        return compare(argv[2], argv[3], argv[4])
    if len(argv) == 5 and argv[1] == "dist":
        return dist(argv[2], argv[3], argv[4])
    if len(argv) >= 2 and argv[1] in ("--trend", "trend"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import bench_trend
        return bench_trend.main(argv[2:])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
