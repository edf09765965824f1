#!/usr/bin/env python3
"""Perf trajectory over the checked-in BENCH_*.json snapshots (stdlib only).

Every PR that touches performance refreshes a BENCH_PR<n>.json snapshot via
`scripts/check.sh --quick` (see perf_smoke.py). This tool lines the
snapshots up in PR order and prints how each tracked series moved across
the repo's history — the long-horizon complement to perf_smoke's
one-baseline regression guard:

  scripts/bench_trend.py                    markdown trend tables to stdout
  scripts/bench_trend.py --json trend.json  machine-readable trajectory too
  scripts/bench_trend.py --dir <root>       scan a different snapshot dir

Reported per snapshot: every micro series (ns), the per-group corpus times
(ms), the recorded counters, and — for
snapshots taken after the profiling layer landed — the corpus solve-latency
percentiles. The final column is latest/first, so a series that drifted
slowly enough to stay inside perf_smoke's per-PR tolerance still shows its
cumulative movement here.

Exit status is always 0 with >= 1 snapshot found; the tool reports, the
perf_smoke compare gate enforces.
"""

import argparse
import json
import re
import sys
from pathlib import Path

SNAPSHOT_RE = re.compile(r"^BENCH_PR(\d+)\.json$")


def discover(root):
    """[(pr_number, path)] for every BENCH_PR<n>.json, in PR order."""
    out = []
    for path in Path(root).glob("BENCH_PR*.json"):
        m = SNAPSHOT_RE.match(path.name)
        if m:
            out.append((int(m.group(1)), path))
    return sorted(out)


def load(path):
    with open(path) as f:
        return json.load(f)


def fmt(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        if v >= 1000:
            return f"{v:,.0f}"
        return f"{v:.2f}" if v < 100 else f"{v:.1f}"
    return str(v)


def ratio(first, last):
    if first is None or last is None or not first:
        return "-"
    return f"{last / first:.2f}x"


def series_table(title, unit, labels, rows):
    """One markdown table: rows of (name, [value per snapshot])."""
    if not rows:
        return []
    head = [f"### {title} ({unit})", ""]
    head.append("| series | " + " | ".join(labels) + " | latest/first |")
    head.append("|---" * (len(labels) + 2) + "|")
    for name, values in rows:
        present = [v for v in values if v is not None]
        first = present[0] if present else None
        last = present[-1] if present else None
        cells = " | ".join(fmt(v) for v in values)
        head.append(f"| {name} | {cells} | {ratio(first, last)} |")
    head.append("")
    return head


def collect(key, snaps):
    """All series names under a dict-valued snapshot key, in sorted order,
    paired with their per-snapshot values (None where absent)."""
    names = sorted({n for _, doc in snaps for n in doc.get(key, {})})
    return [(n, [doc.get(key, {}).get(n) for _, doc in snaps]) for n in names]


def latency_rows(snaps):
    """Percentile rows from the corpus_latency section newer snapshots carry."""
    rows = []
    for stat in ("count", "p50", "p90", "p99"):
        values = [doc.get("corpus_latency", {}).get(stat) for _, doc in snaps]
        if any(v is not None for v in values):
            rows.append((f"solve_latency_{stat}", values))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Aggregate BENCH_*.json snapshots into a trend report.")
    ap.add_argument("--dir", default=str(Path(__file__).resolve().parent.parent),
                    help="directory holding the BENCH_PR<n>.json snapshots")
    ap.add_argument("--json", metavar="OUT",
                    help="also write the trajectory as machine-readable JSON")
    args = ap.parse_args(argv)

    found = discover(args.dir)
    if not found:
        print(f"bench-trend: no BENCH_PR*.json snapshots under {args.dir}")
        return 0
    snaps = [(pr, load(path)) for pr, path in found]
    labels = [f"PR{pr}" for pr, _ in snaps]

    lines = [f"## Perf trend across {len(snaps)} snapshots "
             f"({', '.join(labels)})", ""]
    lines += series_table("Corpus groups, direct path", "ms", labels,
                          collect("corpus_direct_ms", snaps))
    lines += series_table("Corpus solve latency", "us / count", labels,
                          latency_rows(snaps))
    lines += series_table("Resident session (cold/warm replay)", "mixed",
                          labels, collect("session", snaps))
    lines += series_table("Micro benchmarks", "ns", labels,
                          collect("micro_ns", snaps))
    lines += series_table("Counters", "count", labels,
                          collect("corpus_counters", snaps))
    print("\n".join(lines))

    if args.json:
        doc = {
            "snapshots": labels,
            "corpus_direct_ms": {n: dict(zip(labels, vs))
                                 for n, vs in collect("corpus_direct_ms",
                                                      snaps)},
            "corpus_latency": {n: dict(zip(labels, vs))
                               for n, vs in latency_rows(snaps)},
            "micro_ns": {n: dict(zip(labels, vs))
                         for n, vs in collect("micro_ns", snaps)},
            "corpus_counters": {n: dict(zip(labels, vs))
                                for n, vs in collect("corpus_counters",
                                                     snaps)},
            "session": {n: dict(zip(labels, vs))
                        for n, vs in collect("session", snaps)},
        }
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"bench-trend: wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
