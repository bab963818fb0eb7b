#!/usr/bin/env python3
"""Compare a fresh `bench_micro --perf` report against the checked-in baseline.

Usage: check_perf.py CURRENT.json [BASELINE.json] [--max-slowdown X]

The baseline (bench/BENCH_perf.json) records per-scheme wall time on the
machine that produced it. CI runners differ wildly from dev boxes, so the
gate is deliberately generous: a scheme only fails if its wall time exceeds
the baseline by more than --max-slowdown (default 2.0x). The point is to
catch order-of-magnitude hot-path regressions (an accidental O(n) scan in
the scheduler loop, a lost fast path), not single-digit-percent noise.

Exit status: 0 = within budget, 1 = regression, 2 = bad input.
"""

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "bench" / "BENCH_perf.json"


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_perf: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def by_scheme(report):
    return {s["scheme"]: s for s in report.get("schemes", [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", help="freshly produced BENCH_perf.json")
    ap.add_argument("baseline", nargs="?", default=str(DEFAULT_BASELINE))
    ap.add_argument("--max-slowdown", type=float, default=2.0,
                    help="fail if wall time exceeds baseline by this factor")
    ap.add_argument("--min-wheel-speedup", type=float, default=3.0,
                    help="fail if wheel.speedup falls below this (only "
                         "checked when the baseline carries a wheel lane; "
                         "0 disables, for reports from trace-mode runs that "
                         "skip the wheel lane)")
    ap.add_argument("--max-selfprof-overhead", type=float, default=0.0,
                    help="fail if the current report's self_profile.overhead "
                         "(profiler-on wall / profiler-off wall, a same-run "
                         "same-machine ratio) exceeds this; 0 disables")
    args = ap.parse_args()

    cur_report = load(args.current)
    base_report = load(args.baseline)
    cur = by_scheme(cur_report)
    base = by_scheme(base_report)
    if not cur or not base:
        print("check_perf: report has no schemes[]", file=sys.stderr)
        sys.exit(2)

    failed = []
    print(f"{'scheme':<16} {'base(s)':>9} {'current(s)':>11} {'ratio':>7}")
    for name, b in base.items():
        c = cur.get(name)
        if c is None:
            print(f"{name:<16} {'-':>9} {'missing':>11} {'-':>7}")
            failed.append(name)
            continue
        ratio = c["wall_seconds"] / b["wall_seconds"] if b["wall_seconds"] > 0 else 0.0
        verdict = ""
        if ratio > args.max_slowdown:
            failed.append(name)
            verdict = f"  REGRESSION (> {args.max_slowdown:.1f}x)"
        print(f"{name:<16} {b['wall_seconds']:>9.3f} {c['wall_seconds']:>11.3f} "
              f"{ratio:>6.2f}x{verdict}")

    # Event-wheel gate: the wheel's idle skipping must keep its wall-clock
    # edge over the per-tick loop. The speedup is a same-machine same-run
    # ratio (legacy wall / wheel wall from ONE report), so unlike the
    # absolute wall times above it is robust to runner speed. Only enforced
    # when the baseline carries a wheel lane, so trace-mode reports (which
    # skip it) stay gateable.
    base_wheel = base_report.get("wheel")
    if base_wheel is not None and args.min_wheel_speedup > 0:
        cur_wheel = cur_report.get("wheel")
        if cur_wheel is None:
            print("check_perf: current report lacks the wheel lane",
                  file=sys.stderr)
            failed.append("wheel")
        else:
            speedup = cur_wheel.get("speedup", 0.0)
            verdict = ""
            if speedup < args.min_wheel_speedup:
                failed.append("wheel")
                verdict = f"  REGRESSION (< {args.min_wheel_speedup:.1f}x)"
            print(f"{'wheel':<16} {base_wheel.get('speedup', 0.0):>8.2f}x "
                  f"{speedup:>10.2f}x {'':>7}{verdict}")

    # Self-profiler overhead gate: like the wheel speedup, this is a
    # same-run same-machine ratio (on-wall / off-wall from ONE report), so it
    # is robust to runner speed and gets a tight bound (CI uses 1.05 = 5%).
    # Only checked against the current report — older baselines may predate
    # the self_profile lane.
    if args.max_selfprof_overhead > 0:
        cur_sp = cur_report.get("self_profile")
        if cur_sp is None:
            print("check_perf: current report lacks the self_profile lane",
                  file=sys.stderr)
            failed.append("self_profile")
        else:
            overhead = cur_sp.get("overhead", 0.0)
            verdict = ""
            if overhead > args.max_selfprof_overhead:
                failed.append("self_profile")
                verdict = f"  REGRESSION (> {args.max_selfprof_overhead:.2f}x)"
            print(f"{'selfprof':<16} {'-':>9} {overhead:>10.3f}x {'':>6}{verdict}")

    if failed:
        print(f"check_perf: FAILED for {', '.join(failed)}", file=sys.stderr)
        sys.exit(1)
    print("check_perf: all schemes within budget")


if __name__ == "__main__":
    main()
