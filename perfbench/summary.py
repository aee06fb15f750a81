#!/usr/bin/env python3
"""Run every workload and print all end-to-end metrics with units and spread.

    python3 perfbench/summary.py                      # each workload, seed 0
    python3 perfbench/summary.py --seeds 0-9          # spread over ten seeds
    python3 perfbench/summary.py --trace              # plus the traced run

Each (workload, seed) runs ``run.py`` in its own process, one at a time.  For
several seeds the table gives the median, the quartiles and their distance as
a share of the median, which is what the bounds in BENCHMARK.json are
checked against.  With ``--trace`` every run is repeated with ``--trace 1``;
the tracing overhead is the drop from the untraced to the traced
operations per second on the same seed, and the per-layer figures are the
median over the seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One benchmark process; returns (result line, the lines before it)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0", help="e.g. 0-9 or 3,5,8")
    ap.add_argument("--trace", action="store_true", help="also run the traced pass")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    all_ok = True
    seconds = spec["run_seconds"]
    for workload in (w["name"] for w in spec["workloads"]):
        per_metric: dict = {}
        failed = attempted = 0
        notes = []
        traced: dict = {}
        overhead = []
        for seed in seeds:
            result, lines = run(workload, seed, seconds, 0)
            all_ok &= result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            notes += [ln for ln in lines if ln.startswith("digest")]
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, (m["unit"], []))[1].append(m["value"])
            if args.trace:
                tres, _ = run(workload, seed, seconds, 1)
                all_ok &= tres["correct"]
                for name, m in tres["metrics"].items():
                    traced.setdefault(name, (m["unit"], []))[1].append(m["value"])
                untraced = result["metrics"]["ops_per_s"]["value"]
                overhead.append(1 - tres["metrics"]["trace.ops_per_s"]["value"] / untraced)
        print(f"\n== {workload}: seeds {args.seeds}, {seconds} s per run, "
              f"{attempted} operations")
        for note in notes[:3]:
            print(f"   {note}")
        print(f"   failed_frac = {failed / attempted:.6g} 1 ({failed} of {attempted})")
        print(f"   {'metric':<18}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, (unit, values) in per_metric.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            print(f"   {name:<18}{unit:<6}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.3f}{bounds.get(name, 0):>7.2f}")
        if args.trace:
            print(f"   tracing overhead on ops_per_s: median {statistics.median(overhead):.1%} "
                  f"over {len(overhead)} seed(s)")
            for name, (unit, values) in traced.items():
                if any(values):
                    print(f"   {name:<44}{statistics.median(values):>12.5g} {unit}")
    print("\nall outputs correct" if all_ok else "\nSOME OUTPUTS FAILED THEIR CHECK")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
