#!/usr/bin/env python3
"""Sweep the classifier over seed-pinned random non-abelian algebras.

Every witness is re-verified exactly; the script exits nonzero on the first
failure.  It prints the targets and entry branches seen, the seconds spent
drawing the algebras and checking them (classify, verify, digest) apart, and
one sha256 over the JSON of every witness (``jsonio.dumps(witness_to_dict(w))``,
in sweep order), which pins the witness bytes.  Example:

    python scripts/classify_sweep.py --count 1000 --dims 2,3,4,5,6
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from collections import Counter

from levelone import ClassifierConfig, classify, random_algebra, verify_degeneration
from levelone.jsonio import dumps, witness_to_dict


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=1000)
    ap.add_argument("--dims", default="2,3,4,5,6")
    ap.add_argument("--densities", default="0.15,0.4,0.8")
    ap.add_argument("--seed-base", type=int, default=0)
    args = ap.parse_args()

    dims = [int(x) for x in args.dims.split(",")]
    densities = [float(x) for x in args.densities.split(",")]
    targets: Counter = Counter()
    traces: Counter = Counter()
    digest = hashlib.sha256()
    draw_s = check_s = 0.0
    clock = time.perf_counter
    for idx in range(args.count):
        n = dims[idx % len(dims)]
        density = densities[(idx // len(dims)) % len(densities)]
        seed = args.seed_base + idx
        t0 = clock()
        a = random_algebra(n, density, seed=seed, nonabelian=True)
        t1 = clock()
        draw_s += t1 - t0
        w = classify(a, ClassifierConfig(seed=seed))
        report = verify_degeneration(a, w)
        if not report.passed:
            print(f"FAIL at seed {seed}: {report.diagnostics}", file=sys.stderr)
            return 1
        digest.update(dumps(witness_to_dict(w)).encode())
        targets[w.target.tag.value] += 1
        traces[w.branch_trace[0].split(" ")[0]] += 1
        check_s += clock() - t1
    print(f"{args.count} algebras classified and re-verified in {draw_s + check_s:.1f}s "
          f"(draws {draw_s:.2f}s, checks {check_s:.2f}s)")
    print("targets:", dict(sorted(targets.items())))
    print("entry branches:", dict(sorted(traces.items())))
    print("witness sha256:", digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
