#!/usr/bin/env python3
"""Probe orbit closures of the non-nilpotent level-one algebras.

Applies seed-pinned random parametric families to p_n^- and nu_n(alpha) and
recognizes every existing limit.  Rigidity predicts only the algebra itself
or the abelian algebra can appear; anything else is reported and the exit
code is nonzero.  The last line gives the seconds spent drawing the families
and checking them (limit and recognition) apart.

    python scripts/rigidity_sweep.py --dims 3,4,5 --count 200 --alpha 2/3
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from fractions import Fraction

from levelone import (
    CanonicalForm,
    NoLimit,
    Tag,
    construct,
    random_family,
    recognize,
    transport_limit,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="3,4,5")
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--alpha", default="2/3")
    ap.add_argument("--max-pole", type=int, default=2)
    ap.add_argument("--seed-base", type=int, default=0)
    args = ap.parse_args()

    alpha = Fraction(args.alpha)
    failures = 0
    draw_s = check_s = 0.0
    clock = time.perf_counter
    for n in (int(x) for x in args.dims.split(",")):
        inputs = {
            "pminus": (construct(CanonicalForm(Tag.P_MINUS, n)), Tag.P_MINUS),
            f"nu({alpha})": (construct(CanonicalForm(Tag.NU, n, alpha)), Tag.NU),
        }
        outcomes: dict[str, Counter] = {k: Counter() for k in inputs}
        for i in range(args.count):
            t0 = clock()
            g = random_family(n, i % (args.max_pole + 1), seed=args.seed_base + n * 1000 + i)
            t1 = clock()
            draw_s += t1 - t0
            for key, (a, tag) in inputs.items():
                try:
                    lim = transport_limit(a, g)
                except NoLimit:
                    outcomes[key]["no limit"] += 1
                    continue
                res = recognize(lim)
                label = res.form.describe() if res.form else f"?? {res.reason}"
                outcomes[key][label] += 1
                if res.form is None or res.form.tag not in (tag, Tag.ABELIAN):
                    print(f"RIGIDITY VIOLATION n={n} seed={i}: {label}", file=sys.stderr)
                    failures += 1
            check_s += clock() - t1
        for key, counter in outcomes.items():
            print(f"n={n} {key}: {dict(sorted(counter.items()))}")
    print(f"done in {draw_s + check_s:.1f}s (draws {draw_s:.2f}s, checks {check_s:.2f}s), "
          f"{failures} violations")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
