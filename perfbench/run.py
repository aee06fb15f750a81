#!/usr/bin/env python3
"""Pinned-seed benchmark for levelone: one workload per invocation.

    python3 perfbench/run.py --workload limit --seed 0 --seconds 15 --trace 0

One process, one thread, a closed loop of one client: each operation starts
when the previous one returns, going through the inputs the seed generated
during set-up.  The loop runs for ``--seconds`` of wall time.  Only the call
into the library is timed; the benchmark's own output check runs between
operations.  Set-up warms up on the last ``WARMUP_ITEMS`` inputs, which the
loop never runs.

Every time reported is wall time scaled to a reference machine speed by the
gauge in ``gauge.py``: the speed of a shared machine drifts by a third, and
the gauge cancels most of that drift without touching levelone.  The input
lists are long enough that a run seldom wraps round to an input it has run
before; if it does, the repeat is checked but left out of the figures, so a
cache of earlier results cannot make them look faster.  ``ops_per_s`` is the
number of timed operations over their summed time, and ``latency_ms.p50`` and
``.p90`` are percentiles of the same operations' times.

Every output gets the workload's full check; a repeated input must also give
byte-identical canonical output to its first run.  The results digest is a
sha256 over the canonical outputs of the first ``DIGEST_ITEMS`` inputs, run
after the loop if the loop did not reach them, and is compared against the
one recorded in ``spec.json`` for the seed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
functions of every module (see ``tracer.py``), prints per-operation layer
figures and writes the spans to ``perfbench/out/``.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from gauge import REFERENCE_MS, Gauge
from tracer import Tracer, per_layer_unit
from workloads import WORKLOADS, load_modules

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
WARMUP_ITEMS = 8


UNITS = {
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_library() -> float:
    """Import levelone from this checkout's src/; returns the seconds it took."""
    src = ROOT / "src"
    if not (src / "levelone" / "__init__.py").is_file():
        print(f"error: no levelone package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    load_modules()  # timed: part of set-up
    elapsed = time.perf_counter() - t0
    loaded = Path(sys.modules["levelone"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        print(f"error: levelone imported from {loaded}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return elapsed


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Judge:
    """The benchmark's own verdict on every output, and the results digest."""

    def __init__(self, wl):
        self.wl = wl
        self.first: dict = {}  # input index -> sha256 of its canonical output
        self.bad: set = set()
        self.failures: list = []

    def __call__(self, idx: int, out, err) -> bool:
        """True when the output passes; failures are recorded with a reason."""
        item = self.wl.items[idx]
        if err is not None:
            h, reason = f"raised {type(err).__name__}", f"unexpected {type(err).__name__}: {err}"
        else:
            h = hashlib.sha256(canonical_json(self.wl.canon(item, out)).encode()).hexdigest()
            reason = None
        if idx not in self.first:
            self.first[idx] = h
            reason = reason or self.wl.check(item, out)
            if reason:
                self.bad.add(idx)
                return self._fail(idx, reason)
            return True
        if h != self.first[idx]:
            return self._fail(idx, "output differs from the first run of this input")
        if idx in self.bad:
            return self._fail(idx, reason or "repeat of a failed output")
        return True

    def _fail(self, idx: int, reason: str) -> bool:
        if len(self.failures) < 20:
            self.failures.append(f"input {idx} ({self.wl.items[idx].label}): {reason}")
        return False

    def digest(self) -> str:
        h = hashlib.sha256()
        for idx in range(min(self.wl.DIGEST_ITEMS, len(self.wl.items))):
            h.update(f"{self.wl.items[idx].label}\t{self.first[idx]}\n".encode())
        return h.hexdigest()


def run_op(wl, idx: int):
    try:
        return wl.op(wl.items[idx]), None
    except Exception as exc:  # an unexpected exception is a failed operation
        return None, exc


def set_up(name: str, seed: int, M, gauge: Gauge):
    """Build the workload's inputs and warm up, SETUP_REPEATS times.

    Returns the workload of the last round and the median round in seconds,
    scaled to the gauge's reference speed like every other time, by the
    gauge readings taken during and just after the round.
    """
    times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        if wl is not None and hasattr(wl, "close"):
            wl.close()
        wl = None  # so that two rounds' inputs are never alive at once
        t0 = time.perf_counter()
        wl = WORKLOADS[name](M, seed, ROOT, gauge.maybe_read)
        for idx in range(len(wl.items) - WARMUP_ITEMS, len(wl.items)):
            gauge.maybe_read()
            run_op(wl, idx)
        t1 = time.perf_counter()
        gauge.burst()
        times.append((t1 - t0) * gauge.scale_between(t0, time.perf_counter()))
    return wl, statistics.median(times)


def timed_loop(wl, judge: Judge, seconds: float, gauge: Gauge, tracer=None):
    """Closed loop until the deadline.

    Returns the latency in seconds of each input's first run, scaled by the
    gauge readings taken around it, the number of failed operations and of
    operations, repeats included.
    """
    items = len(wl.items) - WARMUP_ITEMS
    runs = []  # (start, seconds) of first runs
    failed = 0
    clock = time.perf_counter
    gauge.burst()
    deadline = clock() + seconds
    i = 0
    while True:
        gauge.maybe_read()
        idx = i % items
        if tracer is not None:
            tracer.op = i
            tracer.on = True
        first = idx not in judge.first
        t0 = clock()
        out, err = run_op(wl, idx)
        t1 = clock()
        if tracer is not None:
            tracer.on = False
        if first:
            runs.append((t0, t1 - t0))
        if not judge(idx, out, err):
            failed += 1
        i += 1
        if clock() >= deadline:
            break
    gauge.burst()
    return [dt * gauge.scale_at(t0 + dt / 2) for t0, dt in runs], failed, i


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    gauge = Gauge()
    gauge.burst()
    t_import = time.perf_counter()
    import_s = import_library()
    gauge.burst()
    import_s *= gauge.scale_between(t_import - 1, time.perf_counter())
    M = load_modules()
    wl, setup_once = set_up(args.workload, args.seed, M, gauge)
    setup_s = import_s + setup_once
    judge = Judge(wl)
    tracer = None
    try:
        if args.trace:
            tracer = Tracer()
            tracer.install()
        latencies, failed, ops = timed_loop(wl, judge, args.seconds, gauge, tracer)
        if tracer is not None:
            tracer.uninstall()
        extra_failed = 0  # digest inputs the loop did not reach, run untimed
        for idx in range(min(wl.DIGEST_ITEMS, len(wl.items))):
            if idx not in judge.first and not judge(idx, *run_op(wl, idx)):
                extra_failed += 1
        digest = judge.digest()
    finally:
        if hasattr(wl, "close"):
            wl.close()

    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    recorded = spec["workloads"][args.workload]["digests"].get(str(args.seed))
    digest_ok = recorded is None or recorded == digest

    ms = sorted(x * 1000 for x in latencies)
    timed = len(ms)
    ops_per_s = timed / sum(latencies)
    speed = [REFERENCE_MS / x for x in gauge.ms]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"inputs {len(wl.items) - WARMUP_ITEMS}, operations {ops}, of which timed {timed} "
          f"and {ops - timed} repeats of an input, checked but not timed")
    print(f"machine speed from {len(speed)} gauge readings: median {statistics.median(speed):.3f}, "
          f"deciles {statistics.quantiles(speed, n=10)[0]:.3f}..{statistics.quantiles(speed, n=10)[8]:.3f} "
          f"of the reference; times below are scaled to the reference")
    state = "none recorded" if recorded is None else ("matches" if digest_ok else f"MISMATCH, recorded {recorded}")
    print(f"digest sha256 {digest} over the first {min(wl.DIGEST_ITEMS, len(wl.items))} inputs ({state})")
    print(f"failed_frac = {failed / ops:.6g} 1 ({failed} of {ops} operations; "
          f"{extra_failed} failed among untimed digest inputs)")
    for reason in judge.failures:
        print(f"FAILED {reason}", file=sys.stderr)
    if not digest_ok:
        print(f"RESULTS DIGEST MISMATCH for seed {args.seed}: {digest} != {recorded}", file=sys.stderr)

    if args.trace:
        values = tracer.per_layer(ops, ops_per_s, REFERENCE_MS / statistics.median(gauge.ms))
        units = {name: per_layer_unit(name) for name in values}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "op_labels": [wl.items[i % len(wl.items)].label for i in range(ops)],
                  "per_layer": values}
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.json", header)
    else:
        values = {
            "ops_per_s": ops_per_s,
            "latency_ms.p50": statistics.median(ms),
            "latency_ms.p90": statistics.quantiles(ms, n=10)[8] if timed >= 2 else ms[0],
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = UNITS
    samples = {"setup_s": f"median of {SETUP_REPEATS} set-ups", "peak_rss_mb": "1 process"}
    default = f"{timed} operations"
    for name, value in values.items():
        extra = ""
        if name == "latency_ms.p90":
            extra = f", {sum(1 for x in ms if x > value)} beyond"
        print(f"{name} = {value:.6g} {units[name]} (samples {samples.get(name, default)}{extra})")

    result = {
        "correct": failed == 0 and extra_failed == 0 and digest_ok,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
