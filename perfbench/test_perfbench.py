"""Self-tests of the benchmark (not of levelone).

    python3 -m pytest -q perfbench/test_perfbench.py

They check that a seed pins the results digest, that every metric is named
within ``[A-Za-z0-9_.-]`` and printed with its unit, that a repeated input is
checked but not timed, and that a wrong output injected here, not in
``src/``, is counted as a failed operation.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def module(name: str):
    """A levelone submodule; ``levelone.<name>`` may be a function of that name."""
    return importlib.import_module(f"levelone.{name}")


def bench(workload: str, seed: int, trace: int = 0, hashseed: str = "0") -> tuple:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def digest_of(lines: list) -> str:
    return next(ln.split()[2] for ln in lines if ln.startswith("digest sha256"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_digest(workload):
    first, lines1 = bench(workload, 5, hashseed="1")
    second, lines2 = bench(workload, 5, hashseed="2")
    assert first["correct"] and second["correct"]
    assert digest_of(lines1) == digest_of(lines2)


def test_seed_changes_the_inputs():
    _, lines1 = bench("classify", 5)
    _, lines2 = bench("classify", 6)
    assert digest_of(lines1) != digest_of(lines2)


def test_default_seed_digests_are_recorded():
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        assert re.fullmatch(r"[0-9a-f]{64}", spec["workloads"][workload]["digests"]["0"])


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert UNIT_RE.match(m["unit"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT_RE.match(m["unit"])
    assert [m["name"] for m in BENCH["per_layer"]] == tracer_mod.per_layer_names()
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    result, lines = bench("cli", 3, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, float)
        assert any(ln.startswith(f"{name} = ") and f" {unit} (samples " in ln for ln in lines), name


def run_in_process(argv: list) -> dict:
    return run_in_process_lines(argv)[0]


def run_in_process_lines(argv: list) -> tuple:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert run.main(argv) == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def test_wrong_output_counts_as_failed(monkeypatch):
    """Every recognize call on a 2-dimensional input returns a wrong form."""
    rec = module("recognize")
    from levelone.canonical import CanonicalForm, Tag

    original = rec.recognize
    calls = {"wrong": 0}

    def wrong_for_dim_two(a):
        res = original(a)
        if a.dim != 2:
            return res
        calls["wrong"] += 1
        return rec.RecognitionResult(CanonicalForm(Tag.ABELIAN, 2), None, None)

    monkeypatch.setattr(rec, "recognize", wrong_for_dim_two)
    result = run_in_process(["--workload", "recognize", "--seed", "4", "--seconds", "0.5"])
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    # abelian inputs of dimension 2 stay right; every other n = 2 operation fails
    assert result["failed"] <= calls["wrong"]


def small_classify_pool(monkeypatch) -> None:
    """Two algebras per stratum, so a short run wraps round."""
    monkeypatch.setattr(run.WORKLOADS["classify"], "PER_STRATUM", 2)


def test_repeated_inputs_are_checked_but_not_timed(monkeypatch):
    small_classify_pool(monkeypatch)
    result, lines = run_in_process_lines(["--workload", "classify", "--seed", "4", "--seconds", "2"])
    inputs = int(next(ln for ln in lines if ln.startswith("inputs ")).split()[1].rstrip(","))
    assert result["correct"] and result["attempted"] > inputs
    assert any(ln.startswith(f"inputs {inputs}, operations {result['attempted']}, of which timed {inputs} ")
               for ln in lines)
    assert any(ln.startswith("ops_per_s = ") and f"(samples {inputs} operations)" in ln for ln in lines)


def test_output_that_changes_between_runs_counts_as_failed(monkeypatch):
    """A later run of an input that disagrees with its first run fails."""
    small_classify_pool(monkeypatch)
    cls = module("classify")

    original = cls.classify
    seen = set()

    def drift(a, cfg=None):
        w = original(a, cfg)
        key = id(a)
        if key in seen:  # second and later runs: drop the branch trace
            return cls.Witness(w.family, w.target, ())
        seen.add(key)
        return w

    monkeypatch.setattr(cls, "classify", drift)
    result = run_in_process(["--workload", "classify", "--seed", "4", "--seconds", "2"])
    assert not result["correct"]
    assert result["failed"] > 0


def test_unexpected_exception_counts_as_failed(monkeypatch):
    tr = module("transport")

    def broken(a, g):
        raise ArithmeticError("injected")

    monkeypatch.setattr(tr, "transport_limit", broken)
    result = run_in_process(["--workload", "limit", "--seed", "4", "--seconds", "0.5"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_tracer_wraps_every_binding_and_restores_them():
    import levelone

    cls, cli, rec, tr = (module(m) for m in ("classify", "cli", "recognize", "transport"))

    originals = (tr.invert, cls.rebase, rec.rebase, cli.transport_limit, levelone.transport_limit)
    t = tracer_mod.Tracer()
    t.install()
    try:
        wrapped = (tr.invert, cls.rebase, rec.rebase, cli.transport_limit, levelone.transport_limit)
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
        from levelone.canonical import CanonicalForm, Tag, construct
        from levelone.transport import random_family

        a = construct(CanonicalForm(Tag.P_MINUS, 3))
        g = random_family(3, 1, 11)
        t.on = True
        t.op = 0
        cli.transport_limit(a, g)  # through the CLI's by-name import
        t.on = False
        layers = t.per_layer(1, 1.0, 1.0)
        assert layers["transport.transport_limit.calls"] == 1
        assert layers["transport.invert.calls"] == 1
        assert layers["poly.poly_mul.calls"] > 0
        assert 0 <= layers["transport.transport_limit.self_ms"] <= layers["transport.transport_limit.ms"]
    finally:
        t.uninstall()
    assert (tr.invert, cls.rebase, rec.rebase, cli.transport_limit, levelone.transport_limit) == originals
