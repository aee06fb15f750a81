"""The scripts under scripts/, run as they are run by hand, in a subprocess."""

import subprocess
import sys

from conftest import ROOT, subprocess_env

FIXTURES = ROOT / "fixtures"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=subprocess_env(), cwd=ROOT,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def test_fixtures_regenerate_byte_for_byte(tmp_path):
    run_script("make_fixtures.py", str(tmp_path))
    for sub in ("canonical", "families", "recognize", "witnesses"):
        got = {p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()}
        want = {p.name: p.read_bytes() for p in (FIXTURES / sub).iterdir()}
        assert sorted(got) == sorted(want), sub
        assert [name for name in sorted(want) if got[name] != want[name]] == [], sub


def test_classify_sweep_pins_the_witness_digest():
    # the script exits nonzero on a witness that fails verification; the
    # digest is the one its 300 witnesses had before the lambda2 and n3minus
    # frame inverses were written down over Z
    out = run_script("classify_sweep.py", "--count", "300").stdout
    digest = "4474c37bada2c6492e3914a0947885ced543a1b3d08259bf741387b3467054ef"
    assert f"witness sha256: {digest}" in out.splitlines(), out
