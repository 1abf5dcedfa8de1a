"""Smoke tests of the experiment scripts, each run as a subprocess."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("args, summary", [
    ((), "8 structures, 0 total failures"),
    (("--mutate",), "8 structures, 32 total failures"),
], ids=["honest", "mutated"])
def test_verify_catalog(args, summary):
    code, out = run_script("verify_catalog.py", "--nmax", "2", "--points", "2", *args)
    assert code == 0, out
    assert summary in out


def test_worked_example():
    code, out = run_script("worked_example.py", "--points", "2")
    assert code == 0, out
    assert "massey tensor == closed form at the sample point: True" in out
    for name in ("aybe", "skew", "cybe", "qybe"):
        assert "%-5s points=2   failures=0" % name in out
