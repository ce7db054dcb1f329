"""Byte-for-byte comparison of user-facing output against committed golden
files: the selftest report, the two structural scripts (the glossary both as
markdown and as JSON) and `skewweyl enumerate` on a non-monomial basis.

Regenerate a golden file only when an output change is intended, e.g.
``PYTHONPATH=src python3 scripts/closure_report.py > tests/golden/closure_report.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "selftest.json": ["-m", "skewweyl.cli", "selftest"],
    "closure_report.txt": [str(ROOT / "scripts" / "closure_report.py")],
    "reproduce_glossary.txt": [str(ROOT / "scripts" / "reproduce_glossary.py")],
    "reproduce_glossary.json": [str(ROOT / "scripts" / "reproduce_glossary.py"),
                                "--json"],
    # the six degree-<=2 monomials with b3 += 2 b0 and b5 -= b2, so the
    # subsets closed by the enumeration are not all monomial sets
    "enumerate_mixed.json": ["-m", "skewweyl.cli", "enumerate", "--basis",
                             str(ROOT / "tests" / "data" / "mixed_basis.json")],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *COMMANDS[name]], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_text()
