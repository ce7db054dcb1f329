"""Byte-for-byte comparison of user-facing output against committed golden
files: the selftest report, the two structural scripts (the glossary both as
markdown and as JSON), `skewweyl enumerate` on a non-monomial basis,
`skewweyl classify` on seven closed spans and `skewweyl simulate` on three
short control files.

Regenerate a golden file only when an output change is intended, e.g.
``PYTHONPATH=src python3 scripts/closure_report.py > tests/golden/closure_report.txt``;
a `simulate` golden is the output of its `SIMULATE` row, e.g.
``PYTHONPATH=src python -m skewweyl.cli simulate --algebra wh2 --controls tests/data/controls_wh2_constant.json --fock-dim 24 > tests/golden/simulate_wh2_constant.json``.
"""

import json
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

#: classify goldens: closure bases in tests/data/classify_<name>.json, output
#: in tests/golden/classify_<name>.json.  chain_n closes
#: perfbench.workloads.chain_generators(random.Random(n), n) for n = 3..7
#: (L_n, dims 5-9); diagonal is r(1, 2/3, 1/3) from
#: {a²-a†², x, x², x³} with x = i(a+a†); graded_chain closes
#: {a²-a†², i(a+a†), (a-a†)³}, solvable with the dims of an Ltilde_n, so it
#: runs the Ltilde_n comparison and the abelian test of the diagonal branch
#: before it is reported Unrecognized
CLASSIFY = ["chain_3", "chain_4", "chain_5", "chain_6", "chain_7",
            "diagonal", "graded_chain"]
COMMANDS.update({
    f"classify_{name}.json": ["-m", "skewweyl.cli", "classify", "--basis",
                              str(ROOT / "tests" / "data"
                                  / f"classify_{name}.json")]
    for name in CLASSIFY})


#: simulate goldens: (algebra, Fock dimension) per control file
#: tests/data/controls_<name>.json, output in tests/golden/simulate_<name>.json
SIMULATE = {
    "wh2_constant": ("wh2", 24),
    "wh2_sinusoid": ("wh2", 24),
    "schrodinger_sinusoid": ("schrodinger", 32),
}


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name):
    assert _run(COMMANDS[name]) == (GOLDEN / name).read_text()


def _simulate(name):
    algebra, dim = SIMULATE[name]
    return _run(["-m", "skewweyl.cli", "simulate", "--algebra", algebra,
                 "--controls", str(ROOT / "tests" / "data"
                                   / f"controls_{name}.json"),
                 "--fock-dim", str(dim)])


@pytest.mark.parametrize("name", ["wh2_constant", "wh2_sinusoid"])
def test_simulate_wh2_matches_golden(name):
    assert _simulate(name) == (GOLDEN / f"simulate_{name}.json").read_text()


def test_simulate_schrodinger_matches_golden():
    # the adjoint phase quadrature may move in the last bits with the way
    # the adjoint exponentials are computed; everything else is exact
    name = "schrodinger_sinusoid"
    got = json.loads(_simulate(name))
    want = json.loads((GOLDEN / f"simulate_{name}.json").read_text())
    assert sorted(got) == sorted(want)
    for key in want:
        if key == "phase":
            assert len(got[key]) == len(want[key])
            assert max(abs(a - b) for a, b in zip(got[key], want[key])) \
                <= 1e-16
        elif key == "fidelity_vs_oracle":
            assert abs(got[key] - want[key]) <= 1e-15
        else:
            assert got[key] == want[key], key


def test_numerical_modules_import_no_scipy_integrate():
    # scipy.integrate and scipy.interpolate cost most of the simulate
    # start-up; only raw-sample controls load the latter, on first use
    code = ("import sys\n"
            "import skewweyl.cli, skewweyl.wei_norman, skewweyl.fock_oracle\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy.integrate', 'scipy.interpolate'))))\n")
    assert _run(["-c", code]) == "[]\n"
