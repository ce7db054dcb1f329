"""Byte-for-byte comparison of user-facing output against committed golden
files: the selftest report, the two structural scripts (the glossary both as
markdown and as JSON), `skewweyl enumerate` on a non-monomial basis,
`skewweyl classify` on eight closed spans, `skewweyl closure` on five
filiform chain generator pairs, on {∂, x∂, x⁵} and on six pairs that one
infiniteness rule each decides or that stop inconclusive, `skewweyl igusa`
on the pairs of tests/data/igusa_pairs.json and `skewweyl simulate` on five
short control files; `scripts/factorization_demo.py`, whose output is
float-formatted, only has to run and agree with the direct propagator.

Regenerate a golden file only when an output change is intended, e.g.
``PYTHONPATH=src python3 scripts/closure_report.py > tests/golden/closure_report.txt``;
a `simulate` golden is the output of its `SIMULATE` row, e.g.
``PYTHONPATH=src python -m skewweyl.cli simulate --algebra wh2 --controls tests/data/controls_wh2_constant.json --fock-dim 24 > tests/golden/simulate_wh2_constant.json``
or
``PYTHONPATH=src python -m skewweyl.cli simulate --algebra schrodinger --controls tests/data/controls_schrodinger_constant.json --fock-dim 32 > tests/golden/simulate_schrodinger_constant.json``
or
``PYTHONPATH=src python -m skewweyl.cli simulate --algebra schrodinger --controls tests/data/controls_schrodinger_sinusoid.json --fock-dim 32 > tests/golden/simulate_schrodinger_sinusoid.json``
or
``PYTHONPATH=src python -m skewweyl.cli simulate --algebra schrodinger --controls tests/data/controls_schrodinger_samples.json --fock-dim 32 > tests/golden/simulate_schrodinger_samples.json``
(every `simulate` golden is compared byte for byte, and its bytes do not
depend on the number of BLAS threads);
the `igusa` golden is
``PYTHONPATH=src:tests python3 -c "import test_golden; print(test_golden.igusa_golden(), end='')" > tests/golden/igusa_pairs.json``.
"""

import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
PERFBENCH = ROOT / "perfbench"

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
#: before it is reported Unrecognized; affine_poly_5 closes
#: {∂, x∂, x⁵} with ∂ = g-(1,0), x∂ = g-(2,0) and xᵏ = i(a+a†)ᵏ, the
#: solvable aff(1) ⋉ ℝ[x]≤5 (dim 8, derived dims 8, 7, 5, 0), which the
#: catalog does not name
CLASSIFY = ["chain_3", "chain_4", "chain_5", "chain_6", "chain_7",
            "diagonal", "graded_chain", "affine_poly_5"]
COMMANDS.update({
    f"classify_{name}.json": ["-m", "skewweyl.cli", "classify", "--basis",
                              str(ROOT / "tests" / "data"
                                  / f"classify_{name}.json")]
    for name in CLASSIFY})


#: closure goldens: generators in tests/data/closure_chain_<n>.json, output in
#: tests/golden/closure_chain_<n>.json; the generators are
#: perfbench.workloads.chain_generators(random.Random(n), n) for n = 3..7,
#: whose closures (dims 5-9, degree up to 7) are the largest exact span
#: work of the suite
COMMANDS.update({
    f"closure_chain_{n}.json": ["-m", "skewweyl.cli", "closure", "--gens",
                                str(ROOT / "tests" / "data"
                                    / f"closure_chain_{n}.json")]
    for n in range(3, 8)})
#: and on {∂, x∂, x⁵}, whose polynomials in x commute through their shared
#: linear root i(a+a†)
COMMANDS["closure_affine_poly_5.json"] = [
    "-m", "skewweyl.cli", "closure", "--gens",
    str(ROOT / "tests" / "data" / "closure_affine_poly_5.json")]

#: closure goldens of the other outcomes: tests/data/closure_<name>.json
#: holds two generators that one infiniteness rule decides (or, at
#: --budget-dim 3, that stop inconclusive), with g±(a, b) the skew monomial
#: of sign ± and multi-index (a, b):
#: monomial_glossary_violation {g+(3,0), g-(3,0)};
#: igusa_certificate {g-(3,0) + g-(2,1), g-(4,0)};
#: mixed_eq_and_quad {g+(1,1), g+(2,2) + g-(1,0)};
#: perp_with_free_ham {g+(1,1), g+(3,0) + g+(1,0)};
#: chain_degree_growth {-g-(1,0) - 3/2 g+(3,0) - 2 g-(3,0),
#: -2 g+(2,0) - 1/2 g+(4,0) - 2 g-(4,0)};
#: inconclusive {g+(1,1) + g+(0,0), g+(1,0) + g-(2,0)}
RULES = ["monomial_glossary_violation", "igusa_certificate",
         "mixed_eq_and_quad", "perp_with_free_ham", "chain_degree_growth",
         "inconclusive"]
COMMANDS.update({
    f"closure_{name}.json": ["-m", "skewweyl.cli", "closure", "--gens",
                             str(ROOT / "tests" / "data"
                                 / f"closure_{name}.json")]
    + (["--budget-dim", "3"] if name == "inconclusive" else [])
    for name in RULES})


#: simulate goldens: (algebra, Fock dimension) per control file
#: tests/data/controls_<name>.json, output in tests/golden/simulate_<name>.json
SIMULATE = {
    "wh2_constant": ("wh2", 24),
    "wh2_sinusoid": ("wh2", 24),
    "schrodinger_sinusoid": ("schrodinger", 32),
    # constant controls: broadcast samples, the oracle's eigenbasis form
    # and the RK4 factors
    "schrodinger_constant": ("schrodinger", 32),
    # raw samples, 30 steps of varying values: the cubic spline through
    # them serves the factor solver's and the oracle's stage grids
    "schrodinger_samples": ("schrodinger", 32),
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


def _igusa_outputs():
    """(pair, `skewweyl igusa` stdout) for each pair of
    tests/data/igusa_pairs.json, run in this interpreter."""
    from skewweyl import cli

    pairs = json.loads((ROOT / "tests" / "data" / "igusa_pairs.json")
                       .read_text())
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for pair in pairs:
            paths = []
            for key in ("e1", "e2"):
                paths.append(os.path.join(tmp, f"{key}.json"))
                Path(paths[-1]).write_text(json.dumps(pair[key]))
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert cli.run(["igusa", "--e1", paths[0],
                                "--e2", paths[1]]) == 0, pair["name"]
            out.append((pair, stdout.getvalue()))
    return out


def igusa_golden(outputs=None):
    """The outputs as one JSON object keyed by pair name, each output's text
    kept byte for byte and indented one level."""
    outputs = _igusa_outputs() if outputs is None else outputs
    return "{\n" + ",\n".join(
        f"  {json.dumps(pair['name'])}: "
        + text.rstrip("\n").replace("\n", "\n  ")
        for pair, text in outputs) + "\n}\n"


def test_igusa_matches_golden_and_benchmark_check(monkeypatch):
    # the benchmark rebuilds each certificate from its `sigma` and verifies
    # it again: every frame the search emits must stay readable there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from checks import check_igusa

    outputs = _igusa_outputs()
    assert igusa_golden(outputs) == (GOLDEN / "igusa_pairs.json").read_text()
    for pair, text in outputs:
        assert check_igusa(json.loads(text), pair) is None, pair["name"]


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
    assert _simulate("schrodinger_sinusoid") == (
        GOLDEN / "simulate_schrodinger_sinusoid.json").read_text()


def test_simulate_schrodinger_constant_matches_golden():
    assert _simulate("schrodinger_constant") == (
        GOLDEN / "simulate_schrodinger_constant.json").read_text()


def test_simulate_schrodinger_samples_matches_golden():
    assert _simulate("schrodinger_samples") == (
        GOLDEN / "simulate_schrodinger_samples.json").read_text()


def _demo(monkeypatch, *args) -> int:
    """Exit code of scripts/factorization_demo.py run on `args`, in this
    interpreter: a fresh one would spend most of a test on importing numpy
    and scipy."""
    script = str(ROOT / "scripts" / "factorization_demo.py")
    monkeypatch.setattr(sys, "argv", [script, *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(script, run_name="__main__")
    return exc.value.code


@pytest.mark.parametrize("algebra, u", [
    ("wh2", ["1.0", "0.2", "0.1"]),
    ("schrodinger", ["1.0", "0.2", "0.1", "0.0", "0.1"]),
])
def test_factorization_demo_agrees_with_oracle(algebra, u, monkeypatch,
                                               capsys):
    assert _demo(monkeypatch, "--algebra", algebra, "--u", *u,
                 "--t-final", "0.2", "--fock-dim", "24") == 0
    out = capsys.readouterr().out
    fidelity = [line for line in out.splitlines()
                if line.startswith("vacuum fidelity vs direct propagator")]
    assert len(fidelity) == 1, out
    assert float(fidelity[0].rsplit(":", 1)[1]) >= 1 - 1e-5


@pytest.mark.parametrize("args, message", [
    (["--fock-dim", "8"], "--fock-dim must be at least 16"),
    (["--u", "1.0", "0.2"], "preset of wh2 needs 3 values"),
    (["--csv", "{missing}/out.csv"], "No such file or directory"),
    (["--h", "0"], "grid step must be positive and finite"),
])
def test_factorization_demo_rejects_bad_input(args, message, monkeypatch,
                                              capsys, tmp_path):
    args = [a.format(missing=tmp_path / "missing") for a in args]
    assert _demo(monkeypatch, "--t-final", "0.2", *args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


def test_numerical_modules_import_no_scipy_integrate():
    # scipy.integrate and scipy.interpolate cost most of the simulate
    # start-up; only raw-sample controls load the latter, when their spec
    # is built
    code = ("import sys\n"
            "import skewweyl.cli, skewweyl.wei_norman, skewweyl.fock_oracle\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy.integrate', 'scipy.interpolate'))))\n")
    assert _run(["-c", code]) == "[]\n"


def test_simulate_leaves_classify_unimported():
    # the Wei–Norman adjoint matrices are read from the monomial brackets
    # of weyl_core, so a simulate never loads classify
    controls = str(ROOT / "tests" / "data" / "controls_schrodinger_sinusoid.json")
    code = ("import contextlib, io, sys\n"
            "from skewweyl.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = run(['simulate', '--algebra', 'schrodinger',\n"
            f"                '--controls', {controls!r}, '--fock-dim', '32'])\n"
            "print(code, 'skewweyl.classify' in sys.modules)\n")
    assert _run(["-c", code]) == "0 False\n"


def test_structural_commands_import_no_numpy(tmp_path):
    # the exact half runs on the stdlib alone: only `simulate` loads numpy
    # and scipy, and no structural module loads `dataclasses`, whose
    # `inspect` import was about a third of the start-up
    element = {"skew": [{"sigma": "+", "alpha": 3, "beta": 0, "coeff": "1"}]}
    (tmp_path / "e1.json").write_text(json.dumps(element))
    element["skew"][0].update(sigma="-", alpha=2, beta=1)
    (tmp_path / "e2.json").write_text(json.dumps(element))
    data = ROOT / "tests" / "data"
    commands = [
        ["closure", "--gens", str(data / "mixed_basis.json")],
        ["classify", "--basis", str(data / "classify_chain_3.json")],
        ["enumerate", "--basis", str(data / "mixed_basis.json")],
        ["igusa", "--e1", str(tmp_path / "e1.json"),
         "--e2", str(tmp_path / "e2.json")],
        ["selftest"],
    ]
    code = ("import contextlib, io, sys\n"
            "from skewweyl import cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.run(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('numpy', 'scipy', 'dataclasses', 'inspect')))\n")
    assert _run(["-c", code]) == "[]\n"


def test_no_command_builds_a_weyl_poly(tmp_path):
    # every command reads the skew keys alone: run in a fresh process with
    # the constructor of `WeylPoly` raising, each exits and prints as it
    # does in a fresh process without the patch
    data = ROOT / "tests" / "data"
    pair = json.loads((data / "igusa_pairs.json").read_text())[0]
    for key in ("e1", "e2"):
        (tmp_path / f"{key}.json").write_text(json.dumps(pair[key]))
    commands = [["selftest"]]
    commands += [["closure", "--gens", str(p)]
                 for p in sorted(data.glob("closure_*.json"))]
    commands += [["classify", "--basis", str(p)]
                 for p in sorted(data.glob("classify_*.json"))]
    commands += [["enumerate", "--basis", str(data / "mixed_basis.json")],
                 ["igusa", "--e1", str(tmp_path / "e1.json"),
                  "--e2", str(tmp_path / "e2.json")]]
    commands += [["simulate", "--algebra", p.stem.split("_")[1],
                  "--controls", str(p), "--fock-dim", "16"]
                 for p in sorted(data.glob("controls_*.json"))]
    code = ("import contextlib, io, json, sys\n"
            "from skewweyl import cli, weyl_core\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('a WeylPoly was built')\n"
            "if sys.argv[1] == 'patched':\n"
            "    weyl_core.WeylPoly.__init__ = refuse\n"
            "out = []\n"
            "for argv in json.loads(sys.argv[2]):\n"
            "    stdout, stderr = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(stdout), \\\n"
            "            contextlib.redirect_stderr(stderr):\n"
            "        try:\n"
            "            exit_code = cli.run(argv)\n"
            "        except AssertionError as exc:\n"
            "            exit_code = repr(exc)\n"
            "    out.append([argv, exit_code, stdout.getvalue(),\n"
            "                stderr.getvalue()])\n"
            "print(json.dumps(out))\n")
    plain, patched = (json.loads(_run(["-c", code, mode, json.dumps(commands)]))
                      for mode in ("plain", "patched"))
    assert len(plain) == 28 and all(row[1] == 0 for row in plain)
    for want, got in zip(plain, patched):
        assert got == want, want[0]
