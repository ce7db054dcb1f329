"""CLI wire formats and exit codes (run in-process through cli.run)."""

import collections
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewweyl import cli, wei_norman
from skewweyl.cli import _dumps, run
from skewweyl.weyl_core import (MINUS, PLUS, SkewPoly, number_op,
                                schrodinger_monomials, skew_to_json, unit_i)


def write_elements(tmp_path, name, elements):
    path = tmp_path / name
    path.write_text(json.dumps([skew_to_json(e) for e in elements]))
    return str(path)


def mono(sigma, a, b):
    return SkewPoly.monomial(sigma, (a, b))


def assert_input_error(argv, capsys):
    """Exit code 2 with one `error:` line on stderr and no traceback."""
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1, err
    assert "Traceback" not in err
    return err


@pytest.fixture
def out(capsys):
    def read():
        return json.loads(capsys.readouterr().out)
    return read


_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True) | st.text())
_DOCS = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(), children, max_size=5)
        | st.dictionaries(st.integers() | st.floats(allow_nan=False),
                          children, max_size=3)
        | st.dictionaries(st.booleans() | st.none(), children, max_size=1)),
    max_leaves=40)


class _Pair(NamedTuple):
    name: str
    items: list


class _List(list):
    pass


class TestOutputText:
    """The writer behind every subcommand's output is json.dumps(...,
    indent=2, sort_keys=True), character for character."""

    @settings(max_examples=150, deadline=None)
    @given(_DOCS)
    @example({"b": [], "a": {}, "é\u2028\ud800": [[float("nan")], ()]})
    @example([1.0, -0.0, float("inf"), -float("inf"), 10 ** 30, True, None])
    @example({2.5: 1, 1: [{}], -3: "x"})
    # subclasses of the containers are containers, at the top and nested
    @example(collections.OrderedDict([("b", [1]), ("a", {"c": None})]))
    @example([collections.Counter({"x": 2, "y": 1}), {"z": 0}])
    @example({"pair": _Pair("p", [1, [2, {"q": []}]])})
    @example(_List([_List([1, "x"]), _List(), {"k": _List([2.5])}]))
    def test_same_text_as_json(self, doc):
        assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", [
        [{1: 0, "a": 0}],           # keys json cannot sort
        {"a": [Fraction(1, 2)]},    # a value json cannot write
        {"a": {"b": {1j: 0}}},      # a key json cannot write
    ])
    def test_same_error_as_json(self, doc):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            _dumps(doc)
        assert str(got.value) == str(want.value)


#: command lines whose exit code, stdout and stderr must not depend on
#: whether the subcommand's own parser or the full parser reads them;
#: {gens}, {e1}, {e2} and {controls} name input files
DISPATCH_ARGVS = {
    "closure": ["closure", "--gens", "{gens}"],
    "closure_budgets": ["closure", "--gens", "{gens}", "--budget-dim", "5",
                        "--budget-deg", "3"],
    "classify": ["classify", "--basis", "{gens}"],
    "enumerate": ["enumerate", "--basis", "{gens}"],
    "igusa": ["igusa", "--e1", "{e1}", "--e2", "{e2}"],
    "simulate": ["simulate", "--algebra", "wh2", "--controls", "{controls}",
                 "--fock-dim", "16"],
    "selftest": ["selftest"],
    "missing_flag": ["closure"],
    "missing_second_flag": ["igusa", "--e1", "{e1}"],
    "bad_int": ["closure", "--gens", "{gens}", "--budget-dim", "x"],
    "bad_choice": ["simulate", "--algebra", "wh3", "--controls",
                   "{controls}"],
    "unknown_option": ["closure", "--gens", "{gens}", "--bogus"],
    "extra_positional": ["closure", "--gens", "{gens}", "extra"],
    "extra_after_dashes": ["closure", "--gens", "{gens}", "--", "extra"],
    "dashes": ["closure", "--gens", "{gens}", "--"],
    "help": ["-h"],
    "command_help": ["closure", "-h"],
    "empty": [],
    "unknown_command": ["frobnicate", "--gens", "{gens}"],
    "option_first": ["--gens", "{gens}", "closure"],
    "abbreviation": ["closure", "--gen", "{gens}"],
    "file_error": ["closure", "--gens", "{missing}"],
}


class TestDispatch:
    """`run` hands argv[1:] to the parser of the subcommand argv[0] names;
    it must answer every command line as the full parser does."""

    @pytest.fixture
    def argv(self, tmp_path, request):
        names = {
            "gens": write_elements(tmp_path, "g.json",
                                   [mono(PLUS, 1, 0), mono(MINUS, 1, 0)]),
            "e1": write_elements(tmp_path, "e1.json", [mono(PLUS, 3, 0)]),
            "e2": write_elements(tmp_path, "e2.json", [mono(MINUS, 2, 1)]),
            "controls": str(Path(__file__).resolve().parent / "data"
                            / "controls_wh2_constant.json"),
            "missing": str(tmp_path / "missing.json"),
        }
        return [a.format(**names) for a in DISPATCH_ARGVS[request.param]]

    @staticmethod
    def full_parser_only(monkeypatch):
        """`run` with no subcommand parser to dispatch to: the full parser
        reads every command line, as it did before direct dispatch."""
        parser, _ = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))

    @pytest.mark.parametrize("argv", sorted(DISPATCH_ARGVS), indirect=True)
    def test_same_result_as_full_parser(self, argv, capsys, monkeypatch):
        got = run(argv), *capsys.readouterr()
        self.full_parser_only(monkeypatch)
        want = run(argv), *capsys.readouterr()
        assert got == want

    @pytest.mark.parametrize("argv", ["closure", "closure_budgets", "igusa",
                                      "abbreviation"], indirect=True)
    def test_same_namespace_as_full_parser(self, argv, monkeypatch):
        # the parsers are rebuilt around commands that keep their arguments
        seen = []
        for name in ("closure", "igusa"):
            monkeypatch.setattr(cli, f"_cmd_{name}", seen.append)
        build = cli._build_parser
        build.cache_clear()
        try:
            run(argv)
            self.full_parser_only(monkeypatch)
            run(argv)
        finally:
            build.cache_clear()
        assert len(seen) == 2 and vars(seen[0]) == vars(seen[1])
        assert seen[0].command == argv[0]


class TestClosure:
    def test_finite(self, tmp_path, out):
        gens = write_elements(tmp_path, "g.json",
                              [mono(PLUS, 1, 0), mono(MINUS, 1, 0)])
        assert run(["closure", "--gens", gens]) == 0
        doc = out()
        assert doc["outcome"] == "finite"
        assert doc["dim"] == 3
        assert len(doc["basis"]) == 3

    def test_infinite_with_witness(self, tmp_path, out):
        gens = write_elements(tmp_path, "g.json",
                              [mono(PLUS, 3, 0), mono(MINUS, 3, 0)])
        assert run(["closure", "--gens", gens]) == 0
        doc = out()
        assert doc["outcome"] == "infinite"
        assert doc["rule"]

    def test_generators_wrapper_accepted(self, tmp_path, out):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"generators": [skew_to_json(mono(PLUS, 0, 0))]}))
        assert run(["closure", "--gens", str(path)]) == 0
        assert out()["dim"] == 1

    def test_budget_flags(self, tmp_path, out):
        gens = write_elements(tmp_path, "g.json", schrodinger_monomials())
        assert run(["closure", "--gens", gens, "--budget-dim", "4"]) == 0
        assert out()["outcome"] == "inconclusive"

    @pytest.mark.parametrize("gens,max_dim", [
        ([number_op() + unit_i(), mono(PLUS, 1, 0) + mono(MINUS, 2, 0)], 3),
        (list(schrodinger_monomials()), 4),
    ], ids=["drift", "monomials"])
    def test_budget_below_drift_closure_is_inconclusive(self, tmp_path, out,
                                                         gens, max_dim):
        # an exact rule proves this closure finite, but it is larger than
        # the dimension budget
        gens = write_elements(tmp_path, "g.json", gens)
        assert run(["closure", "--gens", gens,
                    "--budget-dim", str(max_dim)]) == 0
        doc = out()
        assert doc["outcome"] == "inconclusive"
        assert doc["budget"]["max_dim"] == max_dim
        assert doc["budget"]["dim_reached"] > max_dim


class TestClassify:
    def test_heisenberg(self, tmp_path, out):
        basis = write_elements(
            tmp_path, "b.json",
            [mono(PLUS, 0, 0), mono(PLUS, 1, 0), mono(MINUS, 1, 0)])
        assert run(["classify", "--basis", basis]) == 0
        doc = out()
        assert doc["catalog"]["name"] == "h1"
        assert doc["dim"] == 3
        assert "fingerprint" in doc

    def test_non_closed_basis_is_domain_error(self, tmp_path):
        basis = write_elements(tmp_path, "b.json",
                               [mono(PLUS, 2, 0), mono(MINUS, 2, 0)])
        assert run(["classify", "--basis", basis]) == 1


class TestEnumerate:
    def test_glossary_record_count(self, tmp_path, out):
        basis = write_elements(tmp_path, "b.json", schrodinger_monomials())
        assert run(["enumerate", "--basis", basis]) == 0
        records = out()
        assert len(records) == 22

    def test_infinite_ambient_is_domain_error(self, tmp_path, capsys):
        basis = write_elements(tmp_path, "b.json",
                               [mono(PLUS, 3, 0), mono(MINUS, 3, 0)])
        assert run(["enumerate", "--basis", basis]) == 1
        assert capsys.readouterr().err == (
            "error: the full basis generates an infinite algebra "
            "(rule MonomialGlossaryViolation)\n")

    def test_inconclusive_ambient_is_not_called_infinite(self, tmp_path,
                                                         capsys):
        # one element spans a 1-dim algebra, but its degree 25 is above
        # the default degree budget 24, so the closure proves nothing
        basis = write_elements(tmp_path, "b.json", [mono(PLUS, 25, 0)])
        assert run(["closure", "--gens", basis]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "inconclusive"
        assert run(["enumerate", "--basis", basis]) == 1
        assert capsys.readouterr().err == (
            "error: the closure of the full basis is inconclusive: it "
            "exceeded the budget at dim_reached 0, degree_reached 25\n")


class TestIgusa:
    def test_certificate_emitted(self, tmp_path, out):
        e1 = write_elements(tmp_path, "e1.json", [mono(MINUS, 3, 0)])
        e2 = write_elements(tmp_path, "e2.json", [mono(PLUS, 3, 0)])
        assert run(["igusa", "--e1", e1, "--e2", e2]) == 0
        doc = out()
        assert doc["identity_verdict"] == "inconclusive"
        assert doc["verdict"] == "infinite"
        assert set(doc["sigma"]) == {"s", "phi", "theta"}

    def test_identity_verdict_agrees_with_identity_certificate(self, tmp_path,
                                                               out):
        # a0·b0 = 1 and delta = 4 are real and nonzero
        e1 = write_elements(tmp_path, "e1.json",
                            [mono(MINUS, 3, 0) + mono(MINUS, 2, 1)])
        e2 = write_elements(tmp_path, "e2.json", [mono(MINUS, 4, 0)])
        assert run(["igusa", "--e1", e1, "--e2", e2]) == 0
        doc = out()
        assert doc["identity_verdict"] == "infinite"
        assert doc["verdict"] == "infinite"
        assert doc["sigma"] == "identity"

    def test_frames_past_the_float_range_are_inconclusive(self, tmp_path,
                                                          out):
        # at degree 1420 the frame normaliser (|s11| + |s12|)^1420 leaves
        # the float range: no frame certifies, and the command still ends
        e1 = write_elements(tmp_path, "e1.json", [mono(PLUS, 1420, 0)])
        e2 = write_elements(tmp_path, "e2.json", [mono(MINUS, 1420, 0)])
        assert run(["igusa", "--e1", e1, "--e2", e2]) == 0
        assert out() == {"identity_verdict": "inconclusive",
                         "verdict": "inconclusive"}

    def test_low_degree_is_domain_error(self, tmp_path):
        e1 = write_elements(tmp_path, "e1.json", [mono(PLUS, 2, 0)])
        e2 = write_elements(tmp_path, "e2.json", [mono(PLUS, 3, 0)])
        assert run(["igusa", "--e1", e1, "--e2", e2]) == 1


class TestSimulate:
    def test_wh2_constant(self, tmp_path, out):
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({
            "preset": "constant", "values": [1.0, 0.1, 0.0],
            "t_final": 0.5, "h": 1e-3,
        }))
        code = run(["simulate", "--algebra", "wh2",
                    "--controls", str(controls), "--fock-dim", "32"])
        assert code == 0
        doc = out()
        assert doc["method"] == "ClosedFormQuadrature"
        assert doc["fidelity_vs_oracle"] > 1 - 1e-6
        assert doc["residual"] < 1e-6

    def test_csv_written(self, tmp_path, out):
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({
            "preset": "constant", "values": [1.0, 0.0, 0.0],
            "t_final": 0.1, "h": 1e-2,
        }))
        csv = tmp_path / "factors.csv"
        assert run(["simulate", "--algebra", "wh2", "--controls",
                    str(controls), "--fock-dim", "32", "--csv",
                    str(csv)]) == 0
        header = csv.read_text().splitlines()[0]
        assert header == "t,f1,f2,f3,phase"

    def test_csv_in_missing_directory_is_usage_error(self, tmp_path, capsys):
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({
            "preset": "constant", "values": [1.0, 0.0, 0.0],
            "t_final": 0.1, "h": 1e-2,
        }))
        csv = tmp_path / "no" / "such" / "f.csv"
        assert_input_error(["simulate", "--algebra", "wh2", "--controls",
                            str(controls), "--fock-dim", "16", "--csv",
                            str(csv)], capsys)
        assert not csv.parent.exists()

    def test_algebra_mismatch_is_usage_error(self, tmp_path):
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({
            "algebra": "wh2", "preset": "constant",
            "values": [1.0, 0.0, 0.0], "t_final": 0.1, "h": 1e-2,
        }))
        assert run(["simulate", "--algebra", "schrodinger",
                    "--controls", str(controls)]) == 2

    @pytest.mark.parametrize("entries", [
        {"preset": "constant", "values": [1.0, "x", 0.0]},
        {"preset": "constant", "values": [1.0, None, 0.0]},
        {"preset": "constant", "values": [1.0, [0.5], 0.0]},
        # a sinusoid parameter is multiplied or added, never parsed: a
        # numeric string is no number, and a list does not broadcast
        {"preset": "sinusoid", "amplitudes": [1.0, "0.5", 0.0],
         "frequencies": [1.0, 2.0, 3.0]},
        {"preset": "sinusoid", "amplitudes": [1.0, 0.5, 0.0],
         "frequencies": [1.0, [2.0], 3.0]},
        {"preset": "sinusoid", "amplitudes": [1.0, 0.5, 0.0],
         "frequencies": [1.0, 2.0, 3.0], "phases": [0.0, None, 0.0]},
        # nor is a constant value parsed
        {"preset": "constant", "values": ["1", 0.1, 0.1]},
        # a JSON boolean is no number either
        {"preset": "constant", "values": [True, 0, 0]},
        {"preset": "sinusoid", "amplitudes": [1.0, 0.5, 0.0],
         "frequencies": [True, 1, 1]},
    ])
    def test_non_numeric_preset_entry_is_usage_error(self, tmp_path, capsys,
                                                     entries):
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({"t_final": 0.05, "h": 1e-3,
                                        **entries}))
        assert_input_error(["simulate", "--algebra", "wh2", "--controls",
                            str(controls), "--fock-dim", "16"], capsys)

    @staticmethod
    def assert_one_error_line(controls, capsys):
        """Exit code 2 with one `error:` line as all of stderr, and no
        warning; returns that line."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = assert_input_error(["simulate", "--algebra", "wh2",
                                      "--controls", str(controls),
                                      "--fock-dim", "16"], capsys)
        assert not caught, [str(w.message) for w in caught]
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("grid, message", [
        ({"h": 0}, "grid step must be positive and finite"),
        ({"h": float("nan")}, "grid step must be positive and finite"),
        ({"h": float("inf")}, "grid step must be positive and finite"),
        ({"t_final": float("nan")}, "t_final must be finite"),
        ({"t_final": float("inf")}, "t_final must be finite"),
        ({"h": 1e-320}, "the step count t_final / h overflows"),
        ({"t_final": 1e300, "h": 1e-10}, "the step count t_final / h overflows"),
    ])
    def test_bad_grid_names_its_field(self, tmp_path, capsys, grid, message):
        # both are checked before the preset divides t_final by h, and the
        # quotient before it is rounded
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({
            "preset": "constant", "values": [1.0, 0.1, 0.0],
            "t_final": 0.05, "h": 1e-3, **grid}))
        assert message in self.assert_one_error_line(controls, capsys)

    @pytest.mark.parametrize("entries", [
        {"preset": "constant", "values": [1.0, 0.1]},
        {"preset": "constant", "values": [1.0, 0.1, 0.0, 0.0]},
    ])
    def test_constant_preset_names_the_count_it_needs(self, tmp_path, capsys,
                                                      entries):
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({"t_final": 0.01, "h": 1e-3,
                                        **entries}))
        err = self.assert_one_error_line(controls, capsys)
        assert "the constant preset of wh2 needs 3 values" in err, err

    @pytest.mark.parametrize("algebra, n", [("wh2", 3), ("schrodinger", 5)])
    def test_each_control_sampled_once_per_grid(self, tmp_path, monkeypatch,
                                                 algebra, n):
        # one sampler call over all controls per grid, made when a consumer
        # asks for the grid: the grid nodes when the spec is built, then for
        # schrodinger the factor solver's stage grid (2 substeps), then the
        # oracle's (4 substeps)
        grids = []
        from_sampler = wei_norman.ControlSpec.from_sampler

        def counted(algebra, sampler, t_final, h):
            def sample(ts):
                out = sampler(ts)
                grids.append((out.shape[1], ts.tolist()))
                return out
            return from_sampler(algebra, sample, t_final, h)

        monkeypatch.setattr(wei_norman.ControlSpec, "from_sampler",
                            staticmethod(counted))
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({
            "preset": "sinusoid", "amplitudes": [1.0, 0.3, 0.2, 0.1, 0.15][:n],
            "frequencies": [1.0, 2.0, 3.0, 1.5, 2.5][:n],
            "t_final": 0.05, "h": 1e-3}))
        assert run(["simulate", "--algebra", algebra, "--controls",
                    str(controls), "--fock-dim", "16"]) == 0
        n_steps = 50

        def stages(substeps):
            return (n, [j * (1e-3 / (2 * substeps))
                        for j in range(2 * substeps * n_steps + 1)])

        assert grids == [
            (n, [k * 1e-3 for k in range(n_steps + 1)]),
            *([stages(2)] if algebra == "schrodinger" else []),
            stages(4)]


class TestClosedStdout:
    def test_reader_closing_the_pipe_exits_1_without_traceback(self,
                                                                tmp_path):
        # about 200 KB of output, past the pipe's buffer: the writer is
        # still writing when the reader closes its end
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({
            "preset": "constant", "values": [1.0, 0.1, 0.1],
            "t_final": 2.0, "h": 1e-3}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "skewweyl.cli", "simulate", "--algebra",
             "wh2", "--fock-dim", "16", "--controls", str(controls)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=300) == 1
        finally:
            proc.kill()
            proc.stderr.close()
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err


class TestRepeatedRuns:
    def test_back_to_back_runs_share_no_state(self, tmp_path, capsys):
        # one parser serves every call in a process: neither flags nor a
        # usage error may carry over to the next call
        gens = write_elements(tmp_path, "g.json", schrodinger_monomials())
        assert run(["closure", "--gens", gens, "--budget-dim", "3"]) == 0
        budget = json.loads(capsys.readouterr().out)["budget"]
        assert (budget["max_dim"], budget["max_degree"]) == (3, 24)
        # over the degree budget at once, which reports the dimension budget
        assert run(["closure", "--gens", gens, "--budget-deg", "1"]) == 0
        budget = json.loads(capsys.readouterr().out)["budget"]
        assert (budget["max_dim"], budget["max_degree"]) == (64, 1)
        assert run(["closure", "--budget-dim", "5"]) == 2
        assert "error:" in capsys.readouterr().err
        assert run(["closure", "--gens", gens]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert (doc["outcome"], doc["dim"]) == ("finite", 6)
        assert captured.err == ""


class TestSelftest:
    def test_passes(self, out):
        assert run(["selftest"]) == 0
        doc = out()
        assert doc["passed"] is True
        assert doc["table1"] == "15/15"
        assert doc["glossary"]["total_spans"] == 22
        assert doc["glossary"]["mismatches"] == {}

    def test_failure_report(self, out, monkeypatch):
        # a reference table with [b2, b3] changed and [b4, b5] dropped
        from skewweyl import classify

        real = classify.reference_structure("Schrodinger")
        entries = {pair: v for pair, v in real.table.items()
                   if pair[0] < pair[1] and pair != (4, 5)}
        entries[2, 3] = {0: Fraction(-3)}
        fake = classify.StructureConstants(6, entries)
        monkeypatch.setattr(classify, "reference_structure", lambda name: fake)
        assert run(["selftest"]) == 1
        doc = out()
        assert doc["passed"] is False
        assert doc["table1"] == "13/15"
        zeros = ["0"] * 4
        assert doc["table1_failures"] == [
            {"pair": [2, 3], "got": ["-2", "0"] + zeros,
             "want": ["-3", "0"] + zeros},
            {"pair": [4, 5], "got": ["-4", "-8"] + zeros,
             "want": ["0", "0"] + zeros},
        ]

    def test_passes_without_sympy(self):
        # sympy is only a test reference: block its import in a fresh
        # interpreter and run the whole selftest
        code = ("import sys\n"
                "sys.modules['sympy'] = None\n"
                "from skewweyl import cli\n"
                "sys.exit(cli.run(['selftest']))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True


class TestErrors:
    def test_missing_file(self):
        assert run(["closure", "--gens", "/nonexistent/g.json"]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        # unclosed, and nested too deep for the decoder (a RecursionError,
        # not a ValueError)
        for text in ("{not json", "[" * 100_000 + "]" * 100_000):
            path.write_text(text)
            err = assert_input_error(["closure", "--gens", str(path)], capsys)
            assert "invalid JSON" in err

    def test_bad_element(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"skew": [{"sigma": "?", "alpha": 1,
                                               "beta": 0, "coeff": "1"}]}]))
        assert run(["closure", "--gens", str(path)]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_negative_powers_rejected(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([
            {"skew": [{"sigma": "+", "alpha": -1, "beta": -2, "coeff": "1"}]},
            skew_to_json(mono(MINUS, 1, 0))]))
        assert_input_error(["closure", "--gens", str(path)], capsys)

    def test_zero_denominator_coefficient(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([{"skew": [
            {"sigma": "+", "alpha": 1, "beta": 0, "coeff": "1/0"}]}]))
        assert_input_error(["closure", "--gens", str(path)], capsys)

    def test_exponent_coefficient_is_usage_error_at_once(self, tmp_path,
                                                         capsys):
        # Fraction("1e10000000") is 10^(10^7): it took seconds to build and
        # failed only when written out, as a domain error
        path = tmp_path / "g.json"
        path.write_text('[{"skew":[{"sigma":"+","alpha":1,"beta":0,'
                        '"coeff":"1e10000000"}]}]')
        start = time.perf_counter()
        assert_input_error(["closure", "--gens", str(path)], capsys)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("coeff", [
        0.1, True, "1e3", "0.5", " 1", "1_0", "\u0663", "1/", "1/-2"])
    def test_inexact_coefficient_rejected(self, tmp_path, capsys, coeff):
        # floats, booleans and strings outside [+-]?digits[/digits]
        path = tmp_path / "g.json"
        path.write_text(json.dumps([{"skew": [
            {"sigma": "+", "alpha": 1, "beta": 0, "coeff": coeff}]}]))
        err = assert_input_error(["closure", "--gens", str(path)], capsys)
        assert "element 0: bad skew term at index 0" in err

    def test_fractional_power_rejected(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([{"skew": [
            {"sigma": "+", "alpha": 1.7, "beta": 0, "coeff": "1"}]}]))
        assert_input_error(["closure", "--gens", str(path)], capsys)

    def test_input_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_bytes(b"\xff\xfe[]")
        assert_input_error(["closure", "--gens", str(path)], capsys)

    def test_directory_as_input(self, tmp_path, capsys):
        assert_input_error(["closure", "--gens", str(tmp_path)], capsys)

    def test_controls_not_an_object(self, tmp_path, capsys):
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps([1.0, 0.0, 0.0]))
        assert_input_error(["simulate", "--algebra", "wh2",
                            "--controls", str(controls)], capsys)

    @pytest.mark.parametrize("field,value", [("values", 5), ("h", None),
                                             ("t_final", float("inf"))])
    def test_malformed_controls_field(self, tmp_path, capsys, field, value):
        doc = {"preset": "constant", "values": [1.0, 0.0, 0.0],
               "t_final": 0.1, "h": 1e-2}
        doc[field] = value
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps(doc))
        assert_input_error(["simulate", "--algebra", "wh2",
                            "--controls", str(controls)], capsys)

    @pytest.mark.parametrize("dim", ["0", "8", "15"])
    def test_fock_dim_below_bound(self, tmp_path, capsys, monkeypatch, dim):
        # rejected before the factor solve runs
        def no_solve(spec):
            raise AssertionError("solved before checking --fock-dim")

        monkeypatch.setattr(wei_norman, "wh2_factors", no_solve)
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({
            "preset": "constant", "values": [1.0, 0.0, 0.0],
            "t_final": 0.1, "h": 1e-2}))
        assert_input_error(["simulate", "--algebra", "wh2", "--controls",
                            str(controls), "--fock-dim", dim], capsys)

    def test_sinusoid_with_an_extra_amplitude(self, tmp_path, capsys):
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({
            "preset": "sinusoid", "amplitudes": [1, 2, 3, 4],
            "frequencies": [1, 2, 3], "t_final": 0.1, "h": 1e-2}))
        assert_input_error(["simulate", "--algebra", "wh2", "--controls",
                            str(controls), "--fock-dim", "16"], capsys)

    def test_fock_dim_at_bound(self, tmp_path, capsys):
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({
            "preset": "constant", "values": [1.0, 0.0, 0.0],
            "t_final": 0.1, "h": 1e-2}))
        assert run(["simulate", "--algebra", "wh2", "--controls",
                    str(controls), "--fock-dim", "16"]) == 0
        assert capsys.readouterr().err == ""

    def test_igusa_element_file_with_two_elements(self, tmp_path, capsys):
        e1 = write_elements(tmp_path, "e1.json",
                            [mono(MINUS, 3, 0), mono(PLUS, 3, 0)])
        e2 = write_elements(tmp_path, "e2.json", [mono(PLUS, 3, 0)])
        assert_input_error(["igusa", "--e1", e1, "--e2", e2], capsys)

    @pytest.mark.parametrize("flag", ["--budget-dim", "--budget-deg"])
    def test_zero_budget(self, tmp_path, capsys, flag):
        gens = write_elements(tmp_path, "g.json", [mono(PLUS, 1, 0)])
        assert_input_error(["closure", "--gens", gens, flag, "0"], capsys)

    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--samples", "0"]],
                             ids=["seed", "samples"])
    def test_igusa_has_no_search_knobs(self, tmp_path, capsys, flag):
        # the search decides, with a fixed frame family: nothing to tune
        e1 = write_elements(tmp_path, "e1.json", [mono(MINUS, 3, 0)])
        e2 = write_elements(tmp_path, "e2.json", [mono(PLUS, 3, 0)])
        assert_input_error(["igusa", "--e1", e1, "--e2", e2, *flag], capsys)

    @pytest.mark.parametrize("controls", [
        {"preset": "constant", "values": [1.0, 0.0, 0.0], "t_final": 0.004,
         "h": 1e-2},
        {"h": 1e-2, "controls": [[1.0], [0.0], [0.0]]},
        {"h": 1e-2, "controls": [1.0, 0.0, 0.0]},
        {"h": float("inf"), "controls": [[1.0, 1.0], [0.0] * 2, [0.0] * 2]},
        # the grid's numbers are JSON numbers: never parsed from a string,
        # nor read from a boolean
        {"preset": "constant", "values": [1.0, 0.0, 0.0], "t_final": 0.05,
         "h": "1e-3"},
        {"preset": "constant", "values": [1.0, 0.0, 0.0], "t_final": True,
         "h": 1e-2},
        {"h": 1e-2, "controls": [["1", "2"], [0, 0], [True, False]]},
    ], ids=["t_final_below_half_step", "one_sample", "flat_samples",
            "infinite_step", "string_step", "boolean_t_final",
            "string_and_boolean_samples"])
    def test_unusable_control_grid(self, tmp_path, capsys, controls):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(controls))
        assert_input_error(["simulate", "--algebra", "wh2", "--controls",
                            str(path), "--fock-dim", "16"], capsys)

    @pytest.mark.parametrize("controls, message", [
        ({"preset": "constant", "values": 3}, "values must be a list"),
        ({"preset": "sinusoid", "amplitudes": 3, "frequencies": [1, 2, 3]},
         "amplitudes must be a list"),
        ({"preset": "sinusoid", "amplitudes": [1, 2, 3],
          "frequencies": {"1": 2}}, "frequencies must be a list"),
        ({"preset": "sinusoid", "amplitudes": [1, 2, 3],
          "frequencies": [1, 2, 3], "phases": None}, "phases must be a list"),
        ({"controls": [[], [], []]}, "needs at least two samples"),
    ], ids=["values", "amplitudes", "frequencies", "phases", "empty_rows"])
    def test_control_parameter_that_is_not_a_list(self, tmp_path, capsys,
                                                  controls, message):
        # the error names the field, not a len() of some other type
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"t_final": 0.1, "h": 1e-2, **controls}))
        err = assert_input_error(["simulate", "--algebra", "wh2",
                                  "--controls", str(path)], capsys)
        assert message in err

    def test_deterministic_output(self, tmp_path, capsys):
        gens = write_elements(tmp_path, "g.json", schrodinger_monomials())
        run(["closure", "--gens", gens])
        first = capsys.readouterr().out
        run(["closure", "--gens", gens])
        assert capsys.readouterr().out == first


class TestArithmeticOverflow:
    """An overflow, of the float range, of memory or of the JSON writer's
    digit limit, is a domain error:
    exit 1 with one `error:` line."""

    @staticmethod
    def assert_domain_error(argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1, err
        assert "Traceback" not in err
        # outside a test run every warning is one more stderr line
        assert not caught, [str(w.message) for w in caught]
        return err

    def test_igusa_coefficient_beyond_float_range(self, tmp_path, capsys):
        # the leading coefficients 1e400 have no float value
        big = Fraction(10) ** 400
        e1 = write_elements(tmp_path, "e1.json", [
            mono(PLUS, 3, 0).scale(big) + mono(PLUS, 1, 0)])
        e2 = write_elements(tmp_path, "e2.json", [
            mono(MINUS, 4, 1).scale(big) + mono(PLUS, 2, 0)])
        self.assert_domain_error(["igusa", "--e1", e1, "--e2", e2], capsys)

    @pytest.mark.parametrize("command", ["closure", "igusa"])
    def test_identity_certificate_beyond_float_range(self, tmp_path, capsys,
                                                     command):
        # the identity frame certifies the pair with a0·b0 = 10^400, which
        # has no float value
        e1 = mono(MINUS, 3, 0).scale(Fraction(10) ** 400) + mono(MINUS, 2, 1)
        e2 = mono(MINUS, 4, 0)
        if command == "closure":
            argv = ["closure", "--gens",
                    write_elements(tmp_path, "g.json", [e1, e2])]
        else:
            argv = ["igusa", "--e1", write_elements(tmp_path, "e1.json", [e1]),
                    "--e2", write_elements(tmp_path, "e2.json", [e2])]
        err = self.assert_domain_error(argv, capsys)
        assert "identity-frame certificate" in err
        assert "outside the float range" in err

    def test_result_coefficient_beyond_the_writer_limit(self, tmp_path,
                                                        capsys):
        # [c g+(2,0), c g-(2,0)] has a coefficient of about c², 5001 digits,
        # past the process-wide limit on writing an int as text
        c = Fraction(10) ** 2500
        gens = write_elements(tmp_path, "g.json", [
            mono(PLUS, 2, 0).scale(c), mono(MINUS, 2, 0).scale(c)])
        limit = sys.get_int_max_str_digits()
        err = self.assert_domain_error(["closure", "--gens", gens], capsys)
        assert f"more than {limit} digits" in err
        assert "set_int_max_str_digits" not in err
        assert sys.get_int_max_str_digits() == limit

    def test_squeeze_overflows_inside_a_step(self, tmp_path, capsys):
        # an RK4 stage drives f4 past the float range before the check at
        # the grid node
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({
            "preset": "constant", "values": [1, 0, 0, 1e200, 0],
            "t_final": 0.01, "h": 1e-3}))
        self.assert_domain_error(["simulate", "--algebra", "schrodinger",
                                  "--controls", str(controls),
                                  "--fock-dim", "16"], capsys)

    @pytest.mark.parametrize("algebra, values", [
        # the wh2 phase quadrature overflows at the first grid node
        ("wh2", [1, 1e300, 1e300]),
        # the factors stay finite; the oracle's state turns NaN and its
        # drift guard is what stops it
        ("schrodinger", [0, 0, 0, 0, 1e300]),
    ])
    def test_simulate_controls_beyond_float_range(self, algebra, values,
                                                  tmp_path, capsys):
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({
            "preset": "constant", "values": values,
            "t_final": 0.01, "h": 1e-3}))
        self.assert_domain_error(["simulate", "--algebra", algebra,
                                  "--controls", str(controls),
                                  "--fock-dim", "16"], capsys)

    def test_simulate_grid_beyond_memory(self, tmp_path, capsys):
        # 10^15 steps: numpy refuses the 7 PiB sample grid, which is past
        # the 48-bit virtual address space, so no memory is ever committed
        controls = tmp_path / "c.json"
        controls.write_text(json.dumps({
            "preset": "constant", "values": [1, 0.1, 0.1],
            "t_final": 1e15, "h": 1.0}))
        self.assert_domain_error(["simulate", "--algebra", "wh2",
                                  "--controls", str(controls)], capsys)
