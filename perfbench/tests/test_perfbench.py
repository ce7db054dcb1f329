"""Tests of the benchmark itself: deterministic inputs, output checks that
reject corrupted outputs, and a tiny smoke run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from warmup import MODULES  # noqa: E402

from skewweyl import cli, lie_engine  # noqa: E402


def _run(tasks, tmp_path, tracer=None):
    argvs = workloads.materialise(tasks, tmp_path)
    if tracer is None:
        results = harness.run_pass(tasks, argvs, tmp_path)[0]
    else:
        tracer.install()
        try:
            results = harness.run_pass(tasks, argvs, tmp_path, tracer)[0]
        finally:
            tracer.uninstall()
    return [harness.verdict(t, calls, checks.check)
            for t, calls in zip(tasks, results)], results


def _docs(calls):
    return [json.loads(c.out) for c in calls]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", MODULES)
def test_inputs_are_deterministic_per_seed(workload):
    a = workloads.build(workload, 5)
    assert a == workloads.build(workload, 5)
    assert a != workloads.build(workload, 6)


@pytest.mark.parametrize("workload", MODULES)
def test_every_seed_gives_a_pass_of_the_same_composition(workload):
    def shapes(seed):
        # verdicts draws each tight budget from the seed
        return sorted((t.kind, tuple("N" if prev == "--budget-dim" else a
                                     for prev, a in zip([""] + t.argv, t.argv)
                                     if a not in t.files))
                      for t in workloads.build(workload, seed))

    assert shapes(1) == shapes(2)
    one = workloads.build(workload, 1, blocks=1)
    assert len(workloads.build(workload, 1)) == (
        workloads.PASS_BLOCKS[workload] * len(one))


def test_chain_generators_span_the_filiform_chain():
    import random

    gens = workloads.chain_generators(random.Random(0), 4)
    out = lie_engine.lie_closure(gens)
    assert out.outcome == "finite" and out.dim == 6


# ---------------------------------------------------------------------------
# checks reject corrupted outputs
# ---------------------------------------------------------------------------

def test_glossary_checks_reject_a_wrong_span_count(tmp_path):
    tasks = workloads.build("glossary", 3, blocks=1)[1:3]
    verdicts, results = _run(tasks, tmp_path)
    assert [v[0] for v in verdicts] == ["ok", "ok"]
    for task, calls in zip(tasks, results):
        (records,) = _docs(calls)
        assert checks.check(task, [records[1:]]) is not None


def test_glossary_check_rejects_a_wrong_catalog_count(tmp_path):
    task = workloads.build("glossary", 3, blocks=1)[0]
    (records,) = _docs(_run([task], tmp_path)[1][0])
    sl2 = next(r for r in records if r["catalog"]["name"] == "sl2")
    sl2["catalog"]["name"] = "Unrecognized"
    assert "sl2" in checks.check(task, [records])


def test_chain_check_rejects_wrong_dimension_and_parameter(tmp_path):
    tasks = workloads.build("chains", 2, tiny=True)
    verdicts, results = _run(tasks, tmp_path)
    assert all(v == ("ok", None) for v in verdicts)
    task, calls = next((t, c) for t, c in zip(tasks, results) if len(c) == 2)
    closure, entry = _docs(calls)
    bad = copy.deepcopy(entry)
    bad["catalog"]["parameters"] = ["99"]
    assert checks.check(task, [closure, bad]) is not None
    bad = dict(closure, dim=closure["dim"] - 1)
    assert checks.check(task, [bad, entry]) is not None
    capped = next(t for t in tasks if "budget_dim" in t.expect)
    assert checks.check(capped, [closure]) is not None


def _verdict_outputs(tmp_path, seed=4):
    tasks = workloads.build("verdicts", seed, blocks=25)
    verdicts, results = _run(tasks, tmp_path)
    assert all(kind != "wrong" for kind, _ in verdicts)
    return [(t, _docs(c)[0]) for t, c, (kind, _) in
            zip(tasks, results, verdicts) if kind == "ok"]


def test_closure_checks_reject_tampered_witnesses(tmp_path):
    outputs = _verdict_outputs(tmp_path)
    seen = set()
    for task, doc in outputs:
        if task.kind != "closure":
            continue
        rule = doc.get("rule", doc["outcome"])
        if rule in seen:
            continue
        seen.add(rule)
        bad = copy.deepcopy(doc)
        if rule == "ChainDegreeGrowth":
            bad["witness"]["chain"][2]["skew"][0]["coeff"] += "1"
        elif rule == "IgusaCertificate":
            bad["witness"]["delta"][0] += 1.0
        elif rule == "PerpWithFreeHam":
            bad["witness"]["offender"] = bad["witness"]["drift"]
        elif rule == "MixedEqAndQuad":
            bad["witness"]["kerr_element"] = {"skew": [
                {"sigma": "+", "alpha": 0, "beta": 0, "coeff": "1"}]}
        elif rule == "MonomialGlossaryViolation":
            bad["witness"]["monomials"] = bad["witness"]["monomials"][:1]
        elif rule == "finite":
            bad["basis"] = bad["basis"][:-1]
            bad["dim"] -= 1
        elif rule == "inconclusive":
            bad["budget"]["dim_reached"] = bad["budget"]["max_dim"]
        assert checks.check(task, [doc]) is None, rule
        assert checks.check(task, [bad]) is not None, rule
    assert seen >= {"finite", "ChainDegreeGrowth", "MonomialGlossaryViolation",
                    "PerpWithFreeHam"}


def test_finite_check_rejects_an_unclosed_span():
    gens = [{"skew": [{"sigma": "+", "alpha": 1, "beta": 0, "coeff": "1"}]},
            {"skew": [{"sigma": "-", "alpha": 1, "beta": 0, "coeff": "1"}]}]
    task = workloads.Task("closure", {}, [], {"gens": gens})
    doc = {"outcome": "finite", "dim": 2, "basis": gens}
    assert "bracket-closed" in checks.check(task, [doc])


def test_igusa_check_rejects_a_certified_proportional_pair(tmp_path):
    outputs = _verdict_outputs(tmp_path)
    prop = next(t for t, d in outputs
                if t.kind == "igusa" and t.expect["proportional"])
    fake = {"identity_verdict": "inconclusive", "verdict": "infinite",
            "sigma": "identity", "a0b0": [1.0, 0.0], "delta": [1.0, 0.0]}
    assert "proportional" in checks.check(prop, [fake])
    cert = next(((t, d) for t, d in outputs
                 if t.kind == "igusa" and d["verdict"] == "infinite"), None)
    if cert is not None:
        task, doc = cert
        assert checks.check(task, [doc]) is None
        bad = dict(doc, delta=[doc["delta"][0] + 1.0, doc["delta"][1]])
        assert checks.check(task, [bad]) is not None


def test_simulate_check_rejects_low_fidelity_and_large_residual():
    task = workloads.Task("simulate", {}, [],
                          {"algebra": "wh2", "n_steps": 2})
    doc = {"f": [[0.0] * 3] * 3, "fidelity_vs_oracle": 1.0,
           "residual": 1e-12}
    assert checks.check(task, [doc]) is None
    assert checks.check(task, [dict(doc, fidelity_vs_oracle=1 - 2e-5)])
    assert checks.check(task, [dict(doc, residual=2e-8)])
    assert checks.check(task, [dict(doc, f=[[0.0] * 3] * 5)])


def test_escaped_exceptions_count_as_crashes():
    def boom(argv):
        raise AssertionError("budget")

    call = harness.invoke(boom, [])
    assert call.code is None and "AssertionError" in call.err
    task = workloads.Task("closure", {}, [], {})
    assert harness.verdict(task, [call], checks.check)[0] == "crash"


def test_timed_passes_repeat_the_list_and_share_equal_outputs(tmp_path):
    tasks = workloads.build("verdicts", 1, blocks=1)
    argvs = workloads.materialise(tasks, tmp_path)
    results, latencies, probes = harness.timed_passes(
        tasks, argvs, tmp_path, 0.0, harness.python_probe)
    assert len(results) == len(latencies) == 2
    assert all(len(lat) == len(tasks) for lat in latencies)
    assert all(b is a for a, b in zip(*results))
    assert len(probes) >= 2 * harness.PROBE_REPEATS
    assert harness.per_task_medians([[1.0, 4.0], [3.0, 2.0], [2.0, 9.0]]) \
        == [2.0, 4.0]


@pytest.mark.parametrize("probe", set(harness.PROBES.values()))
def test_speed_factor_brings_the_mean_probe_to_the_reference(probe):
    assert probe() > 0
    ref = harness.PROBE_REF_S
    assert harness.speed_factor([ref, ref, 4 * ref]) == 0.5


def test_tail_has_ten_samples_beyond_it():
    t = harness.tail([float(i) for i in range(100)])
    assert t == {"value": 89.0, "percentile": 90.0, "beyond": 10,
                 "samples": 100}
    assert harness.tail([float(i) for i in range(20)])["value"] == 19.0
    assert harness.tail([3.0, 1.0])["beyond"] == 0


# ---------------------------------------------------------------------------
# smoke runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", MODULES)
def test_tiny_smoke_run(workload, tmp_path):
    tasks = workloads.build(workload, 1, tiny=True, blocks=1)
    verdicts, _ = _run(tasks, tmp_path)
    assert all(kind != "wrong" for kind, _ in verdicts), verdicts
    if workload != "verdicts":
        assert all(kind == "ok" for kind, _ in verdicts), verdicts


def test_traced_run_covers_every_layer_and_restores_the_code(tmp_path):
    originals = (cli.run, lie_engine.bracket, cli.bracket,
                 lie_engine.LieSpan.__dict__["insert"])
    tasks = [workloads.build(w, 1, tiny=True, blocks=1)[0]
             for w in MODULES]
    tracer = Tracer()
    verdicts, _ = _run(tasks, tmp_path, tracer)
    assert all(kind != "wrong" for kind, _ in verdicts)
    assert (cli.run, lie_engine.bracket, cli.bracket,
            lie_engine.LieSpan.__dict__["insert"]) == originals
    metrics = tracer.layer_metrics(0.0)
    assert list(metrics) == [name for name, _ in PER_LAYER]
    for name in ("weyl_core.mul_calls", "lie_engine.bracket_calls",
                 "classify.identify_calls", "enumerate.calls",
                 "wei_norman.expm_calls", "fock_oracle.direct_calls",
                 "cli.calls", "cli.out_bytes"):
        assert metrics[name] > 0, name
    assert metrics["cli.calls"] >= len(tasks)
    assert tracer.self_sum_error() < 1e-9
    out = tmp_path / "spans.csv.gz"
    tracer.write(out)
    assert out.stat().st_size > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verdicts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
