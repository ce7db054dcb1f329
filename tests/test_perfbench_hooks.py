"""The benchmark's tracer patches program functions by name; a rename or a
deletion of one of them must fail here, not only in the benchmark's own
suite."""

import contextlib
import inspect
import io
import json
from pathlib import Path

from skewweyl import cli, fock_oracle, igusa, lie_engine, wei_norman

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    hooked = [(igusa, "transform"), (igusa, "symplectic_search"),
              (fock_oracle, "direct_propagator"),
              (wei_norman, "factored_propagator"), (lie_engine, "bracket")]
    before = [getattr(mod, name) for mod, name in hooked]
    tracer = Tracer()
    try:
        tracer.install()
        assert all(getattr(mod, name) is not fn
                   for (mod, name), fn in zip(hooked, before))
    finally:
        tracer.uninstall()
    assert all(getattr(mod, name) is fn
               for (mod, name), fn in zip(hooked, before))


def test_tracer_counts_rk4_steps_of_simulate(monkeypatch, tmp_path):
    # the tracer reads direct_propagator's (spec, N) positionally and
    # `substeps` by keyword or else as 4
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    params = inspect.signature(fock_oracle.direct_propagator).parameters
    assert params["psi0"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["substeps"].default == 4
    t_final, h = 0.05, 1e-2
    controls = tmp_path / "controls.json"
    controls.write_text(json.dumps({
        "algebra": "wh2", "preset": "constant", "values": [1.0, 0.2, 0.1],
        "t_final": t_final, "h": h}))
    tracer = Tracer()
    try:
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["simulate", "--algebra", "wh2", "--controls",
                            str(controls), "--fock-dim", "16"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["rk4_steps"] == round(t_final / (h / 4))
