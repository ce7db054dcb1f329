"""The benchmark's tracer patches program functions by name; a rename or a
deletion of one of them must fail here, not only in the benchmark's own
suite."""

from pathlib import Path

from skewweyl import fock_oracle, igusa, lie_engine, wei_norman

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
