"""Set-up phase of one workload: import what it calls and fill the lazy
caches, so that no timed task pays for either.

Run as a script it does this in the fresh interpreter it was started in and
prints the elapsed seconds and the mean of `PROBES` Python speed probes run
just after; `run.py` starts it several times per run to measure `setup_s`:

    python3 perfbench/warmup.py <workload>
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from pathlib import Path

#: modules each workload reaches through `skewweyl.cli.run`; `igusa` is
#: imported lazily by `lie_closure`, so every exact workload lists it
MODULES = {
    "glossary": ("skewweyl.cli", "skewweyl.enumerate", "skewweyl.classify",
                 "skewweyl.igusa"),
    "chains": ("skewweyl.cli", "skewweyl.classify", "skewweyl.igusa"),
    "verdicts": ("skewweyl.cli", "skewweyl.igusa"),
    "dynamics": ("skewweyl.cli", "skewweyl.fock_oracle",
                 "skewweyl.wei_norman"),
}

#: speed probes after the set-up, about 0.1 s
PROBES = 20


def warm(workload: str) -> None:
    """Import the workload's modules and fill the caches it would fill on
    its first task: the catalog fingerprints and the Wei–Norman adjoint
    matrices."""
    mods = {name: importlib.import_module(name) for name in MODULES[workload]}
    if "skewweyl.classify" in mods:
        mods["skewweyl.classify"]._catalog()
    if "skewweyl.wei_norman" in mods:
        mods["skewweyl.wei_norman"]._adjoints()


def main() -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    warm(sys.argv[1])
    elapsed = time.perf_counter() - t0
    from harness import python_probe

    probe = statistics.fmean(python_probe() for _ in range(PROBES))
    print(repr(elapsed), repr(probe))
    return 0


if __name__ == "__main__":
    sys.exit(main())
