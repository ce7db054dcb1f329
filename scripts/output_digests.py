"""Print one SHA-256 digest of every benchmark task's output, per workload
and seed.

    python3 scripts/output_digests.py [--workload W ...] [--seed N ...]

The tasks of one pass are built by `perfbench/workloads.py` and run once,
in this process, through `perfbench/harness.py`, as the benchmark runs
them, on the skewweyl sources of this checkout.  The digest covers each
call's exit code, stdout and stderr, in task order.  Run on two checkouts,
equal digests mean byte-identical outputs.  The path of the directory the
inputs are written to is replaced by a fixed name before hashing, so a
digest does not depend on it.  The defaults are every workload,
`dynamics` included, and seeds 3, 11, 29 and 404.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one BLAS thread, as the benchmark runs, before numpy can load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402
import workloads  # noqa: E402


def digest(workload: str, seed: int) -> tuple:
    """(hex digest, number of tasks) of one pass of `workload` at `seed`."""
    tasks = workloads.build(workload, seed)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        argvs = workloads.materialise(tasks, workdir)
        results, _ = harness.run_pass(tasks, argvs, workdir)
    h = hashlib.sha256()
    for calls in results:
        doc = json.dumps([[c.code, c.out, c.err] for c in calls])
        h.update(doc.replace(str(workdir), "<inputs>").encode())
        h.update(b"\n")
    return h.hexdigest(), len(tasks)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   choices=sorted(workloads.PASS_BLOCKS))
    p.add_argument("--seed", action="append", type=int)
    args = p.parse_args(argv)
    for workload in args.workload or workloads.PASS_BLOCKS:
        for seed in args.seed or [3, 11, 29, 404]:
            hexdigest, n = digest(workload, seed)
            print(f"{workload:<9} seed {seed:<4} {n:>4} tasks  {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
