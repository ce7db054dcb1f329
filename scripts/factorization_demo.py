#!/usr/bin/env python3
"""Factorize a driven-oscillator propagator and compare against direct
time-ordered integration on a truncated number basis.

Example:
    python3 scripts/factorization_demo.py --algebra schrodinger \
        --u 1.0 0.2 0.1 0.0 0.1 --t-final 1.0 --fock-dim 96

The constant controls are written to a temporary controls file and run
through `skewweyl simulate`, whose JSON this script summarizes.  Bad input
exits 2 with the command's one `error:` line, which names the controls
file after the flags it is written from.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from skewweyl import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--algebra", choices=["wh2", "schrodinger"],
                    default="wh2")
    ap.add_argument("--u", type=float, nargs="+", default=[1.0, 0.2, 0.0],
                    help="constant control values (3 for wh2, 5 otherwise)")
    ap.add_argument("--t-final", type=float, default=2.0)
    ap.add_argument("--h", type=float, default=1e-3)
    ap.add_argument("--fock-dim", type=int, default=64)
    ap.add_argument("--csv", default=None,
                    help="write t, f_j(t), phase(t) samples here")
    args = ap.parse_args()

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        controls = Path(tmp) / "controls.json"
        controls.write_text(json.dumps({
            "algebra": args.algebra, "preset": "constant", "values": args.u,
            "t_final": args.t_final, "h": args.h}))
        argv = ["simulate", "--algebra", args.algebra, "--controls",
                str(controls), "--fock-dim", str(args.fock_dim)]
        if args.csv:
            argv += ["--csv", args.csv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    sys.stderr.write(err.getvalue().replace(
        str(controls), "controls (--u, --t-final, --h)"))
    if code:
        return code
    sol = json.loads(out.getvalue())

    print(f"method: {sol['method']}")
    if "error_estimate" in sol:
        print(f"step-halving error estimate: {sol['error_estimate']:.3e}")
    print(f"residual (finite-difference): {sol['residual']:.3e}")
    for j, f in enumerate(sol["f"]):
        print(f"f{j + 1}({args.t_final:g}) = {f[-1]: .10f}")
    print(f"phase({args.t_final:g}) = {sol['phase'][-1]: .10f}")
    print(f"vacuum fidelity vs direct propagator (N={args.fock_dim}): "
          f"{sol['fidelity_vs_oracle']:.12f}")
    if args.csv:
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
