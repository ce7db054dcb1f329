#!/usr/bin/env python3
"""Factorize a driven-oscillator propagator and compare against direct
time-ordered integration on a truncated number basis.

Example:
    python3 scripts/factorization_demo.py --algebra schrodinger \
        --u 1.0 0.2 0.1 0.0 0.1 --t-final 1.0 --fock-dim 96
"""

import argparse
import sys

import numpy as np

from skewweyl.fock_oracle import direct_propagator, state_fidelity
from skewweyl.wei_norman import (ControlSpec, factored_propagator,
                                 residual_check, schrodinger_factors,
                                 wh2_factors)


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

    spec = ControlSpec.constant(args.algebra, args.u, args.t_final, args.h)
    sol = wh2_factors(spec) if args.algebra == "wh2" else \
        schrodinger_factors(spec)

    print(f"method: {sol.method}")
    if sol.error_estimate is not None:
        print(f"step-halving error estimate: {sol.error_estimate:.3e}")
    print(f"residual (finite-difference): "
          f"{residual_check(spec, sol):.3e}")
    for j in range(sol.f.shape[0]):
        print(f"f{j + 1}({args.t_final:g}) = {sol.f[j, -1]: .10f}")
    print(f"phase({args.t_final:g}) = {sol.phase[-1]: .10f}")

    N = args.fock_dim
    psi = np.zeros(N)
    psi[0] = 1.0
    fid = state_fidelity(factored_propagator(sol, spec.n_steps, N, psi0=psi),
                         direct_propagator(spec, N, psi0=psi))
    print(f"vacuum fidelity vs direct propagator (N={N}): {fid:.12f}")

    if args.csv:
        header = ",".join(["t"]
                          + [f"f{j + 1}" for j in range(sol.f.shape[0])]
                          + ["phase"])
        rows = np.column_stack([sol.grid, sol.f.T, sol.phase])
        np.savetxt(args.csv, rows, delimiter=",", header=header, comments="")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
