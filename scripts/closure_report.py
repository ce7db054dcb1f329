#!/usr/bin/env python3
"""Decide finiteness of the Lie closure for a few instructive generator
sets and print the verdicts with their witnesses."""

import json
import sys

from skewweyl.lie_engine import lie_closure
from skewweyl.weyl_core import MINUS, PLUS, SkewPoly, number_op

M = SkewPoly.monomial

CASES = [
    ("displacements", [M(PLUS, (1, 0)), M(MINUS, (1, 0))]),
    ("all six low-degree monomials",
     [M(PLUS, (0, 0)), number_op(), M(PLUS, (1, 0)), M(MINUS, (1, 0)),
      M(PLUS, (2, 0)), M(MINUS, (2, 0))]),
    ("drift + Kerr", [number_op(), M(PLUS, (2, 2))]),
    ("drift + Kerr + displacement",
     [number_op(), M(PLUS, (2, 2)), M(PLUS, (1, 0))]),
    ("drift + cubic", [number_op(), M(PLUS, (2, 1))]),
    ("cubic pair", [M(MINUS, (3, 0)), M(PLUS, (3, 0))]),
]


def main() -> int:
    for name, gens in CASES:
        out = lie_closure(gens)
        doc = out.to_json()
        line = f"{name}: {doc['outcome']}"
        if doc["outcome"] == "finite":
            line += f" (dim {doc['dim']})"
        else:
            line += f" [{doc['rule']}]"
        print(line)
        if doc.get("witness"):
            print("  witness: "
                  + json.dumps(doc["witness"], sort_keys=True)[:200])
    return 0


if __name__ == "__main__":
    sys.exit(main())
