"""Command-line interface.

Every subcommand reads JSON (files or flags) and writes a JSON document to
stdout.  Exit codes: 0 success, 1 domain error (a precondition of the
underlying operation failed, or the reader closed stdout), 2 usage error
(bad flags or malformed input).

The structural commands run on the standard library alone; numpy and scipy
are imported by `simulate`, when it runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import List

# `bracket` has no use here; the perfbench tests read `cli.bracket`
from .lie_engine import Budget, LieSpan, bracket, lie_closure
from .weyl_core import SkewPoly, schrodinger_monomials, skew_from_json


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    except (ValueError, RecursionError) as exc:
        # malformed JSON, bytes that are not UTF-8, or nesting too deep
        raise InputError(f"{path}: invalid JSON: {exc}")


def _load_elements(path: str) -> List[SkewPoly]:
    obj = _load_json(path)
    if isinstance(obj, dict) and "generators" in obj:
        obj = obj["generators"]
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list):
        raise InputError(f"{path}: expected an element list or "
                         '{"generators": [...]}')
    out = []
    for k, entry in enumerate(obj):
        try:
            out.append(skew_from_json(entry))
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"{path}: element {k}: {exc}")
    return out


def _emit(obj) -> None:
    sys.stdout.write(_dumps(obj))
    sys.stdout.write("\n")


_CONTAINERS = frozenset((dict, list, tuple))
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat(indent: str):
    """Encoder of a scalar, or of a container with no container inside, as
    `json` indents it at `indent`: the C encoder, with a line break and
    `indent` as its item separator.  It keeps no circular-reference marks,
    since what it is given holds no container."""
    sep = ",\n" + indent
    encoder = json.JSONEncoder(separators=(sep, ": "), sort_keys=True)
    if c_make_encoder is None:
        return encoder.encode
    c_encoder = c_make_encoder(None, encoder.default, encode_basestring_ascii,
                               None, ": ", sep, True, False, True)
    return lambda obj: "".join(c_encoder(obj, 0))


def _dumps(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), the same text.  Given an
    indent, `json` runs its pure-Python encoder; this one writes the
    nesting itself and hands scalars, and containers whose items all have
    an exact scalar type, to the C encoder in one call.  A container is
    told by its exact type first and by `isinstance` after, so subclasses
    are written as `json` writes them."""
    kind = type(obj)
    if kind not in _CONTAINERS:  # a subclass, or no container
        if not isinstance(obj, (dict, list, tuple)):
            return _flat(indent)(obj)
        kind = dict if isinstance(obj, dict) else list
    inner = indent + "  "
    if _SCALARS.issuperset(map(type, obj.values() if kind is dict else obj)):
        text = _flat(inner)(obj)
        if len(text) == 2:  # empty
            return text
        return text[0] + "\n" + inner + text[1:-1] + "\n" + indent + text[-1]
    if kind is dict:
        return "{\n" + inner + (",\n" + inner).join(
            _key(k) + ": " + _dumps(v, inner)
            for k, v in sorted(obj.items())) + "\n" + indent + "}"
    return "[\n" + inner + (",\n" + inner).join(
        _dumps(v, inner) for v in obj) + "\n" + indent + "]"


def _key(k) -> str:
    """A dict key as `json` writes it: a string, or the string that a
    number, a bool or None turns into."""
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    return _flat("")({k: None})[1:-len(": null}")]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_closure(args) -> int:
    try:
        budget = Budget(args.budget_dim, args.budget_deg)
    except ValueError as exc:
        raise InputError(f"--budget-dim, --budget-deg: {exc}")
    out = lie_closure(_load_elements(args.gens), budget)
    _emit(out.to_json())
    return 0


def _cmd_classify(args) -> int:
    from .classify import identify

    basis = _load_elements(args.basis)
    span = LieSpan(basis)
    entry = identify(span)
    _emit({"dim": span.dim,
           "fingerprint": entry.fingerprint.to_json(),
           "catalog": entry.to_json()})
    return 0


def _cmd_enumerate(args) -> int:
    from .enumerate import enumerate_subalgebras

    basis = _load_elements(args.basis)
    records = enumerate_subalgebras(basis)
    _emit([r.to_json() for r in records])
    return 0


def _cmd_igusa(args) -> int:
    from .igusa import symplectic_search

    pair = [_load_elements(path) for path in (args.e1, args.e2)]
    if any(len(elements) != 1 for elements in pair):
        raise InputError("--e1 and --e2 must each hold exactly one element")
    (e1,), (e2,) = pair
    # the search tries the exact identity frame first
    cert = symplectic_search(e1, e2)
    identity = cert is not None and cert.params is None
    out = {"identity_verdict": "infinite" if identity else "inconclusive"}
    out.update(cert.to_json() if cert else {"verdict": "inconclusive"})
    _emit(out)
    return 0


def _cmd_simulate(args) -> int:
    import numpy as np

    from .fock_oracle import MIN_DIM, direct_propagator, state_fidelity
    from .wei_norman import (ControlSpec, factored_propagator, residual_check,
                             schrodinger_factors, wh2_factors)

    if args.fock_dim < MIN_DIM:
        raise InputError(f"--fock-dim must be at least {MIN_DIM}")
    obj = _load_json(args.controls)
    if not isinstance(obj, dict):
        raise InputError(f"{args.controls}: expected a JSON object")
    obj.setdefault("algebra", args.algebra)
    if obj["algebra"] != args.algebra:
        raise InputError("--algebra disagrees with the controls file")
    try:
        spec = ControlSpec.from_json(obj)
    except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
        raise InputError(f"{args.controls}: {exc}")
    sol = wh2_factors(spec) if spec.algebra == "wh2" else schrodinger_factors(spec)
    N = args.fock_dim
    psi0 = np.zeros(N)
    psi0[0] = 1.0
    psi_fac = factored_propagator(sol, sol.f.shape[1] - 1, N, psi0=psi0)
    psi_dir = direct_propagator(spec, N, psi0=psi0)
    out = {
        "algebra": spec.algebra,
        "grid": {"h": spec.h, "n_steps": spec.n_steps},
        "method": sol.method,
        "f": sol.f.tolist(),
        "phase": sol.phase.tolist(),
        "residual": residual_check(spec, sol),
        "fidelity_vs_oracle": state_fidelity(psi_dir, psi_fac),
    }
    if sol.error_estimate is not None:
        out["error_estimate"] = sol.error_estimate
    if args.csv:
        header = ",".join(
            ["t"] + [f"f{j + 1}" for j in range(sol.f.shape[0])] + ["phase"]
        )
        rows = np.column_stack([sol.grid, sol.f.T, sol.phase])
        try:
            np.savetxt(args.csv, rows, delimiter=",", header=header,
                       comments="")
        except OSError as exc:
            raise InputError(f"{args.csv}: {exc.strerror or exc}")
    _emit(out)
    return 0


def _cmd_selftest(args) -> int:
    from .classify import StructureConstants, reference_structure
    from .enumerate import glossary_report

    report = {}
    got = StructureConstants.from_span(LieSpan(schrodinger_monomials())).table
    want = reference_structure("Schrodinger").table
    ok = 0
    failures = []
    for pair in itertools.combinations(range(6), 2):
        row = {name: [str(t.get(pair, {}).get(k, 0)) for k in range(6)]
               for name, t in (("got", got), ("want", want))}
        if row["got"] == row["want"]:
            ok += 1
        else:
            failures.append({"pair": list(pair), **row})
    report["table1"] = f"{ok}/15"
    gl = glossary_report()
    report["glossary"] = {
        "total_spans": gl["total_spans"],
        "dims": gl["dims"],
        "mismatches": gl["mismatches"],
    }
    passed = (ok == 15 and gl["total_spans"] == 22 and not gl["mismatches"])
    report["passed"] = passed
    if failures:
        report["table1_failures"] = failures
    _emit(report)
    return 0 if passed else 1


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """(the argument parser, its subcommand parsers by name), built once per
    process: parsing leaves them unchanged, and building them costs about as
    much as a small command."""
    p = argparse.ArgumentParser(
        prog="skewweyl",
        description="Exact Lie-algebraic tools for the single-mode "
                    "skew-hermitian Weyl algebra.",
        epilog="Exit codes: 0 success, 1 domain error, 2 usage/input error.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, fn, help):
        commands[name] = c = sub.add_parser(name, help=help)
        c.set_defaults(fn=fn)
        return c

    c = command("closure", _cmd_closure, "Lie closure of a generator set")
    c.add_argument("--gens", required=True)
    c.add_argument("--budget-dim", type=int, default=Budget().max_dim)
    c.add_argument("--budget-deg", type=int, default=Budget().max_degree)

    c = command("classify", _cmd_classify, "fingerprint and catalog match")
    c.add_argument("--basis", required=True)

    c = command("enumerate", _cmd_enumerate,
                "all subset-generated subalgebras")
    c.add_argument("--basis", required=True)

    c = command("igusa", _cmd_igusa, "two-element infiniteness certificate")
    c.add_argument("--e1", required=True)
    c.add_argument("--e2", required=True)

    c = command("simulate", _cmd_simulate, "factorized dynamics vs oracle")
    c.add_argument("--algebra", required=True, choices=["wh2", "schrodinger"])
    c.add_argument("--controls", required=True)
    c.add_argument("--fock-dim", type=int, default=64,
                   help="Fock truncation N, at least 16 (default 64)")
    c.add_argument("--csv", default=None)

    command("selftest", _cmd_selftest, "bracket table and glossary checks")
    return p, commands


def run(argv=None) -> int:
    """Run one command line (default: sys.argv[1:]) and return its exit
    code.  The parser of the subcommand that argv[0] names reads the rest;
    only when argv[0] names no subcommand, or arguments are left over, does
    the full parser read argv again, so usage, help and error texts are
    those of `skewweyl` parsing the whole line."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        sub = commands.get(argv[0]) if argv else None
        if sub is not None:
            args, rest = sub.parse_known_args(argv[1:])
            args.command = argv[0]
        if sub is None or rest:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit 1 without a traceback, and point
        # stdout at devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
