"""Output checks, run after the timed region.

`check(task, outputs)` takes a task and the stdout documents of its CLI
calls (already parsed from JSON) and returns None when the output is right,
or a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from skewweyl.enumerate import GLOSSARY_NONABELIAN_COUNTS, brute_force_subalgebras
from skewweyl.igusa import IgusaCertificate, SymplecticParams, verify_certificate
from skewweyl.lie_engine import (
    InfinitenessWitness,
    LieSpan,
    bracket,
    span_is_bracket_closed,
    verify_chain_witness,
)
from skewweyl.weyl_core import (
    MINUS,
    NEG_INF,
    PLUS,
    SkewPoly,
    skew_from_json,
    subspace_of,
)

#: dimensions of the 22 glossary spans, as in the acceptance gate
GLOSSARY_DIMS = {1: 6, 2: 7, 3: 4, 4: 4, 6: 1}

#: acceptance-08 tolerances
FIDELITY_MIN = 1 - 1e-5
RESIDUAL_MAX = 1e-8

_SCHRODINGER_KEYS = {(PLUS, (0, 0)), (PLUS, (1, 1)), (PLUS, (1, 0)),
                     (MINUS, (1, 0)), (PLUS, (2, 0)), (MINUS, (2, 0))}


def _elements(docs) -> List[SkewPoly]:
    return [skew_from_json(d) for d in docs]


def _span_key(docs) -> tuple:
    return LieSpan(_elements(docs)).canonical_key()


# ---------------------------------------------------------------------------
# glossary
# ---------------------------------------------------------------------------

def check_glossary(records: list) -> Optional[str]:
    if len(records) != 22:
        return f"{len(records)} spans, want 22"
    dims, names = {}, {}
    for r in records:
        dims[r["dim"]] = dims.get(r["dim"], 0) + 1
        names[r["catalog"]["name"]] = names.get(r["catalog"]["name"], 0) + 1
    if dims != GLOSSARY_DIMS:
        return f"dimension counts {dims}, want {GLOSSARY_DIMS}"
    for name, want in GLOSSARY_NONABELIAN_COUNTS.items():
        if names.get(name, 0) != want:
            return f"{names.get(name, 0)} realizations of {name}, want {want}"
    return None


def check_oracle(records: list, basis_docs: list) -> Optional[str]:
    got = {_span_key(r["basis"]) for r in records}
    if len(got) != len(records):
        return "enumeration lists a span twice"
    want = {sp.canonical_key()
            for sp in brute_force_subalgebras(_elements(basis_docs))}
    if got != want:
        return (f"{len(got)} spans differ from the brute-force oracle's "
                f"{len(want)}")
    return None


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def check_chain(outputs: list, expect: dict) -> Optional[str]:
    closure, n = outputs[0], expect["n"]
    if "budget_dim" in expect:
        if closure["outcome"] != "inconclusive":
            return f"outcome {closure['outcome']} under a budget below n+2"
        budget = closure["budget"]
        if budget["max_dim"] != expect["budget_dim"]:
            return "budget report names another max_dim"
        if not budget["dim_reached"] > budget["max_dim"]:
            return "inconclusive without exceeding the dimension budget"
        return None
    if closure["outcome"] != "finite" or closure["dim"] != n + 2:
        return (f"closure {closure['outcome']} dim {closure.get('dim')}, "
                f"want finite dim {n + 2}")
    if len(outputs) != 2:
        return "classify did not run"
    entry = outputs[1]
    if entry["dim"] != n + 2:
        return f"classify dim {entry['dim']}, want {n + 2}"
    cat = entry["catalog"]
    if cat["name"] != "L_n" or cat["parameters"] != [str(n + 1)]:
        return f"catalog {cat['name']}{cat['parameters']}, want L_n[{n + 1}]"
    return None


# ---------------------------------------------------------------------------
# verdicts: closure
# ---------------------------------------------------------------------------

def _is_drift(g: SkewPoly) -> bool:
    """g = i(w a†a + c) with w != 0."""
    return (set(g.terms) <= {(PLUS, (1, 1)), (PLUS, (0, 0))}
            and bool(g.coeff(PLUS, (1, 1))))


def _in_eq_block(g: SkewPoly) -> bool:
    return g == g.project("A0") + g.project("Aeq")


def _mixed_condition(kerr: SkewPoly, partner: SkewPoly,
                     gens: List[SkewPoly]) -> bool:
    """The stated condition of one of the three MixedEqAndQuad rules."""
    quad = partner.project("A1") + partner.project("A2")
    # drift rule: a drift with w > 0, Kerr support, linear/quadratic support
    if (any(_is_drift(g) and g.coeff(PLUS, (1, 1)) > 0 for g in gens)
            and kerr.project("Aeq") and quad):
        return True
    # low-degree rule: kerr in span(A0, Aeq), partner in A0 + A1 + A2
    if (kerr.project("Aeq") and _in_eq_block(kerr) and quad
            and partner == partner.project("A0") + quad):
        return True
    # leading rule: pure Kerr-type top of degree >= 4, partner's
    # off-diagonal part of maximal degree
    top = kerr.top_part()
    off = partner - partner.project("A0") - partner.project("Aeq")
    rest = partner - off
    return (top.degree != NEG_INF and top.degree >= 4 and len(top.terms) == 1
            and all(subspace_of(*k) == "Aeq" for k in top.terms)
            and bool(off) and (not rest or off.degree >= rest.degree))


def _monomial_set_is_infinite(keys: set) -> bool:
    """Negation of decide_monomial_set's three finite cases."""
    monos = [SkewPoly.monomial(s, g) for s, g in keys]
    if all(not bracket(x, y) for x, y in itertools.combinations(monos, 2)):
        return False
    perp = [k for k in keys if subspace_of(*k) == "Aperp"]
    if not perp and keys <= _SCHRODINGER_KEYS:
        return False
    if len(perp) == 1 and all(k == perp[0] or k == (PLUS, (0, 0))
                              for k in keys):
        return False
    return True


def _check_rule(rule: str, ev: dict, gens: List[SkewPoly]) -> Optional[str]:
    if rule == "ChainDegreeGrowth":
        if not verify_chain_witness(InfinitenessWitness(rule, ev)):
            return "chain witness does not verify"
        chain, aux = _elements(ev["chain"]), _elements(ev["aux"])
        if chain[0] not in gens or any(a not in gens for a in aux):
            return "chain witness does not start from the generators"
        return None
    if rule == "IgusaCertificate":
        e1, e2 = _elements(ev["pair"])
        if e1 not in gens or e2 not in gens:
            return "certified pair is not among the generators"
        cert = IgusaCertificate("infinite", None, complex(*ev["a0b0"]),
                                complex(*ev["delta"]))
        return None if verify_certificate(cert, e1, e2) else \
            "identity-frame certificate does not verify"
    if rule == "PerpWithFreeHam":
        drift = skew_from_json(ev["drift"])
        offender = skew_from_json(ev["offender"])
        if drift not in gens or offender not in gens:
            return "witness elements are not among the generators"
        if not _is_drift(drift) or not offender.project("Aperp"):
            return "PerpWithFreeHam condition fails on its witness"
        return None
    if rule == "MixedEqAndQuad":
        kerr = skew_from_json(ev["kerr_element"])
        partner = skew_from_json(ev.get("quadratic_element") or ev["partner"])
        if kerr not in gens or partner not in gens:
            return "witness elements are not among the generators"
        return None if _mixed_condition(kerr, partner, gens) else \
            "MixedEqAndQuad condition fails on its witness"
    if rule == "MonomialGlossaryViolation":
        keys = {({"+": PLUS, "-": MINUS}[m["sigma"]], (m["alpha"], m["beta"]))
                for m in ev["monomials"]}
        if not all(g.is_monomial() for g in gens):
            return "monomial rule on non-monomial generators"
        if keys != {k for g in gens for k in g.terms}:
            return "listed monomials differ from the generators"
        return None if _monomial_set_is_infinite(keys) else \
            "listed monomials fall in a finite case"
    return f"unknown rule {rule!r}"


def check_closure(doc: dict, expect: dict) -> Optional[str]:
    gens = [g for g in _elements(expect["gens"]) if g]
    outcome = doc["outcome"]
    if outcome == "finite":
        basis = _elements(doc["basis"])
        span = LieSpan(basis)
        if span.dim != doc["dim"] or span.dim != len(basis):
            return "finite basis is not linearly independent"
        if not all(span.contains(g) for g in gens):
            return "finite span misses a generator"
        if not span_is_bracket_closed(span):
            return "finite span is not bracket-closed"
        return None
    if outcome == "infinite":
        return _check_rule(doc["rule"], doc["witness"], gens)
    if outcome == "inconclusive":
        b = doc["budget"]
        if b["max_dim"] != expect.get("budget_dim", 64):
            return "budget report names another max_dim"
        if b["dim_reached"] > b["max_dim"] or b["degree_reached"] > b["max_degree"]:
            return None
        return "inconclusive inside its budget"
    return f"unknown outcome {outcome!r}"


# ---------------------------------------------------------------------------
# verdicts: igusa
# ---------------------------------------------------------------------------

def check_igusa(doc: dict, expect: dict) -> Optional[str]:
    if doc["verdict"] == "inconclusive":
        return None
    if expect["proportional"]:
        return "a proportional pair was certified infinite"
    if doc["verdict"] != "infinite":
        return f"unknown verdict {doc['verdict']!r}"
    sigma = doc["sigma"]
    params = None if sigma == "identity" else SymplecticParams(
        sigma["s"], sigma["phi"], sigma["theta"])
    cert = IgusaCertificate("infinite", params, complex(*doc["a0b0"]),
                            complex(*doc["delta"]))
    e1, e2 = skew_from_json(expect["e1"]), skew_from_json(expect["e2"])
    return None if verify_certificate(cert, e1, e2) else \
        "certificate does not verify"


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def check_simulate(doc: dict, expect: dict) -> Optional[str]:
    rows = 3 if expect["algebra"] == "wh2" else 5
    if len(doc["f"]) != rows or len(doc["f"][0]) != expect["n_steps"] + 1:
        return "factor array has the wrong shape"
    if not doc["fidelity_vs_oracle"] >= FIDELITY_MIN:
        return f"fidelity {doc['fidelity_vs_oracle']!r} below 1 - 1e-5"
    if not doc["residual"] < RESIDUAL_MAX:
        return f"residual {doc['residual']!r} not below 1e-8"
    return None


def check(task, outputs: list) -> Optional[str]:
    """Check one task's parsed outputs against its expectations."""
    try:
        if task.kind == "glossary":
            return check_glossary(outputs[0])
        if task.kind == "oracle":
            return check_oracle(outputs[0], task.expect["basis"])
        if task.kind == "chain":
            return check_chain(outputs, task.expect)
        if task.kind == "closure":
            return check_closure(outputs[0], task.expect)
        if task.kind == "igusa":
            return check_igusa(outputs[0], task.expect)
        if task.kind == "simulate":
            return check_simulate(outputs[0], task.expect)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return f"unknown task kind {task.kind!r}"
