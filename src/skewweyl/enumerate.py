"""Enumeration of all subalgebras generated by subsets of a basis.

`lie_closure` decides the full basis once; every subset closure lies in that
finite ambient, so subsets are closed directly by the budgeted closure.  The
recursion mirrors the pruned depth-first strategy: starting from each basis
element, extend the current closed span one basis element at a time,
skipping extensions that are already inside the span (they cannot produce a
new algebra) and subtrees whose linear span already has the ambient's
dimension.  A naive closure over all 2^n - 1 subsets is provided as an
oracle; both agree as sets of subspaces.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .classify import CatalogEntry, identify
from .lie_engine import Budget, LieSpan, _raw_closure, lie_closure
from .weyl_core import SkewPoly, skew_to_json


class RealizationRecord(NamedTuple):
    generating_subset: Tuple[int, ...]
    span: LieSpan
    catalog: CatalogEntry

    def to_json(self) -> dict:
        return {
            "generating_subset": list(self.generating_subset),
            "dim": self.span.dim,
            "basis": [skew_to_json(b) for b in self.span.basis],
            "catalog": self.catalog.to_json(),
        }


def _closure_span(gens: Sequence[SkewPoly], budget: Budget,
                  within: Optional[LieSpan] = None) -> LieSpan:
    out = _raw_closure(gens, budget, within)
    if out.outcome != "finite":
        raise ValueError("closure exceeded budget during enumeration")
    return out.span


def enumerate_subalgebras(basis: Sequence[SkewPoly],
                          budget: Budget = Budget()) -> List[RealizationRecord]:
    """All distinct subalgebra spans generated by non-empty subsets of
    `basis`, each identified against the catalog.

    Errors out before enumerating if the full basis has no finite closure
    under `budget`, naming the rule that proved it infinite, or the
    dimension and degree at which an inconclusive closure stopped.
    """
    basis = list(basis)
    n = len(basis)
    if not n:
        return []
    if LieSpan(basis).dim != n:
        raise ValueError("basis elements must be linearly independent")
    full = lie_closure(basis, budget)
    if full.outcome == "infinite":
        raise ValueError("the full basis generates an infinite algebra "
                         f"(rule {full.witness.rule})")
    if full.outcome != "finite":
        report = full.budget_report
        raise ValueError(
            "the closure of the full basis is inconclusive: it exceeded the "
            f"budget at dim_reached {report['dim_reached']}, "
            f"degree_reached {report['degree_reached']}")
    ambient = full.span

    found: Dict[Tuple, Tuple[Tuple[int, ...], LieSpan]] = {}

    def record(subset: Tuple[int, ...], span: LieSpan) -> bool:
        """Check-and-insert; True if the span is new."""
        key = span.canonical_key()
        if key in found:
            return False
        found[key] = (subset, span)
        return True

    def extend(subset: Tuple[int, ...], span: LieSpan, k: int) -> None:
        if k >= n:
            return
        inside = span.contains(basis[k])
        if span.dim + (not inside) == ambient.dim:
            # span + basis[k] is the ambient: extensions only reproduce it
            return
        if inside:
            extend(subset, span, k + 1)
            return
        for ell in range(k, n):
            # the closure of span.basis + [basis[ell]], extending span
            bigger = _closure_span([basis[ell]], budget, span)
            new_subset = subset + (ell,)
            if record(new_subset, bigger):
                extend(new_subset, bigger, ell + 1)

    for j in range(n):
        span = _closure_span([basis[j]], budget)
        record((j,), span)
        extend((j,), span, j + 1)
    record(tuple(range(n)), ambient)

    records = [
        RealizationRecord(subset, span, identify(span))
        for subset, span in found.values()
    ]
    records.sort(key=lambda r: (r.span.dim, r.generating_subset))
    return records


def brute_force_subalgebras(basis: Sequence[SkewPoly],
                            budget: Budget = Budget()) -> List[LieSpan]:
    """Oracle: closures of all 2^n - 1 non-empty subsets, deduplicated.

    Expects a basis with a finite closure; past `budget`, raises ValueError.
    """
    out: Dict[Tuple, LieSpan] = {}
    for r in range(1, len(basis) + 1):
        for subset in itertools.combinations(basis, r):
            span = _closure_span(subset, budget)
            out.setdefault(span.canonical_key(), span)
    return list(out.values())


# ---------------------------------------------------------------------------
# Glossary
# ---------------------------------------------------------------------------

#: expected realization counts of the non-abelian classes over the
#: degree-<=2 monomial basis
GLOSSARY_NONABELIAN_COUNTS = {
    "aff(1)": 2,
    "aff(1)+R": 2,
    "h1": 1,
    "sl2": 1,
    "sl2+R": 1,
    "wh1": 2,
    "wh2": 1,
    "Schrodinger": 1,
}


def glossary_report() -> dict:
    """Enumerate over the six degree-<=2 monomials and group by catalog
    entry, checking the expected class multiplicities."""
    from .weyl_core import schrodinger_monomials

    records = enumerate_subalgebras(schrodinger_monomials())
    counts = dict(Counter(r.catalog.name for r in records))
    dims = dict(Counter(r.span.dim for r in records))
    mismatches = {
        name: (counts.get(name, 0), want)
        for name, want in GLOSSARY_NONABELIAN_COUNTS.items()
        if counts.get(name, 0) != want
    }
    return {
        "total_spans": len(records),
        "dims": dims,
        "counts": counts,
        "mismatches": mismatches,
        "records": [r.to_json() for r in records],
    }


def glossary_markdown(report: Optional[dict] = None) -> str:
    """The glossary grouped as a markdown table."""
    report = report or glossary_report()
    by_name: Dict[str, List[dict]] = {}
    for rec in report["records"]:
        by_name.setdefault(rec["catalog"]["name"], []).append(rec)
    lines = ["| algebra | dimension | realizations | generating subsets |",
             "|---------|-----------|--------------|--------------------|"]
    for name in sorted(by_name, key=lambda s: (by_name[s][0]["dim"], s)):
        recs = by_name[name]
        subsets = ", ".join(str(tuple(r["generating_subset"])) for r in recs)
        dims = sorted({r["dim"] for r in recs})
        lines.append(
            f"| {name} | {'/'.join(map(str, dims))} | {len(recs)} | {subsets} |"
        )
    return "\n".join(lines)
