"""Subset enumeration against the brute-force oracle and the known
glossary over the degree-<=2 monomial basis."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewweyl import lie_engine
from skewweyl.classify import CatalogEntry
from skewweyl.enumerate import (GLOSSARY_NONABELIAN_COUNTS, RealizationRecord,
                                brute_force_subalgebras,
                                enumerate_subalgebras, glossary_markdown,
                                glossary_report)
from skewweyl.lie_engine import (Budget, LieSpan, _raw_closure, bracket,
                                 lie_closure)
from skewweyl.weyl_core import (MINUS, PLUS, SkewPoly, schrodinger_monomials,
                                unit_i)
from test_commuting import _KEYS, _LOW_KEYS, _json, _with_scalars, skew_polys
from test_weyl_core import assert_record_contract


def gp(a, b):
    return SkewPoly.monomial(PLUS, (a, b))


def gm(a, b):
    return SkewPoly.monomial(MINUS, (a, b))


class TestSmallBases:
    def test_record_contract(self):
        assert_record_contract(
            RealizationRecord,
            ((0, 2), LieSpan([gm(1, 0), unit_i()]), CatalogEntry("R^n", (2,))),
            hashable=False)

    def test_single_central_element(self):
        records = enumerate_subalgebras([unit_i()])
        assert len(records) == 1
        assert records[0].span.dim == 1
        assert records[0].catalog.name == "R^n"

    def test_displacement_pair(self):
        # {g+, g-} of degree one: singles are abelian lines, the pair
        # closes to the Heisenberg algebra
        records = enumerate_subalgebras([gp(1, 0), gm(1, 0)])
        names = sorted(r.catalog.name for r in records)
        assert names == ["R^n", "R^n", "h1"]

    def test_affine_pair(self):
        records = enumerate_subalgebras([gp(1, 0), gm(2, 0)])
        assert len(records) == 3
        by_subset = {r.generating_subset: r for r in records}
        assert by_subset[(0, 1)].catalog.name == "aff(1)"
        assert by_subset[(0, 1)].span.dim == 2

    def test_rejects_dependent_basis(self):
        with pytest.raises(ValueError):
            enumerate_subalgebras([unit_i(), unit_i().scale(2)])

    def test_rejects_infinite_ambient(self):
        with pytest.raises(ValueError):
            enumerate_subalgebras([gp(3, 0), gm(3, 0)])

    def test_oracle_rejects_basis_beyond_budget(self):
        with pytest.raises(ValueError):
            brute_force_subalgebras([gp(3, 0), gm(3, 0)], Budget(8, 8))

    def test_one_verdict_per_call(self, monkeypatch):
        # the ambient is decided once; subsets inside it are closed directly
        from skewweyl import enumerate as enum

        calls = []

        def recording(gens, budget=Budget()):
            calls.append(len(gens))
            return lie_closure(gens, budget)

        monkeypatch.setattr(enum, "lie_closure", recording)
        records = enumerate_subalgebras(schrodinger_monomials())
        assert len(records) == 22
        assert calls == [6]


class TestInvariants:
    def test_records_are_bracket_closed(self):
        basis = schrodinger_monomials()
        for r in enumerate_subalgebras(basis):
            sp = r.span
            for x in sp.basis:
                for y in sp.basis:
                    assert sp.contains(bracket(x, y))

    def test_matches_brute_force_oracle(self):
        # the empty basis has no non-empty subset, so no span at all
        for basis in (schrodinger_monomials(), []):
            pruned = enumerate_subalgebras(basis)
            oracle = brute_force_subalgebras(basis)
            assert len(pruned) == len(oracle)
            keys = {r.span.canonical_key() for r in pruned}
            assert keys == {sp.canonical_key() for sp in oracle}

    def test_no_duplicate_spans(self):
        records = enumerate_subalgebras(schrodinger_monomials())
        keys = [r.span.canonical_key() for r in records]
        assert len(keys) == len(set(keys))

    def test_sorted_by_dimension(self):
        records = enumerate_subalgebras(schrodinger_monomials())
        dims = [r.span.dim for r in records]
        assert dims == sorted(dims)


class TestGlossary:
    def test_report_totals(self):
        report = glossary_report()
        assert report["total_spans"] == 22
        assert report["dims"] == {1: 6, 2: 7, 3: 4, 4: 4, 6: 1}
        assert report["mismatches"] == {}

    def test_nonabelian_counts(self):
        counts = glossary_report()["counts"]
        for name, want in GLOSSARY_NONABELIAN_COUNTS.items():
            assert counts[name] == want

    def test_markdown_mentions_every_class(self):
        text = glossary_markdown()
        for name in GLOSSARY_NONABELIAN_COUNTS:
            assert name in text

    def test_record_json_shape(self):
        rec = glossary_report()["records"][0]
        assert set(rec) == {"generating_subset", "dim", "basis", "catalog"}


# ---------------------------------------------------------------------------
# Closures that extend a closed span
# ---------------------------------------------------------------------------

_KEYS3 = [k for k in _KEYS if sum(k[1]) <= 3]
_DEGREE3 = st.one_of(skew_polys(_LOW_KEYS), skew_polys(_KEYS3))


@st.composite
def extensions(draw):
    """(gens, extra, budget): a degree <= 3 set whose closure under
    Budget(16, 8) is finite, 1-2 more elements, and a budget under which
    that closure is the same: max_dim its dim plus 0-4, max_degree from
    its degree to 8, so either budget can be tight."""
    gens = draw(_with_scalars(st.lists(_DEGREE3, min_size=1, max_size=3)))
    out = _raw_closure(gens, Budget(16, 8))
    assume(out.outcome == "finite")
    extra = draw(st.lists(_DEGREE3.filter(bool), min_size=1, max_size=2))
    dim = min(16, max(1, out.dim + draw(st.integers(0, 4))))
    degree = max([1] + [b.degree for b in out.span.basis])
    return gens, extra, Budget(dim, draw(st.integers(degree, 8)))


class TestExtensionClosure:
    @given(extensions())
    @settings(max_examples=80, deadline=None)
    def test_equals_closure_of_the_union(self, case):
        gens, extra, budget = case
        within = _raw_closure(gens, budget)
        assert within.outcome == "finite"
        key = within.span.canonical_key()
        dim = within.span.dim
        rows = {p: (d, dict(nums)) for p, (d, nums)
                in within.span._echelon.integer_rows.items()}
        links = [None if s is None else set(s) for s in within.span._links]
        got = _raw_closure(extra, budget, within=within.span)
        want = _raw_closure(within.span.basis + extra, budget)
        assert got.outcome == want.outcome
        assert got.budget_report == want.budget_report
        if want.span is None:
            assert got.span is None
        else:
            assert len(got.span.basis) == len(want.span.basis)
            for x, y in zip(got.span.basis, want.span.basis):
                assert list(x.terms.items()) == list(y.terms.items())
            assert got.span.canonical_key() == want.span.canonical_key()
        # the extended span is a copy: `within` is unchanged, its basis,
        # its rows and the zero links its own closure found
        assert within.span.canonical_key() == key
        assert len(within.span.basis) == dim
        assert within.span._echelon.integer_rows == rows
        assert within.span._links == links

    def test_span_of_its_own_elements_is_itself(self):
        span = lie_closure(schrodinger_monomials()).span
        out = _raw_closure(span.basis[::-1], Budget(), within=span)
        assert out.outcome == "finite" and out.span.basis == span.basis


@pytest.mark.parametrize("basis, spans, brackets, inserts", [
    # closing span.basis + [b] from scratch took 130 brackets and 199
    # inserts on the six monomials, 176 and 253 on the mixed basis
    (schrodinger_monomials, 22, 119, 135),
    (lambda: _json("mixed_basis.json"), 20, 162, 182),
])
def test_enumeration_extends_closed_spans(monkeypatch, basis, spans,
                                          brackets, inserts):
    # brackets are counted where every one is formed, at
    # `lie_engine._bracket_ints`, which no other module binds; inserts at
    # `LieSpan._insert_ints`, the one method that grows a span
    calls = {"bracket": 0, "insert": 0}
    bracket_ints = lie_engine._bracket_ints
    insert_ints = LieSpan._insert_ints

    def counted_bracket(xs, ys):
        calls["bracket"] += 1
        return bracket_ints(xs, ys)

    def counted_insert(self, *args):
        calls["insert"] += 1
        return insert_ints(self, *args)

    monkeypatch.setattr(lie_engine, "_bracket_ints", counted_bracket)
    monkeypatch.setattr(LieSpan, "_insert_ints", counted_insert)
    assert len(enumerate_subalgebras(basis())) == spans
    assert calls == {"bracket": brackets, "insert": inserts}
