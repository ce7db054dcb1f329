"""Brackets, exact spans, closure decisions, and infiniteness witnesses."""

import itertools
import random
import sys
import threading
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewweyl import lie_engine, weyl_core
from skewweyl.classify import identify
from skewweyl.enumerate import enumerate_subalgebras
from skewweyl.lie_engine import (
    Budget,
    ClosureOutcome,
    InfinitenessWitness,
    LieSpan,
    _raw_closure,
    bracket,
    chain_witness,
    centralizer_in,
    decide_monomial_set,
    decide_with_free_hamiltonian,
    lie_closure,
    span_is_bracket_closed,
    verify_chain_witness,
)
from skewweyl.weyl_core import (
    GR_ONE,
    MINUS,
    PLUS,
    GaussianRational,
    SkewPoly,
    WeylPoly,
    monomial_key_order,
    number_op,
    schrodinger_monomials,
    skew_to_json,
    subspace_of,
    unit_i,
)

from test_commuting import _json
from test_linalg import from_sympy, solve, to_sympy
from test_weyl_core import assert_record_contract


def gp(a, b, c=1):
    return SkewPoly.monomial(PLUS, (a, b), Fraction(c))


def gm(a, b, c=1):
    return SkewPoly.monomial(MINUS, (a, b), Fraction(c))


class TestBracket:
    def test_central_element(self):
        for g in schrodinger_monomials():
            assert not bracket(unit_i(), g)

    def test_rotation_action(self):
        # [ia†a, g_sigma^gamma] = sigma * chi(gamma) * g_{-sigma}^gamma
        n = number_op()
        assert bracket(n, gp(1, 0)) == gm(1, 0)
        assert bracket(n, gm(1, 0)) == gp(1, 0, -1)
        assert bracket(n, gp(3, 0)) == gm(3, 0, 3)
        assert bracket(n, gm(4, 1)) == gp(4, 1, -3)
        assert not bracket(n, gp(2, 2))

    def test_displacement_pair(self):
        assert bracket(gm(1, 0), gp(1, 0)) == gp(0, 0)       # = 2i

    def test_squeeze_pair(self):
        assert bracket(gp(2, 0), gm(2, 0)) == gp(1, 1, -4) + gp(0, 0, -2)

    def test_output_is_skew(self):
        x, y = gp(3, 1) + gm(2, 0), gm(4, 0) + gp(2, 2)
        z = bracket(x, y)
        assert z.to_weyl().dagger() == -z.to_weyl()


def weyl_bracket(x, y):
    """The bracket through one WeylPoly product, [x, y] = p - p† with
    p = xy: the reference the integer kernel is checked against."""
    p = x.to_weyl() * y.to_weyl()
    return SkewPoly.from_weyl(p - p.dagger())


def skew_keys(max_degree):
    return [(sigma, (a, b)) for a in range(max_degree + 1)
            for b in range(a + 1) if a + b <= max_degree
            for sigma in (PLUS, MINUS) if not (sigma == MINUS and a == b)]


@st.composite
def skew_polys(draw, max_degree=9, max_terms=6):
    terms = draw(st.dictionaries(
        st.sampled_from(skew_keys(max_degree)),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        max_size=max_terms))
    return SkewPoly(terms)


class TestBracketKernel:
    @given(skew_polys(), skew_polys())
    @example(SkewPoly(), gp(3, 1))
    @example(gm(4, 1, Fraction(2, 3)), SkewPoly())
    @example(gp(2, 0, Fraction(-1, 3)), gm(5, 2, Fraction(3, 5)))
    @example(gp(9, 0, Fraction(1, 7)), gp(4, 4, Fraction(-3, 2)))
    @settings(max_examples=150, deadline=None)
    def test_matches_weyl_product(self, x, y):
        assert bracket(x, y) == weyl_bracket(x, y)

    @given(skew_polys(max_degree=4), skew_polys(max_degree=4))
    @settings(max_examples=150, deadline=None)
    def test_result_passes_full_validation(self, x, y):
        # `bracket` builds its result without SkewPoly's key checks
        z = bracket(x, y)
        checked = SkewPoly(dict(z.terms))
        assert z == checked and list(z.terms) == list(checked.terms)
        assert all(type(c) is Fraction and c for c in z.terms.values())
        assert all(a >= b >= 0 and not (s == MINUS and a == b)
                   for s, (a, b) in z.terms)

    def test_monomial_table_exhaustive(self):
        # every pair of skew keys of degree <= 6, both orders
        keys = skew_keys(6)
        for k1 in keys:
            for k2 in keys:
                entry = weyl_core._monomial_bracket(k1, k2)
                assert all(type(n) is int and n for _, n in entry)
                assert len({k for k, _ in entry}) == len(entry)
                assert SkewPoly(dict(entry)) == weyl_bracket(
                    SkewPoly.monomial(*k1), SkewPoly.monomial(*k2))

    def test_one_memo_by_monomial_index(self):
        # `_monomial_bracket` only computes: the pair memo is the one of
        # `_bracket_ints`, filled per pair and its mirror [k2, k1]
        assert not hasattr(weyl_core._monomial_bracket, "cache_info")
        assert not hasattr(weyl_core, "_key")
        keys = skew_keys(4)
        for k1 in keys:
            for k2 in keys:
                got = lie_engine._bracket_ints({k1: 1}, {k2: 1})
                assert list(got.items()) == list(
                    weyl_core._monomial_bracket(k1, k2))

    def test_memo_is_filled_safely_from_threads(self):
        # keys of degree 60..64, which no other test brackets, so every
        # thread interns new keys and fills new pairs at the same time
        keys = [(sigma, (a, b)) for a in range(60, 62) for b in range(4)
                for sigma in (PLUS, MINUS)]
        pairs = [(k1, k2) for k1 in keys for k2 in keys]
        results = [{} for _ in range(4)]

        def work(out, order):
            for k1, k2 in order:
                out[k1, k2] = lie_engine._bracket_ints({k1: 1}, {k2: 1})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(
                out, random.Random(t).sample(pairs, len(pairs))))
                for t, out in enumerate(results)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        index = lie_engine._INDEX
        assert len(index) == len(lie_engine._KEYS) == len(lie_engine._PAIRS)
        assert all(lie_engine._KEYS[i] == k for k, i in index.items())
        for k1, k2 in pairs:
            want = list(weyl_core._monomial_bracket(k1, k2))
            assert all(list(out[k1, k2].items()) == want for out in results)

    def test_exact_path_needs_no_weyl_products(self, monkeypatch):
        # i P(q) with q = a + a† and deg P = 5: with x = a - a†,
        # [x, i q^k] = 2ik q^(k-1), so the closure is the chain L_n of dim 7
        q = WeylPoly({(1, 0): GR_ONE, (0, 1): GR_ONE})
        poly, power = WeylPoly(), WeylPoly({(0, 0): GR_ONE})
        for k in range(6):
            poly = poly + power.scale(GaussianRational.real(k % 3 + 1))
            power = power * q
        gens = [gm(1, 0),
                SkewPoly.from_weyl(poly.scale(GaussianRational.imag(1)))]

        def forbidden(*args):
            raise AssertionError("WeylPoly on the exact path")

        monkeypatch.setattr(WeylPoly, "__mul__", forbidden)
        monkeypatch.setattr(SkewPoly, "to_weyl", forbidden)
        out = lie_closure(gens)
        assert out.outcome == "finite" and out.dim == 7
        entry = identify(out.span)
        assert entry.name == "L_n" and entry.parameters == (6,)


def solved_coordinates(span, v):
    """Coordinates of v from `solve` on every monomial entry of the basis."""
    keys = sorted({k for b in span.basis for k in b.terms} | set(v.terms),
                  key=monomial_key_order)
    return solve([[b.coeff(*k) for b in span.basis] for k in keys],
                 [v.coeff(*k) for k in keys], span.dim)


class TestLieSpan:
    def test_membership_and_dim(self):
        s = LieSpan([gp(1, 0), gm(1, 0)])
        assert s.dim == 2
        assert s.contains(gp(1, 0) + gm(1, 0, Fraction(5, 3)))
        assert not s.contains(unit_i())

    def test_insert_dependent(self):
        s = LieSpan([gp(1, 0)])
        assert not s.insert(gp(1, 0, Fraction(-7, 2)))
        assert s.dim == 1

    def test_coordinates_roundtrip(self):
        s = LieSpan([gp(1, 0) + gm(2, 0), gm(2, 0), unit_i()])
        v = (gp(1, 0) + gm(2, 0)).scale(2) + unit_i().scale(Fraction(-1, 3))
        coords = s.coordinates(v)
        assert coords == [Fraction(2), Fraction(0), Fraction(-1, 3)]
        assert s.coordinates(gp(3, 3)) is None

    def test_coordinates_after_insert(self):
        # each insert moves a pivot below the earlier ones and rewrites the
        # reduced rows, so a stale inverse would give wrong coordinates
        s = LieSpan()
        vectors = [gp(3, 0) + gm(2, 0, 2), gm(2, 0) + gp(1, 0, Fraction(1, 3)),
                   gp(1, 0) - gp(3, 0, 4), unit_i() + gm(2, 0)]
        for v in vectors:
            s.insert(v)
            combination = SkewPoly()
            for c, b in zip((2, Fraction(-1, 2), 5, 3), s.basis):
                combination = combination + b.scale(c)
            for w in s.basis + [combination]:
                assert s.coordinates(w) == solved_coordinates(s, w)
        assert s.coordinates(vectors[1]) == [0, 1, 0, 0]

    def test_outside_vector_after_cached_inverse(self):
        s = LieSpan([gp(1, 0) + gm(2, 0), gm(2, 0)])
        assert s.coordinates(gp(1, 0)) == [1, -1]
        assert s.coordinates(gp(1, 0) + unit_i()) is None
        assert s.coordinates(gm(3, 0)) is None
        s.insert(unit_i())
        assert s.coordinates(gp(1, 0) + unit_i()) == [1, -1, 1]

    def test_canonical_key_is_basis_independent(self):
        a = LieSpan([gp(1, 0), gm(1, 0)])
        b = LieSpan([gp(1, 0) + gm(1, 0), gp(1, 0) - gm(1, 0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_bracket_closed_predicate(self):
        assert span_is_bracket_closed(LieSpan([unit_i(), gp(1, 0), gm(1, 0)]))
        assert not span_is_bracket_closed(LieSpan([gp(1, 0), gm(1, 0)]))


class TestIntegerRows:
    """The integer cores read the rows they are given and never write
    them: the closure and the table keep each basis element's integer
    form and bracket it again after every reduction."""

    def test_reductions_leave_their_row_unchanged(self):
        # pivots i (entry 1) and g+(1,0) (entry 2, row 2 g+(1,0) + g-(3,0))
        s = LieSpan([gp(1, 0) + gm(3, 0, Fraction(1, 2)), unit_i()])
        assert sorted(d for d, _ in s._echelon.integer_rows.values()) == [1, 2]
        rows = [
            {(PLUS, (0, 0)): 3, (PLUS, (2, 0)): 1},  # meets entry 1: m = 1
            {(PLUS, (1, 0)): 1, (MINUS, (3, 0)): 4},  # meets entry 2: m = 2
            {(PLUS, (0, 0)): 2, (PLUS, (1, 0)): 2, (MINUS, (3, 0)): 1},
            {(MINUS, (4, 1)): 7},  # meets no row
        ]
        for row in rows:
            before = list(row.items())
            residual = s._echelon.reduce(row)
            assert residual is not row
            s._coordinates_ints(row, 3)
            t = LieSpan(s.basis)
            t._insert_ints(row, 3)
            assert list(row.items()) == before
        assert s._echelon.reduce(rows[2]) == {}
        assert s._coordinates_ints(rows[2], 2) == {0: 1, 1: 2}

class TestClosures:
    def test_heisenberg(self):
        out = lie_closure([unit_i(), gp(1, 0), gm(1, 0)])
        assert out.outcome == "finite" and out.dim == 3

    def test_displacements_close_to_heisenberg(self):
        out = lie_closure([gp(1, 0), gm(1, 0)])
        assert out.outcome == "finite" and out.dim == 3

    def test_full_low_degree_algebra(self):
        out = lie_closure(schrodinger_monomials())
        assert out.outcome == "finite" and out.dim == 6

    def test_empty_and_zero(self):
        assert lie_closure([]).dim == 0
        assert lie_closure([SkewPoly.zero()]).dim == 0

    def test_report_json(self):
        out = lie_closure([number_op(), gm(1, 0)])
        obj = out.to_json()
        assert obj["outcome"] == "finite" and obj["dim"] == 4
        assert len(obj["basis"]) == 4

    def test_budget_inconclusive(self):
        # force the raw path with a non-monomial pair that grows
        out = lie_closure([gp(3, 0) + gp(2, 2), gm(3, 0) + gp(1, 0)],
                          Budget(max_dim=5, max_degree=6))
        assert out.outcome in ("infinite", "inconclusive")

    @pytest.mark.parametrize("max_dim", [1, 12])
    def test_dim_budget_is_checked_on_every_insert(self, max_dim):
        # the displacement and a cubic generate an infinite algebra; the
        # closure stops at the first insert past the budget, generators
        # included
        out = _raw_closure([gp(1, 0), gm(3, 0), gp(4, 0)], Budget(max_dim, 24))
        assert out.outcome == "inconclusive"
        assert out.budget_report["dim_reached"] == max_dim + 1

    @pytest.mark.parametrize("gens, within, max_dim, reached", [
        # generator loop: the overflowing degree-1 generator follows a
        # quartic
        ([gp(4, 0), gm(1, 0)], None, 1, (2, 4)),
        # bracket loop: the overflowing brackets have degrees 1 and 2
        ([gp(1, 0), gm(3, 0), gp(4, 0)], None, 5, (6, 5)),
        ([gp(1, 0), gm(3, 0), gp(4, 0)], None, 12, (13, 7)),
        # extending the span of the quartic: its degree counts, at a
        # generator and at brackets of degrees 3 and 2
        ([gm(1, 0)], [gp(4, 0)], 1, (2, 4)),
        ([gm(1, 0)], [gp(4, 0)], 2, (3, 4)),
        ([gm(1, 0)], [gp(4, 0)], 4, (5, 5)),
    ], ids=["generators", "brackets_5", "brackets_12", "within_generator",
            "within_brackets_2", "within_brackets_4"])
    def test_dim_budget_reports_the_highest_degree_of_the_span(
            self, gens, within, max_dim, reached):
        # degree_reached is the highest degree in the span that overflowed,
        # not the degree of the element that overflowed it
        if within is not None:
            within = _raw_closure(within, Budget(max_dim, 24)).span
        out = _raw_closure(gens, Budget(max_dim, 24), within=within)
        assert out.outcome == "inconclusive"
        report = out.budget_report
        assert (report["dim_reached"], report["degree_reached"]) == reached

    @pytest.mark.parametrize("gens", [[gp(5, 0), gp(0, 0)],
                                      [gp(5, 0) + gm(5, 0)]],
                             ids=["monomial", "mixed"])
    def test_degree_budget_is_checked_on_generators(self, gens):
        # a generator above the degree budget stops the closure before it
        # is inserted, as a bracket result would
        out = lie_closure(gens, Budget(64, 3))
        assert out.outcome == "inconclusive"
        assert out.budget_report["degree_reached"] == 5
        assert out.budget_report["dim_reached"] == 0

    def test_budget_validation(self):
        for max_dim, max_degree in ((0, 1), (1, 0), (-1, 24)):
            with pytest.raises(ValueError):
                Budget(max_dim, max_degree)
            with pytest.raises(ValueError):
                Budget(max_dim=max_dim, max_degree=max_degree)
        with pytest.raises(ValueError):
            Budget(max_dim=0)

    def test_budget_defaults(self):
        assert Budget() == Budget(64, 24) == Budget(max_degree=24)
        assert (Budget().max_dim, Budget().max_degree) == (64, 24)

    @pytest.mark.parametrize("cls, values, hashable", [
        (Budget, (8, 3), True),
        (InfinitenessWitness, ("ChainDegreeGrowth", {"degrees": [3, 4]}),
         False),
        (ClosureOutcome, ("finite", LieSpan([gm(1, 0)]), None, None), False),
        (ClosureOutcome, ("inconclusive", None, None, {"dim_reached": 2}),
         False),
    ], ids=["Budget", "InfinitenessWitness", "ClosureOutcome",
            "ClosureOutcome_report"])
    def test_record_contract(self, cls, values, hashable):
        assert_record_contract(cls, values, hashable)


class TestMonomialDecision:
    def test_abelian_kerr_tower(self):
        out = decide_monomial_set([unit_i(), gp(2, 2), gp(3, 3)])
        assert out.outcome == "finite" and out.dim == 3

    def test_single_nonlinearity(self):
        assert decide_monomial_set([gp(3, 0), unit_i()]).outcome == "finite"

    def test_two_cubics_infinite(self):
        out = decide_monomial_set([gm(3, 0), gp(3, 0)])
        assert out.outcome == "infinite"
        assert out.witness.rule == "MonomialGlossaryViolation"

    def test_kerr_with_displacement_infinite(self):
        assert decide_monomial_set([gp(2, 2), gm(1, 0)]).outcome == "infinite"

    def test_rejects_polynomials(self):
        with pytest.raises(ValueError):
            decide_monomial_set([gp(1, 0) + gm(1, 0)])

    def test_key_tests_come_before_brackets(self, monkeypatch):
        # every clause of the decision reads the keys alone
        calls = []
        monkeypatch.setattr(lie_engine, "_bracket_ints",
                            lambda xs, ys: calls.append((xs, ys)))
        monkeypatch.setattr(lie_engine, "_raw_closure",
                            lambda gens, budget: "closed")
        assert decide_monomial_set(list(schrodinger_monomials())) == "closed"
        assert decide_monomial_set([gp(4, 1), unit_i()]) == "closed"
        assert decide_monomial_set([gp(2, 2), gp(3, 3)]) == "closed"
        assert decide_monomial_set([gp(2, 2), gm(3, 0)]).outcome == "infinite"
        assert calls == []

    def test_huge_monomials_are_decided_from_their_keys(self, monkeypatch):
        # bracketing this pair took about a minute before any budget check
        calls = []
        monkeypatch.setattr(lie_engine, "_bracket_ints",
                            lambda xs, ys: calls.append((xs, ys)))
        out = lie_closure([gp(12000, 12000), gm(12000, 0)], Budget())
        assert out.outcome == "infinite"
        assert out.witness.rule == "MonomialGlossaryViolation"
        assert calls == []

    def test_key_clause_is_pairwise_commutation(self, monkeypatch):
        # on every pair of keys of degree <= 10 the decision equals the one
        # that tests commutation by a bracket
        monkeypatch.setattr(lie_engine, "_raw_closure",
                            lambda gens, budget: "closed")
        schrodinger = {k for m in schrodinger_monomials() for k in m.terms}
        for k1, k2 in itertools.combinations(skew_keys(10), 2):
            x, y = SkewPoly.monomial(*k1), SkewPoly.monomial(*k2)
            perp = [k for k in (k1, k2) if subspace_of(*k) == "Aperp"]
            finite = ({k1, k2} <= schrodinger
                      or (len(perp) == 1
                          and {k1, k2} <= {perp[0], (PLUS, (0, 0))})
                      or not bracket(x, y))
            assert (decide_monomial_set([x, y]) == "closed") == finite


class TestFreeHamiltonianDecision:
    def test_requires_drift(self):
        with pytest.raises(ValueError):
            decide_with_free_hamiltonian([gp(1, 0), gm(1, 0)])

    def test_drift_with_displacement(self):
        out = decide_with_free_hamiltonian([number_op(), gm(1, 0)])
        assert out.outcome == "finite" and out.dim == 4

    def test_drift_with_nonlinearity(self):
        out = decide_with_free_hamiltonian([number_op() + unit_i(), gp(3, 0)])
        assert out.outcome == "infinite"
        assert out.witness.rule == "PerpWithFreeHam"

    def test_drift_kerr_and_squeeze(self):
        out = decide_with_free_hamiltonian(
            [number_op(), gp(2, 2), gp(2, 0)]
        )
        assert out.outcome == "infinite"
        assert out.witness.rule == "MixedEqAndQuad"

    def test_drift_with_kerr_only(self):
        out = decide_with_free_hamiltonian([number_op(), gp(2, 2)])
        assert out.outcome == "finite" and out.dim == 2


class TestDecisionRules:
    def test_drift_sign_does_not_matter(self):
        other = gp(2, 2) + gm(1, 0)
        pos = lie_closure([number_op(), other])
        neg = lie_closure([number_op().scale(-1), other])
        assert neg.outcome == pos.outcome == "infinite"
        assert neg.dim == pos.dim
        assert neg.witness.rule == pos.witness.rule == "MixedEqAndQuad"

    def test_chain_search_skips_self_pairs(self, monkeypatch):
        calls = []

        def recording(seed, aux, *args):
            calls.append((seed, aux))
            return chain_witness(seed, aux, *args)

        monkeypatch.setattr(lie_engine, "chain_witness", recording)
        out = lie_closure([gp(1, 0) + gm(1, 0), gm(1, 0), unit_i()])
        assert out.outcome == "finite" and out.dim == 3
        assert len(calls) == 6
        assert not any(seed is aux for seed, aux in calls)


def _projection_drift(g):
    """Whether g = i(w a†a + c) with w != 0, by its coefficients."""
    return (set(g.terms) <= {(PLUS, (1, 1)), (PLUS, (0, 0))}
            and bool(g.coeff(PLUS, (1, 1))))


def _projection_free_hamiltonian(gens):
    """The free-Hamiltonian decision as `SkewPoly.project` sums ask it:
    (rule, evidence), "closure", or None without a drift."""
    drift = next((g for g in gens if _projection_drift(g)), None)
    if drift is None:
        return None
    perp = next((g for g in gens if g.project("Aperp")), None)
    if perp is not None:
        return "PerpWithFreeHam", {"drift": skew_to_json(drift),
                                   "offender": skew_to_json(perp)}
    eq = next((g for g in gens if g.project("Aeq")), None)
    if eq is not None:
        quad = next((g for g in gens if g.project("A1") or g.project("A2")),
                    None)
        if quad is not None:
            return "MixedEqAndQuad", {"kerr_element": skew_to_json(eq),
                                      "quadratic_element": skew_to_json(quad)}
    return "closure"


def _projection_low_degree_mixed(gens):
    e1 = next((g for g in gens
               if g.project("Aeq") and g == g.project("A0") + g.project("Aeq")),
              None)
    if e1 is None:
        return None
    for g in gens:
        quad = g.project("A1") + g.project("A2")
        if quad and g == g.project("A0") + quad:
            return e1, g
    return None


def _projection_mixed_eq_quad(gens):
    def eq_leader(g):
        top = g.top_part()
        if top.degree < 4:
            return False
        return len(top.terms) == 1 and all(
            subspace_of(*k) == "Aeq" for k in top.terms)

    leaders = [g for g in gens if eq_leader(g)]
    if not leaders:
        return None
    for g in gens:
        off_diag = g - g.project("A0") - g.project("Aeq")
        if not off_diag:
            continue
        rest = g - off_diag
        if off_diag.degree >= rest.degree or not rest:
            return leaders[0], g
    return None


_SUBSPACE_KEYS = {tag: [k for k in skew_keys(8) if subspace_of(*k) == tag]
                  for tag in ("A0", "A1", "A2", "Aeq", "Aperp")}


@st.composite
def mixed_generators(draw):
    """One to four generators, each a sum over one to three of the five
    basis subspaces, so that every support test meets every mix, and in
    half the draws a drift term as well."""
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        terms = {}
        for tag in draw(st.sets(st.sampled_from(sorted(_SUBSPACE_KEYS)),
                                min_size=1, max_size=3)):
            terms.update(draw(st.dictionaries(
                st.sampled_from(_SUBSPACE_KEYS[tag]),
                st.fractions(-3, 3, max_denominator=2).filter(bool),
                min_size=1, max_size=2)))
        gens.append(SkewPoly(terms))
    if draw(st.booleans()):
        # a drift i(w a†a + c) somewhere among them
        drift = SkewPoly({(PLUS, (1, 1)): draw(st.sampled_from([1, -2])),
                          (PLUS, (0, 0)): draw(st.sampled_from([0, 3]))})
        gens.insert(draw(st.integers(0, len(gens))), drift)
    return gens


class TestSupportRules:
    """The rules that read which subspaces the generators' keys lie in
    pick the same generators as the `SkewPoly.project` sums they replace."""

    @given(mixed_generators())
    @example([number_op(), gp(2, 2) + gp(1, 1), gm(2, 0) + unit_i()])
    @example([number_op() + unit_i(), gp(3, 3) + gm(5, 0), gp(4, 1)])
    @example([gp(2, 2) + unit_i(), gm(1, 0) + gp(2, 0)])
    @example([gp(3, 3) + gp(4, 1), gm(6, 0) + gp(2, 2), gp(5, 1) + gp(3, 3)])
    @settings(max_examples=300, deadline=None)
    def test_rules_match_the_projection_sums(self, gens):
        want = _projection_free_hamiltonian(gens)
        with mock.patch.object(lie_engine, "_raw_closure",
                               lambda gens, budget: "closure"):
            try:
                out = decide_with_free_hamiltonian(gens)
            except ValueError:
                out = None
        if isinstance(out, ClosureOutcome):
            out = out.witness.rule, out.witness.evidence
        assert out == want
        for rule, reference in (
                (lie_engine._low_degree_mixed_witness,
                 _projection_low_degree_mixed),
                (lie_engine._mixed_eq_quad_witness,
                 _projection_mixed_eq_quad)):
            pair = reference(gens)
            assert rule(gens) == (None if pair is None else InfinitenessWitness(
                "MixedEqAndQuad", {"kerr_element": skew_to_json(pair[0]),
                                   "partner": skew_to_json(pair[1])}))


class TestChainWitness:
    def test_degree_growth(self):
        w = chain_witness(gp(3, 0), gm(3, 0), steps=8)
        assert w is not None
        degs = w.evidence["degrees"]
        assert all(b > a for a, b in zip(degs[-4:], degs[-3:]))
        assert verify_chain_witness(w)

    def test_no_growth_in_finite_algebra(self):
        assert chain_witness(gp(1, 0), gm(1, 0), steps=8) is None

    def test_low_degree_aux_runs_no_bracket(self, monkeypatch):
        # deg [u, s] <= deg u + deg s - 2, so an auxiliary of degree <= 2
        # cannot raise the degree
        calls = []
        monkeypatch.setattr(lie_engine, "bracket",
                            lambda x, y: calls.append((x, y)) or bracket(x, y))
        assert chain_witness(gp(5, 0), gm(2, 0), steps=8) is None
        assert chain_witness(gp(3, 1), gp(1, 0)) is None
        assert chain_witness(gp(3, 1), number_op()) is None
        assert calls == []

    def test_step_validation(self):
        with pytest.raises(ValueError):
            chain_witness(gp(3, 0), gm(3, 0), steps=1)

    @pytest.mark.parametrize("max_degree, outcome", [(6, "inconclusive"),
                                                     (7, "infinite")])
    def test_chain_ends_above_the_degree_budget(self, max_degree, outcome):
        # the chain's degrees are 4, 5, 6, 7: under a budget of 6 the
        # search ends at 7 and the budgeted closure decides
        gens = [gp(3, 1) + gp(1, 0), gm(3, 0) + gp(2, 0)]
        out = lie_closure(gens, Budget(64, max_degree))
        assert out.outcome == outcome
        if outcome == "inconclusive":
            assert out.budget_report["degree_reached"] == 7
        else:
            assert out.witness.evidence["degrees"] == [4, 5, 6, 7]

    def test_generators_above_the_degree_budget_run_no_chain(self,
                                                             monkeypatch):
        # two degree-119 generators, far above the default degree budget:
        # the chain search brackets nothing and the closure stops at them
        gens = [gp(60, 59) + gm(60, 0), gm(60, 58) + gp(59, 59)]
        calls = []
        monkeypatch.setattr(lie_engine, "bracket",
                            lambda x, y: calls.append((x, y)) or bracket(x, y))
        out = lie_closure(gens)
        assert out.outcome == "inconclusive"
        assert out.budget_report["degree_reached"] == 119
        assert calls == []


class TestCentralizer:
    def test_center_of_heisenberg(self):
        h1 = LieSpan([unit_i(), gp(1, 0), gm(1, 0)])
        c = centralizer_in(gp(1, 0), h1)
        assert c.dim == 2 and c.contains(unit_i()) and c.contains(gp(1, 0))

    def test_requires_closed_span(self):
        with pytest.raises(ValueError):
            centralizer_in(gp(1, 0), LieSpan([gp(1, 0), gm(1, 0)]))

    def test_equals_the_sympy_kernel_of_ad_x(self):
        # on the glossary spans and the chain closures, for each basis
        # element and the sum of the basis: the span of sympy's nullspace
        # of the ad x matrix, on which x commutes with every element
        spans = [r.span for r in enumerate_subalgebras(schrodinger_monomials())]
        spans += [lie_closure(_json(f"closure_chain_{n}.json")).span
                  for n in range(3, 8)]
        for span in spans:
            for x in [*span.basis, sum(span.basis, SkewPoly())]:
                images = [bracket(x, b) for b in span.basis]
                keys = {k for im in images for k in im.terms}
                ad = to_sympy([[im.coeff(*k) for im in images] for k in keys],
                              span.dim)
                want = LieSpan(
                    sum((b.scale(from_sympy(c))
                         for b, c in zip(span.basis, v)), SkewPoly())
                    for v in ad.nullspace())
                got = centralizer_in(x, span)
                assert got == want
                assert all(not bracket(x, c) for c in got.basis)
