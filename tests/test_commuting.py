"""Brackets skipped because they are proven zero: for a non-scalar w of the
Weyl algebra the centralizer C(w) is commutative (Amitsur 1958), so two
elements that commute with the same non-scalar w commute, and a scalar
commutes with everything.  w is a basis element or the linear root that two
elements of degree >= 3 share.  `_raw_closure` and
`StructureConstants.from_span` skip such pairs; here they are checked
against the all-pairs loops they replace and against the same loops without
roots, the rule is checked to answer zero only for exactly zero brackets,
and the brackets it saves on the nilpotent chains are counted."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewweyl import classify, lie_engine
from skewweyl.classify import StructureConstants
from skewweyl.enumerate import enumerate_subalgebras
from skewweyl.lie_engine import (Budget, ClosureOutcome, LieSpan,
                                 _integer_terms, _raw_closure, bracket)
from skewweyl.weyl_core import (MINUS, NEG_INF, PLUS, GaussianRational,
                                SkewPoly, WeylPoly, schrodinger_monomials,
                                skew_from_json, unit_i)

DATA = Path(__file__).resolve().parent / "data"


def _json(name):
    return [skew_from_json(e) for e in json.loads((DATA / name).read_text())]


def _all_pairs_closure(gens, budget):
    """The reference closure: `_raw_closure`'s levels and pair order, with
    every unordered pair of each level bracketed."""
    span = LieSpan()
    max_deg_seen = NEG_INF

    def over_budget(degree):
        return ClosureOutcome(
            "inconclusive",
            budget_report={"max_dim": budget.max_dim,
                           "max_degree": budget.max_degree,
                           "dim_reached": span.dim,
                           "degree_reached": degree})

    for g in gens:
        if g.degree > budget.max_degree:
            return over_budget(g.degree)
        if span.insert(g):
            max_deg_seen = max(max_deg_seen, g.degree)
            if span.dim > budget.max_dim:
                return over_budget(max_deg_seen)
    frontier = list(span.basis)
    while frontier:
        older = span.basis[:span.dim - len(frontier)]
        new = []
        for i, x in enumerate(frontier):
            for y in older + frontier[i + 1:]:
                z = bracket(x, y)
                if not z:
                    continue
                if z.degree > budget.max_degree:
                    return over_budget(z.degree)
                if span.insert(z):
                    new.append(z)
                    max_deg_seen = max(max_deg_seen, z.degree)
                    if span.dim > budget.max_dim:
                        return over_budget(max_deg_seen)
        frontier = new
    return ClosureOutcome("finite", span=span)


def _all_pairs_table(b):
    """The reference table: every pair bracketed, in (i, j) order."""
    entries = {}
    for i, j in itertools.combinations(range(b.dim), 2):
        coords = b.coordinates(bracket(b.basis[i], b.basis[j]))
        assert coords is not None
        entries[i, j] = dict(enumerate(coords))
    return StructureConstants(b.dim, entries)


def _assert_same_closure(gens, budget):
    got, want = _raw_closure(gens, budget), _all_pairs_closure(gens, budget)
    assert got.outcome == want.outcome
    assert got.budget_report == want.budget_report
    if want.span is None:
        assert got.span is None
    else:
        assert len(got.span.basis) == len(want.span.basis)
        for x, y in zip(got.span.basis, want.span.basis):
            assert list(x.terms.items()) == list(y.terms.items())
    return got


def _assert_same_table(span):
    got, want = StructureConstants.from_span(span), _all_pairs_table(span)
    assert got.n == want.n
    assert list(got.table.items()) == list(want.table.items())


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

#: skew monomial keys of degree <= 4, the minus-diagonal excluded
_KEYS = [(sigma, (a, b)) for a in range(5) for b in range(a + 1)
         if a + b <= 4 for sigma in (PLUS, MINUS)
         if not (sigma == MINUS and a == b)]
_LOW_KEYS = [k for k in _KEYS if sum(k[1]) <= 2]

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def skew_polys(draw, keys=_KEYS, max_terms=3):
    terms = draw(st.dictionaries(st.sampled_from(keys), coeffs,
                                 max_size=max_terms))
    return SkewPoly({k: v for k, v in terms.items() if v})


#: scalars and 0: they commute with everything, and 0 is never inserted
scalars = st.one_of(st.just(SkewPoly()),
                    coeffs.filter(bool).map(lambda c: unit_i().scale(c)))


def _times_i(p: WeylPoly) -> SkewPoly:
    return SkewPoly.from_weyl(p.scale(GaussianRational.imag(1)))


def _poly_in(ell, coeffs):
    """Σ_k coeffs[k] ell^k for a normal-ordered ell."""
    out, power = WeylPoly(), WeylPoly({(0, 0): GaussianRational.real(1)})
    for c in coeffs:
        out = out + power.scale(GaussianRational.real(c))
        power = power * ell
    return out


@st.composite
def quadrature_families(draw, with_momentum=True, degrees=(0, 4)):
    """i P_k(q) for one rational-angle quadrature q = cos θ (a + a†)
    - i sin θ (a - a†) with tan(θ/2) = t, a few real polynomials P_k, and,
    if drawn, its conjugate x = i p, as
    `perfbench.workloads.chain_generators` builds its pair.  For degrees
    (0, h) each P_k has degree <= h; for (l, h) with l > 0 it has a degree
    in l..h, its leading coefficient nonzero."""
    t = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    q = WeylPoly({(0, 1): GaussianRational(c, -s),
                  (1, 0): GaussianRational(c, s)})
    p = WeylPoly({(0, 1): GaussianRational(-s, -c),
                  (1, 0): GaussianRational(-s, c)})
    lo, hi = degrees
    top = coeffs.filter(bool) if lo else coeffs
    family = [
        _times_i(_poly_in(q, draw(st.lists(coeffs, min_size=lo, max_size=hi))
                          + [draw(top)]))
        for _ in range(draw(st.integers(1, 4)))]
    if with_momentum and draw(st.booleans()):
        family.insert(draw(st.integers(0, len(family))), _times_i(p))
    return family


def _with_scalars(gens):
    """gens with scalars and zeros mixed in at drawn places."""
    return st.tuples(gens, st.lists(st.tuples(st.integers(0, 8), scalars),
                                    max_size=3)).map(_insert_all)


def _insert_all(args):
    gens, extra = args
    gens = list(gens)
    for at, z in extra:
        gens.insert(at % (len(gens) + 1), z)
    return gens


random_sets = st.lists(skew_polys(), min_size=1, max_size=4)
budgets = st.builds(Budget, st.integers(1, 14), st.integers(1, 9))


# ---------------------------------------------------------------------------
# _raw_closure
# ---------------------------------------------------------------------------

class TestClosureMatchesAllPairs:
    @given(_with_scalars(random_sets), budgets)
    @settings(max_examples=60, deadline=None)
    def test_random_sets(self, gens, budget):
        _assert_same_closure(gens, budget)

    @given(_with_scalars(quadrature_families()), budgets)
    @settings(max_examples=60, deadline=None)
    def test_commuting_families(self, gens, budget):
        _assert_same_closure(gens, budget)

    @given(_with_scalars(st.tuples(quadrature_families(),
                                   st.lists(skew_polys(_LOW_KEYS),
                                            max_size=2))
                         .map(lambda fr: fr[0] + fr[1])))
    @settings(max_examples=40, deadline=None)
    def test_families_with_low_degree_elements(self, gens):
        _assert_same_closure(gens, Budget(16, 8))

    @given(_with_scalars(st.tuples(quadrature_families(False),
                                   quadrature_families(False))
                         .map(lambda fg: fg[0] + fg[1])), budgets)
    @settings(max_examples=40, deadline=None)
    def test_two_commuting_families(self, gens, budget):
        # each element commutes with its own family only: a pair across
        # the families has two growing known sets that must not meet
        _assert_same_closure(gens, budget)

    def test_chains(self):
        for n in range(3, 8):
            gens = _json(f"closure_chain_{n}.json")
            assert _assert_same_closure(gens, Budget()).dim == n + 2


# ---------------------------------------------------------------------------
# StructureConstants.from_span
# ---------------------------------------------------------------------------

class TestTableMatchesAllPairs:
    def test_glossary_subalgebras(self):
        records = enumerate_subalgebras(schrodinger_monomials())
        assert len(records) == 22
        for r in records:
            _assert_same_table(r.span)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_chain_closures(self, n):
        _assert_same_table(LieSpan(_json(f"classify_chain_{n}.json")))

    @given(_with_scalars(st.one_of(
        quadrature_families(),
        st.lists(skew_polys(_LOW_KEYS), min_size=1, max_size=4))))
    @settings(max_examples=40, deadline=None)
    def test_random_closures(self, gens):
        out = _raw_closure(gens, Budget(16, 8))
        if out.outcome == "finite":
            _assert_same_table(out.span)

    def test_unclosed_span_is_rejected(self):
        x, y = SkewPoly.monomial(PLUS, (1, 0)), SkewPoly.monomial(MINUS, (1, 0))
        with pytest.raises(ValueError, match="not closed"):
            StructureConstants.from_span(LieSpan([x, y]))


# ---------------------------------------------------------------------------
# Bracket calls on the chains
# ---------------------------------------------------------------------------

@pytest.fixture
def bracket_calls(monkeypatch):
    """The integer term maps and the result of every bracket, counted where
    the closure, the table, the roots and `bracket` all form them: at
    `_bracket_ints`."""
    calls = []
    bracket_ints = lie_engine._bracket_ints

    def counted(xs, ys):
        z = bracket_ints(xs, ys)
        calls.append((xs, ys, z))
        return z

    monkeypatch.setattr(lie_engine, "_bracket_ints", counted)
    monkeypatch.setattr(classify, "_bracket_ints", counted)
    return calls


def _degree(xs):
    return max(sum(gamma) for _, gamma in xs)


def _is_root(xs):
    """A two-term linear w = r g+(1,0) + s g-(1,0), as `_Commuting` forms
    it; each chain angle has cos and sin in {±3/5, ±4/5}, so both terms."""
    return set(xs) == {(PLUS, (1, 0)), (MINUS, (1, 0))}


@pytest.mark.parametrize("n", range(3, 8))
def test_chain_bracket_calls(n, bracket_calls):
    # the closure is x and n + 1 commuting polynomials in q, one of them
    # the scalar i: x is bracketed with each of the n non-scalars.  The
    # n - 2 elements of degree >= 3 all have the root i q and never meet
    # in a bracket; each costs one bracket with its two-term root, once a
    # second one is there to compare it with (none for n = 3).  i q² and
    # i q, of degree <= 2, have no root and are linked by one zero bracket
    # each.
    out = _raw_closure(_json(f"closure_chain_{n}.json"), Budget())
    dim = out.dim
    assert dim == n + 2
    dear = [_integer_terms(b.terms)[1] for b in out.span.basis
            if b.degree >= 3]
    assert len(dear) == n - 2
    assert all(min(_degree(xs), _degree(ys)) <= 2
               for xs, ys, _ in bracket_calls)
    roots = [ys for xs, ys, z in bracket_calls if _is_root(xs) and not z]
    assert sorted(map(len, roots)) == sorted(
        map(len, dear if n > 3 else []))
    assert all(ys in dear for ys in roots)
    assert len(bracket_calls) == n + len(roots) + 2
    zero_lookups = sum(len(xs) * len(ys) for xs, ys, z in bracket_calls
                       if not z)
    # when every zero link was a bracket of two chain elements these were
    # 90, 285, 714, 1540 and 2988; at n = 7, 220 are now in the five root
    # brackets and 324 link i q² and i q
    assert zero_lookups == (90, 185, 281, 400, 544)[n - 3]
    del bracket_calls[:]
    StructureConstants.from_span(LieSpan(_json(f"classify_chain_{n}.json")))
    # cheapest pairs first: zero brackets of the cheap elements link every
    # element before a root would be needed, 2 dim - 5 brackets in place
    # of dim (dim - 1) / 2, none of them of two elements of degree >= 3
    assert len(bracket_calls) == 2 * dim - 5
    assert all(min(_degree(xs), _degree(ys)) <= 2
               for xs, ys, _ in bracket_calls)
    assert not any(_is_root(xs) and not z for xs, ys, z in bracket_calls)
    costs = [len(xs) * len(ys) for xs, ys, _ in bracket_calls]
    assert costs == sorted(costs)


def test_scalars_are_never_bracketed(bracket_calls):
    i = unit_i()
    gens = [i, SkewPoly.monomial(PLUS, (1, 0)), i.scale(Fraction(2, 3)),
            SkewPoly.monomial(MINUS, (1, 0))]
    out = _raw_closure(gens, Budget())
    assert out.dim == 3
    assert bracket_calls
    # a scalar's only key is (PLUS, (0, 0)), of degree 0
    assert all(max(sum(gamma) for _, gamma in xs) > 0
               and max(sum(gamma) for _, gamma in ys) > 0
               for xs, ys, _ in bracket_calls)


# ---------------------------------------------------------------------------
# Linear roots
# ---------------------------------------------------------------------------

#: q = a + a† and p = i(a† - a) as normal-ordered polynomials
_Q = WeylPoly({(0, 1): GaussianRational.real(1),
               (1, 0): GaussianRational.real(1)})
_P = WeylPoly({(0, 1): GaussianRational.imag(-1),
               (1, 0): GaussianRational.imag(1)})


def _linear(r, s):
    return _Q.scale(GaussianRational.real(r)) + _P.scale(
        GaussianRational.real(s))


def test_roots_of_polynomials_in_a_quadrature():
    # i P(r q + s p) has the root (r, s) made primitive with r > 0; adding
    # i(qp + pq) keeps the top part but breaks commutation
    qp = _Q * _P + _P * _Q
    for (r, s), root in (((1, 0), (1, 0)), ((0, 1), (0, 1)),
                         ((1, 2), (1, 2)), ((3, -5), (3, -5)),
                         ((-2, -4), (1, 2)), ((0, -3), (0, 1))):
        for d in (3, 4, 5):
            poly = _poly_in(_linear(r, s), [2, -1, 0, 3, 1, -2][:d] + [1])
            assert lie_engine._root_of(_times_i(poly)) == root
            assert lie_engine._root_of(_times_i(poly + qp)) is None
    # degree <= 2, and a top part that is not a power: no root
    assert lie_engine._root_of(_times_i(_Q * _Q)) is None
    assert lie_engine._root_of(SkewPoly.monomial(PLUS, (2, 1))) is None


@st.composite
def rotated_polynomials(draw):
    """A `quadrature_families` family of degree 3..6 without i p, with 0, 1
    or 2 extra elements that are one of its polynomials plus a
    perturbation of lower degree."""
    out = draw(quadrature_families(False, (3, 6)))
    for _ in range(draw(st.integers(0, 2))):
        x = draw(st.sampled_from(out))
        keys = [k for k in _KEYS if sum(k[1]) < x.degree]
        out.append(x + draw(skew_polys(keys, max_terms=2)))
    return out


#: skew keys of degree 3..6, the minus-diagonal excluded
_HIGH_KEYS = [(sigma, (a, b)) for a in range(7) for b in range(a + 1)
              if 3 <= a + b <= 6 for sigma in (PLUS, MINUS)
              if not (sigma == MINUS and a == b)]


@given(st.tuples(rotated_polynomials(), rotated_polynomials(),
                 st.lists(skew_polys(_HIGH_KEYS + _LOW_KEYS, 4), max_size=3))
       .map(lambda abc: abc[0] + abc[1] + abc[2]), st.randoms())
@settings(max_examples=50, deadline=None)
def test_zero_only_for_exactly_zero_brackets(elements, rnd):
    elements = [x for x in elements if x.degree >= 1]
    rnd.shuffle(elements)
    forms = [_integer_terms(x.terms) for x in elements]
    commuting = lie_engine._Commuting(forms)
    pairs = list(itertools.combinations(range(len(elements)), 2))
    rnd.shuffle(pairs)
    for i, j in pairs:
        z = bracket(elements[i], elements[j])
        if commuting.zero(i, j):
            assert not z
        elif not z:
            commuting.record(i, j)


def test_polynomials_in_one_quadrature_commute_without_brackets(
        bracket_calls):
    # five elements of degree 3..7: one root bracket each, none between
    # two of them
    ell = _linear(3, -5)
    elements = [_times_i(_poly_in(ell, [1] * (d + 1))) for d in range(3, 8)]
    commuting = lie_engine._Commuting(_integer_terms(x.terms)
                                      for x in elements)
    assert all(commuting.zero(i, j)
               for i, j in itertools.combinations(range(5), 2))
    assert len(bracket_calls) == 5
    assert all(_is_root(xs) and not z for xs, _, z in bracket_calls)


@pytest.mark.parametrize("name", [f"chain_{n}" for n in range(3, 8)]
                         + ["affine_poly_5"])
def test_roots_change_no_closure_or_table(name, monkeypatch):
    gens = _json(f"closure_{name}.json")
    spans = []
    for disabled in (False, True):
        if disabled:
            monkeypatch.setattr(lie_engine, "_linear_root",
                                lambda terms, d: None)
        out = _raw_closure(gens, Budget())
        table = StructureConstants.from_span(out.span)
        spans.append(([list(b.terms.items()) for b in out.span.basis],
                      out.span.canonical_key(), list(table.table.items()),
                      table.integer_table))
    assert spans[0] == spans[1]


def test_affine_family_matches_all_pairs():
    out = _assert_same_closure(_json("closure_affine_poly_5.json"), Budget())
    assert out.dim == 8
    assert [b.degree for b in out.span.basis] == [1, 2, 5, 4, 3, 2, 1, 0]
    _assert_same_table(out.span)


def test_chain_witness_stops_where_the_aux_shares_the_root(monkeypatch):
    # [u, s] = 0 for u and s polynomials in one quadrature: the chain ends
    # before the bracket, as the zero bracket would end it
    ell = _linear(1, 2)
    seed = _times_i(_poly_in(ell, [0, 1, 0, 0, 1]))
    aux = _times_i(_poly_in(ell, [0, 0, 1, 1]))
    calls = []
    monkeypatch.setattr(lie_engine, "bracket",
                        lambda x, y: calls.append(1) or bracket(x, y))
    assert lie_engine.chain_witness(seed, aux) is None
    assert not calls


@given(st.tuples(rotated_polynomials(),
                 st.lists(skew_polys(_HIGH_KEYS + _LOW_KEYS, 3), max_size=2))
       .map(lambda ab: (ab[0] + ab[1])[-3:]).filter(lambda g: len(g) > 1))
@settings(max_examples=60, deadline=None)
def test_chain_witness_is_the_same_without_roots(gens):
    def run():
        return [lie_engine.chain_witness(seed, aux, 6, 12)
                for seed, aux in itertools.permutations(gens, 2)]

    with_roots = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lie_engine, "_linear_root", lambda terms, d: None)
        assert run() == with_roots
