"""Brackets skipped because they are proven zero: for a non-scalar w of the
Weyl algebra the centralizer C(w) is commutative (Amitsur 1958), so two
elements that commute with the same non-scalar w commute, and a scalar
commutes with everything.  `_raw_closure` and `StructureConstants.from_span`
skip such pairs; here they are checked against the all-pairs loops they
replace, and the brackets they save on the nilpotent chains are counted."""

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
                                 _raw_closure, bracket)
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


@st.composite
def quadrature_families(draw, with_momentum=True):
    """i P_k(q) for one rational-angle quadrature q = cos θ (a + a†)
    - i sin θ (a - a†) with tan(θ/2) = t, a few real polynomials P_k of
    degree <= 4, and, if drawn, its conjugate x = i p, as
    `perfbench.workloads.chain_generators` builds its pair."""
    t = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    q = WeylPoly({(0, 1): GaussianRational(c, -s),
                  (1, 0): GaussianRational(c, s)})
    p = WeylPoly({(0, 1): GaussianRational(-s, -c),
                  (1, 0): GaussianRational(-s, c)})
    powers = [WeylPoly({(0, 0): GaussianRational.real(1)})]
    for _ in range(4):
        powers.append(powers[-1] * q)
    family = []
    for cs in draw(st.lists(st.lists(coeffs, min_size=1, max_size=5),
                            min_size=1, max_size=4)):
        poly = WeylPoly()
        for power, k in zip(powers, cs):
            poly = poly + power.scale(GaussianRational.real(k))
        family.append(_times_i(poly))
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
    """The integer term maps of every bracket, counted where the closure,
    the table and `bracket` all form them: at `_bracket_ints`."""
    calls = []
    bracket_ints = lie_engine._bracket_ints

    def counted(xs, ys):
        calls.append((xs, ys))
        return bracket_ints(xs, ys)

    monkeypatch.setattr(lie_engine, "_bracket_ints", counted)
    monkeypatch.setattr(classify, "_bracket_ints", counted)
    return calls


@pytest.mark.parametrize("n", range(3, 8))
def test_chain_bracket_calls(n, bracket_calls):
    # the closure is x and n + 1 commuting polynomials in q, one of them
    # the scalar i: x is bracketed with each of the n non-scalars, and one
    # zero bracket links each non-scalar but the first to a common one,
    # 2n - 1 = 2 dim - 5 brackets in place of dim (dim - 1) / 2
    out = _raw_closure(_json(f"closure_chain_{n}.json"), Budget())
    dim = out.dim
    assert dim == n + 2
    assert len(bracket_calls) == 2 * dim - 5
    del bracket_calls[:]
    StructureConstants.from_span(LieSpan(_json(f"classify_chain_{n}.json")))
    assert len(bracket_calls) == 2 * dim - 5
    # cheapest pairs first
    costs = [len(xs) * len(ys) for xs, ys in bracket_calls]
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
               for xs, ys in bracket_calls)
