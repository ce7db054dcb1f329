"""Verdicts across an orbit of exact automorphisms of the Weyl algebra.

exp(ad w), for w = i·c·q^k with q = a + a† and k >= 3, is conjugation by
the unitary e^w, an automorphism of the skew-hermitian Weyl algebra.  It
maps a generator set onto one that generates an isomorphic algebra, so
`lie_closure` must give both the same outcome, the same finite dimension
and the same catalog name, whichever rule decides either side."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from skewweyl.classify import identify
from skewweyl.lie_engine import Budget, lie_closure
from skewweyl.weyl_core import (MINUS, PLUS, GaussianRational, SkewPoly,
                                WeylPoly)

#: the skew monomials of degree <= 3
MONOMIALS = [SkewPoly.monomial(s, (a, b)) for a in range(4)
             for b in range(a + 1) if a + b <= 3 for s in (PLUS, MINUS)
             if not (s == MINUS and a == b)]
#: the degree <= 3 sweep elements: each monomial m, and m ± m'
SWEEP = MONOMIALS + [m + n.scale(s)
                     for m, n in itertools.combinations(MONOMIALS, 2)
                     for s in (1, -1)]

#: conjugation raises the degree from 3 to at most 9 (k = 4); with this
#: budget no sampled pair was inconclusive, and 60 pairs take about 2 s on
#: a 2-core x86-64 container
BUDGET = Budget(24, 20)


def quadrature_power(k: int, c: Fraction) -> WeylPoly:
    """w = i·c·q^k, q = a + a†."""
    q = WeylPoly({(1, 0): GaussianRational.real(1),
                  (0, 1): GaussianRational.real(1)})
    out = WeylPoly.term(0, 0, GaussianRational.imag(c))
    for _ in range(k):
        out = out * q
    return out


def conjugate(x: SkewPoly, w: WeylPoly) -> SkewPoly:
    """exp(ad w) x = sum over m of ad_w^m(x) / m!, for w = i·c·q^k.

    ad w is a derivation that kills q and lowers the degree in
    p = -i(a - a†) by one, so the sum ends after at most deg x + 1 terms;
    raises ValueError if it has not."""
    term = out = x.to_weyl()
    for m in range(1, x.degree + 2):
        term = w.commutator(term).scale(GaussianRational.real(Fraction(1, m)))
        if not term:
            return SkewPoly.from_weyl(out)
        out = out + term
    raise ValueError(f"exp(ad w) x has not ended after {x.degree + 1} terms")


def test_conjugation_is_an_automorphism():
    w = quadrature_power(3, Fraction(1, 7))
    x = SkewPoly.monomial(MINUS, (2, 1))
    y = SkewPoly.monomial(PLUS, (3, 0)) + SkewPoly.monomial(MINUS, (1, 0))
    assert conjugate(x, w).to_weyl().commutator(conjugate(y, w).to_weyl()) \
        == conjugate(SkewPoly.from_weyl(x.to_weyl().commutator(y.to_weyl())),
                     w).to_weyl()
    # q commutes with w, so it is fixed
    q = SkewPoly.monomial(PLUS, (1, 0))
    assert conjugate(q, w) == q


def test_orbit_keeps_outcome_dimension_and_name():
    informative = []

    @given(st.sampled_from(SWEEP), st.sampled_from(SWEEP),
           st.sampled_from((3, 4)), st.sampled_from((Fraction(1),
                                                     Fraction(1, 7))))
    @settings(max_examples=60, deadline=None, database=None)
    def check(x, y, k, c):
        w = quadrature_power(k, c)
        before = lie_closure([x, y], BUDGET)
        after = lie_closure([conjugate(x, w), conjugate(y, w)], BUDGET)
        outcomes = (before.outcome, after.outcome)
        # inconclusive on either side says nothing about the other
        informative.append("inconclusive" not in outcomes)
        if not informative[-1]:
            return
        assert after.outcome == before.outcome, (x, y, k, c, outcomes)
        if before.outcome == "finite":
            assert after.dim == before.dim
            assert identify(after.span).name == identify(before.span).name

    check()
    # every example counts; a budget that leaves most of them inconclusive
    # would make this test show nothing
    assert sum(informative) >= len(informative) * 3 // 4, (
        f"{sum(informative)} of {len(informative)} examples informative")
