"""Leading-coefficient infiniteness test and the symplectic frame search."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewweyl.igusa import (NUMERIC_TOLERANCE, SymplecticParams,
                            _evaluate_frame, _frame_leading, chain_degrees,
                            cpoly_bracket, delta, identity_check,
                            leading_pair, symplectic_search, transform,
                            verify_certificate, weyl_to_cpoly)
from skewweyl.lie_engine import lie_closure
from skewweyl.weyl_core import (GR_I, GR_ONE, MINUS, PLUS, GaussianRational,
                                SkewPoly, WeylPoly)


def gp(a, b, c=1):
    return SkewPoly.monomial(PLUS, (a, b), Fraction(c))


def gm(a, b, c=1):
    return SkewPoly.monomial(MINUS, (a, b), Fraction(c))


class TestLeadingData:
    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            identity_check(gp(2, 0), gp(3, 0))

    def test_leading_pair(self):
        x = WeylPoly.term(0, 3) + WeylPoly.term(1, 2, GaussianRational.real(7))
        a0, a1 = leading_pair(x)
        assert a0 == GR_ONE
        assert a1 == GaussianRational.real(7)

    def test_delta_example(self):
        # (a0,a1)=(1,0) deg 3 against (b0,b1)=(0,1) deg 4: delta = -3
        x = WeylPoly.term(0, 3)
        y = WeylPoly.term(1, 3)
        assert delta(x, y) == GaussianRational.real(-3)

    def test_delta_antidiagonal_zero(self):
        x = WeylPoly.term(0, 4) + WeylPoly.term(1, 3, GR_I)
        assert delta(x, x) == GaussianRational.real(0)

    def test_delta_predicts_commutator_leading_coeff(self):
        rng = random.Random(11)
        for _ in range(20):
            dx, dy = rng.randint(3, 5), rng.randint(3, 5)
            x = (WeylPoly.term(0, dx, GaussianRational.real(rng.randint(-3, 3)))
                 + WeylPoly.term(1, dx - 1, GaussianRational.real(rng.randint(-3, 3))))
            y = (WeylPoly.term(0, dy, GaussianRational.real(rng.randint(-3, 3)))
                 + WeylPoly.term(1, dy - 1, GaussianRational.real(rng.randint(-3, 3))))
            if x.degree != dx or y.degree != dy:
                continue
            comm = x * y + y * x.scale(GaussianRational.real(-1))
            got = comm.coeff(0, dx + dy - 2)
            want = delta(x, y).scale(Fraction(-1))
            assert got == want


class TestIdentityCheck:
    def test_mixed_cubic_pair_is_infinite(self):
        # a0·b0 = -3+6i and delta = -6-3i
        e1 = gp(3, 0) + gm(3, 0, 2)
        e2 = gp(3, 0, 3) + gm(2, 1)
        assert identity_check(e1, e2) == "infinite"

    def test_plus_only_pair_inconclusive(self):
        # both elements pure g_+: delta degenerates to 0
        e1, e2 = gp(3, 0), gp(4, 0)
        assert identity_check(e1, e2) == "inconclusive"

    def test_one_nonzero_part_is_enough(self):
        # a0·b0 = 1 and delta = 4 are real: the criterion asks for nonzero
        # values, not for nonzero real and imaginary parts
        e1, e2 = gm(3, 0) + gm(2, 1), gm(4, 0)
        assert identity_check(e1, e2) == "infinite"
        out = lie_closure([e1, e2])
        assert out.outcome == "infinite"
        assert out.witness.rule == "IgusaCertificate"
        assert out.witness.evidence["sigma"] == "identity"
        assert out.witness.evidence["a0b0"] == [1.0, 0.0]
        assert out.witness.evidence["delta"] == [4.0, 0.0]

    def test_verdict_vocabulary(self):
        assert identity_check(gm(3, 0), gp(3, 0)) in {"infinite", "inconclusive"}


class TestTransform:
    def test_identity_tuple_is_noop(self):
        x = WeylPoly.term(2, 1) + WeylPoly.term(0, 0, GR_I)
        p = transform(x, (1, 0, 0, 1))
        q = weyl_to_cpoly(x)
        keys = set(p) | set(q)
        for k in keys:
            assert abs(p.get(k, 0) - q.get(k, 0)) < 1e-12

    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValueError):
            transform(WeylPoly.term(1, 0), (1, 0, 0, 2))

    def test_params_matrix_has_unit_determinant(self):
        p = SymplecticParams(0.7, 1.1, -0.4)
        s11, s12, s21, s22 = p.matrix()
        assert abs(s11 * s22 - s12 * s21 - 1) < 1e-12

    def test_bracket_preserved_under_frame(self):
        params = SymplecticParams(0.3, 0.9, 2.0)
        x = WeylPoly.term(2, 0) + WeylPoly.term(0, 1)
        y = WeylPoly.term(1, 2)
        comm = x * y + y.scale(GaussianRational.real(-1)) * x
        lhs = transform(comm, params)
        rhs = cpoly_bracket(transform(x, params), transform(y, params))
        keys = set(lhs) | set(rhs)
        scale = max(abs(v) for v in lhs.values())
        for k in keys:
            assert abs(lhs.get(k, 0) - rhs.get(k, 0)) < 1e-9 * scale


# well-ordered skew keys of total degree 3..7, minus-diagonal excluded
_TOP_KEYS = [(sigma, (a, b)) for a in range(8) for b in range(a + 1)
             if 3 <= a + b <= 7 for sigma in (PLUS, MINUS)
             if not (sigma == MINUS and a == b)]


@st.composite
def elements_of_degree_3_to_7(draw):
    terms = draw(st.dictionaries(
        st.sampled_from(_TOP_KEYS),
        st.fractions(min_value=-4, max_value=4, max_denominator=3)
        .filter(bool), min_size=1, max_size=4))
    return SkewPoly(terms)


frames = st.builds(SymplecticParams,
                   st.floats(-1.5, 1.5), st.floats(0.0, 2 * math.pi),
                   st.floats(0.0, 2 * math.pi))


class TestFrameLeading:
    @given(elements_of_degree_3_to_7(), frames)
    @settings(max_examples=80, deadline=None)
    def test_matches_full_transform(self, e, params):
        x = e.to_weyl()
        d, a0, a1 = _frame_leading(x, params.matrix())
        p = transform(x, params)
        s11, s12, s21, s22 = params.matrix()
        scale = sum(abs(complex(c)) * (abs(s11) + abs(s12)) ** a
                    * (abs(s21) + abs(s22)) ** b
                    for (a, b), c in x.terms.items() if a + b == d)
        # the frame change keeps the degree ...
        assert d == x.degree
        assert all(a + b <= d for a, b in p)
        assert max(abs(v) for (a, b), v in p.items() if a + b == d) \
            > NUMERIC_TOLERANCE * scale
        # ... and the leading data are those of the full transform, scaled
        size = max(1.0, abs(a0), abs(a1))
        assert abs(p.get((0, d), 0) / scale - a0) < 1e-12 * size
        assert abs(p.get((1, d - 1), 0) / scale - a1) < 1e-12 * size

    def test_identity_frame_divides_by_top_coefficient_sum(self):
        # divided by the sum 2 + 1 + 1 of the top-degree |coefficients|
        x = (WeylPoly.term(0, 3, GaussianRational.real(2))
             + WeylPoly.term(1, 2, GR_I) + WeylPoly.term(3, 0))
        assert _frame_leading(x, (1, 0, 0, 1)) == (3, 0.5 + 0j, 0.25j)

    @given(elements_of_degree_3_to_7(), frames,
           st.fractions(min_value=-4, max_value=4,
                        max_denominator=3).filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_proportional_pair_never_certified(self, e, params, c):
        # delta vanishes exactly; its rounding error must stay below the
        # tolerance in every frame
        x = e.to_weyl()
        assert _evaluate_frame(x, e.scale(c).to_weyl(), params) is None

    def test_proportional_pair_at_a_wide_frame(self):
        # divided by the largest top-degree |c| alone, a0·b0 reads ~7e4
        # here and the rounding error of delta ~1e-9, a false certificate
        e = gm(6, 0, -2) + gm(5, 1, 3) + gp(4, 2, Fraction(1, 2))
        params = SymplecticParams(-1.499463936541873, 2.4599995960146024,
                                  5.823427508578949)
        x, y = e.to_weyl(), e.scale(Fraction(3, 2)).to_weyl()
        assert _evaluate_frame(x, y, params) is None
        assert symplectic_search(e, e.scale(Fraction(3, 2))) is None


class TestSearch:
    def test_negative_example_needs_frame_change(self):
        # pure-minus / pure-plus cubics: inconclusive at the identity,
        # certified after a hyperbolic frame change
        e1, e2 = gm(3, 0), gp(3, 0)
        assert identity_check(e1, e2) == "inconclusive"
        cert = symplectic_search(e1, e2)
        assert cert is not None
        assert cert.verdict == "infinite"
        assert cert.params is not None
        assert abs(cert.a0b0) > NUMERIC_TOLERANCE
        assert abs(cert.delta) > NUMERIC_TOLERANCE

    def test_certificate_verifies(self):
        e1, e2 = gm(3, 0), gp(3, 0)
        cert = symplectic_search(e1, e2)
        assert verify_certificate(cert, e1, e2)

    def test_certificate_chain_grows(self):
        e1, e2 = gm(3, 0), gp(3, 0)
        cert = symplectic_search(e1, e2)
        degrees = chain_degrees(e1, e2, cert.params, steps=5)
        growth = sum(1 for a, b in zip(degrees, degrees[1:]) if b > a)
        assert growth >= 3

    def test_identity_frame_is_exact_path(self):
        e1 = gp(3, 0) + gm(2, 1)
        e2 = gm(4, 0) + gp(3, 1)
        cert = symplectic_search(e1, e2)
        if cert is not None and cert.params is None:
            # exact identity certificate: sigma serialized as "identity"
            assert cert.to_json()["sigma"] == "identity"

    def test_zero_samples_can_return_none(self):
        # a pair engineered to fail the identity frame and small grid may
        # still fail with no random samples; whatever comes back must verify
        e1, e2 = gm(3, 0), gp(3, 0)
        cert = symplectic_search(e1, e2, samples=0)
        if cert is not None:
            assert verify_certificate(cert, e1, e2)

    def test_search_rejects_quadratics(self):
        with pytest.raises(ValueError):
            symplectic_search(gp(2, 0), gp(3, 0))

    def test_search_deterministic(self):
        e1, e2 = gm(3, 0), gp(3, 0)
        c1 = symplectic_search(e1, e2, seed=7)
        c2 = symplectic_search(e1, e2, seed=7)
        assert c1.params == c2.params
        assert c1.a0b0 == c2.a0b0

    def test_json_shape(self):
        cert = symplectic_search(gm(3, 0), gp(3, 0))
        j = cert.to_json()
        assert set(j) == {"verdict", "sigma", "a0b0", "delta"}
        assert j["verdict"] == "infinite"
        assert set(j["sigma"]) == {"s", "phi", "theta"}
