"""Leading-coefficient infiniteness test and the symplectic frame search."""

import cmath
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewweyl import igusa
from skewweyl import lie_engine
from skewweyl.igusa import (NUMERIC_TOLERANCE, IgusaCertificate,
                            SymplecticParams, _evaluate_frame, _frame_leading,
                            _normal_coeff, chain_degrees, cpoly_mul,
                            identity_check, symplectic_search, transform,
                            verify_certificate)
from skewweyl.lie_engine import (Budget, _leading_parts, bracket,
                                 identity_certificate, lie_closure)
from skewweyl.weyl_core import (GR_I, MINUS, PLUS, GaussianRational, SkewPoly,
                                WeylPoly, skew_from_json, skew_to_json)
from test_weyl_core import assert_record_contract

ROOT = Path(__file__).resolve().parents[1]


def gp(a, b, c=1):
    return SkewPoly.monomial(PLUS, (a, b), Fraction(c))


def gm(a, b, c=1):
    return SkewPoly.monomial(MINUS, (a, b), Fraction(c))


# ---------------------------------------------------------------------------
# Reference: the leading data of the normal-ordered `WeylPoly`, which the
# search read before it read the skew keys
# ---------------------------------------------------------------------------

def leading_pair(x: WeylPoly):
    """(a0, a1): the coefficients of a^d and a† a^{d-1}, d = deg x."""
    d = x.degree
    return x.coeff(0, d), x.coeff(1, d - 1)


def delta(x: WeylPoly, y: WeylPoly) -> GaussianRational:
    """d_y·a1·b0 - d_x·a0·b1: up to lower-order terms, [x, y] has
    a^{d_x+d_y-2} coefficient -delta(x, y)."""
    a0, a1 = leading_pair(x)
    b0, b1 = leading_pair(y)
    dx, dy = x.degree, y.degree
    return a1 * b0 * GaussianRational.real(dy) - a0 * b1 * GaussianRational.real(dx)


def frame_leading(x: WeylPoly, frame):
    """`_frame_leading` over the degree-d terms of a `WeylPoly`."""
    s11, s12, s21, s22 = frame
    r1, r2 = abs(s11) + abs(s12), abs(s21) + abs(s22)
    d = x.degree
    a0 = a1 = 0j
    scale = 0.0
    for (alpha, beta), c in x.terms.items():
        if alpha + beta != d:
            continue
        c = complex(c)
        scale += abs(c) * r1 ** alpha * r2 ** beta
        a0 += c * s12 ** alpha * s22 ** beta
        if alpha:
            a1 += c * alpha * s11 * s12 ** (alpha - 1) * s22 ** beta
        if beta:
            a1 += c * beta * s21 * s12 ** alpha * s22 ** (beta - 1)
    return d, a0 / scale, a1 / scale


def evaluate_frame(x: WeylPoly, y: WeylPoly, params):
    """`_evaluate_frame` on `WeylPoly` leading data, the identity frame in
    `GaussianRational` arithmetic."""
    if params is None:
        a0, _ = leading_pair(x)
        b0, _ = leading_pair(y)
        prod, dlt = a0 * b0, delta(x, y)
        if prod and dlt:
            return IgusaCertificate("infinite", None, complex(prod), complex(dlt))
        return None
    frame = params.matrix()
    d1, a0, a1 = frame_leading(x, frame)
    d2, b0, b1 = frame_leading(y, frame)
    prod = a0 * b0
    dlt = d2 * a1 * b0 - d1 * a0 * b1
    if abs(prod) > NUMERIC_TOLERANCE and abs(dlt) > NUMERIC_TOLERANCE:
        return IgusaCertificate("infinite", params, prod, dlt)
    return None


def cpoly_bracket(p, q):
    out = cpoly_mul(p, q)
    for k, v in cpoly_mul(q, p).items():
        out[k] = out.get(k, 0j) - v
    return {k: v for k, v in out.items() if v}


def weyl_to_cpoly(x: WeylPoly):
    return {k: complex(v) for k, v in x.terms.items()}


def identity_pair(e):
    """(a0, a1) of `_leading_parts` as `GaussianRational`s."""
    a0r, a0i, a1r, a1i = map(Fraction, _leading_parts(e.terms, e.degree))
    return GaussianRational(a0r, a0i), GaussianRational(a1r, a1i)


class TestLeadingData:
    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            identity_check(gp(2, 0), gp(3, 0))

    def test_leading_pair(self):
        # a0 = 1 + i/2 and a1 = 7 + 0i, from g-(3,0), g+(3,0) and g-(2,1),
        # and g+(1,1) lies below the top; with g-(3,1) the degree is 4,
        # a0 = 0 and a1 = 1
        e = gm(3, 0) + gp(3, 0, Fraction(1, 2)) + gm(2, 1, 7) + gp(1, 1, 5)
        assert _leading_parts(e.terms, 3) == (1, Fraction(1, 2), 7, 0)
        assert _leading_parts((e + gm(3, 1)).terms, 4) == (0, 0, 1, 0)
        assert identity_pair(e) == leading_pair(e.to_weyl())

    def test_normal_coeff_follows_the_basis_conventions(self):
        # g+(a,b) = i((a†)^b a^a + (a†)^a a^b), g-(a,b) = (a†)^b a^a - (a†)^a a^b
        e = gp(3, 1, 2) + gm(3, 1, 5) + gp(2, 2, Fraction(1, 3))
        assert _normal_coeff(e.terms, 1, 3) == (5, 2)
        assert _normal_coeff(e.terms, 3, 1) == (-5, 2)
        assert _normal_coeff(e.terms, 2, 2) == (0, Fraction(2, 3))
        assert _normal_coeff(e.terms, 0, 4) == (0, 0)

    def test_delta_example(self):
        # (a0,a1)=(1,0) deg 3 against (b0,b1)=(1,1) deg 4: delta = -3
        cert = _evaluate_frame(gm(3, 0), gm(4, 0) + gm(3, 1), None)
        assert (cert.a0b0, cert.delta) == (1, -3)
        assert delta(gm(3, 0).to_weyl(), gm(3, 1).to_weyl()) \
            == GaussianRational.real(-3)

    def test_delta_antidiagonal_zero(self):
        # a0 = 1 and a1 = i: delta(x, x) = 0 with a0·a0 = 1
        e = gm(4, 0) + gp(3, 1)
        assert identity_pair(e) == (GaussianRational.real(1), GR_I)
        assert _evaluate_frame(e, e, None) is None
        assert delta(e.to_weyl(), e.to_weyl()) == GaussianRational.real(0)

    def test_delta_predicts_commutator_leading_coeff(self):
        # the a^(d1+d2-2) coefficient of [e1, e2] is -delta exactly; the
        # identity certificate carries its floats whenever a0·b0 != 0
        rng = random.Random(11)
        for _ in range(40):
            d1, d2 = rng.randint(3, 5), rng.randint(3, 5)
            e1, e2 = (SkewPoly({(s, g): Fraction(rng.randint(-3, 3),
                                                 rng.randint(1, 3))
                                for g in ((d, 0), (d - 1, 1))
                                for s in (PLUS, MINUS)}) for d in (d1, d2))
            if e1.degree != d1 or e2.degree != d2:
                continue
            re, im = _normal_coeff(bracket(e1, e2).terms, 0, d1 + d2 - 2)
            want = delta(e1.to_weyl(), e2.to_weyl()).scale(Fraction(-1))
            assert GaussianRational(Fraction(re), Fraction(im)) == want
            cert = _evaluate_frame(e1, e2, None)
            if cert is None:
                assert not want or not identity_pair(e1)[0] \
                    or not identity_pair(e2)[0]
            else:
                assert repr(cert.delta) == repr(complex(want.scale(Fraction(-1))))


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


class TestIdentityCertificate:
    """`lie_engine.identity_certificate` is the one exact identity-frame
    test: the closure rule and every `igusa` entry point run it."""

    def test_one_function_serves_the_closure_and_the_search(self,
                                                            monkeypatch):
        assert igusa.identity_certificate is identity_certificate
        assert igusa.IgusaCertificate is lie_engine.IgusaCertificate
        e1, e2 = gm(3, 0) + gm(2, 1), gm(4, 0)
        cert = identity_certificate(e1, e2)
        assert cert == IgusaCertificate("infinite", None, 1 + 0j, 4 + 0j)
        calls = []
        for module in (igusa, lie_engine):
            monkeypatch.setattr(module, "identity_certificate",
                                lambda *args: calls.append(args) or cert)
        assert _evaluate_frame(e1, e2, None) is cert
        assert identity_check(e1, e2) == "infinite"
        assert symplectic_search(e1, e2) is cert
        assert verify_certificate(cert, e1, e2)
        assert lie_closure([e1, e2]).witness.evidence == {
            "pair": [skew_to_json(e1), skew_to_json(e2)], **cert.to_json()}
        assert calls == [(e1, e2)] * 5

    def test_values_past_the_float_range_name_the_certificate(self):
        # a0·b0 = 10^400 has no float value
        e1 = gm(3, 0, Fraction(10) ** 400) + gm(2, 1)
        for run in (lambda: identity_certificate(e1, gm(4, 0)),
                    lambda: symplectic_search(e1, gm(4, 0)),
                    lambda: lie_closure([e1, gm(4, 0)])):
            with pytest.raises(OverflowError,
                               match="identity-frame certificate.*float range"):
                run()

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: a0·b0 = 10^-400 is nonzero but rounds to 0.0 in the "
        "float certificate; ROADMAP item 1, exact a0b0/delta strings, is "
        "the fix"))
    def test_a_product_below_the_float_range_prints_nonzero(self):
        e1 = gm(3, 0, Fraction(1, 10 ** 400)) + gm(2, 1)
        out = lie_closure([e1, gm(4, 0)])
        assert out.witness.rule == "IgusaCertificate"
        assert out.witness.evidence["a0b0"] != [0.0, 0.0]


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
        d, a0, a1 = _frame_leading(e, params.matrix())
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
        # a^3 has 2 and a† a^2 has 2i, divided by the sum 2 + 2 + 2 + 2 of
        # the top-degree |coefficients|; g+(1,1) lies below the top
        e = gm(3, 0, 2) + gp(2, 1, 2) + gp(1, 1, 3)
        assert _frame_leading(e, (1, 0, 0, 1)) == (3, 0.25 + 0j, 0.25j)

    @given(elements_of_degree_3_to_7(), frames,
           st.fractions(min_value=-4, max_value=4,
                        max_denominator=3).filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_proportional_pair_never_certified(self, e, params, c):
        # delta vanishes exactly; its rounding error must stay below the
        # tolerance in every frame
        assert _evaluate_frame(e, e.scale(c), params) is None

    def test_proportional_pair_at_a_wide_frame(self):
        # divided by the largest top-degree |c| alone, a0·b0 reads ~7e4
        # here and the rounding error of delta ~1e-9, a false certificate
        e = gm(6, 0, -2) + gm(5, 1, 3) + gp(4, 2, Fraction(1, 2))
        params = SymplecticParams(-1.499463936541873, 2.4599995960146024,
                                  5.823427508578949)
        assert _evaluate_frame(e, e.scale(Fraction(3, 2)), params) is None
        assert symplectic_search(e, e.scale(Fraction(3, 2))) is None


class TestSearch:
    @pytest.mark.parametrize("cls, values, hashable", [
        (SymplecticParams, (0.5, 0.0, math.pi / 3), True),
        (IgusaCertificate, ("infinite", None, 2 + 1j, -0.5j), False),
        (IgusaCertificate, ("infinite", SymplecticParams(0.5, 0.0, 1.0),
                            1j, 3.0 + 0j), False),
    ], ids=["SymplecticParams", "IgusaCertificate_identity",
            "IgusaCertificate_frame"])
    def test_record_contract(self, cls, values, hashable):
        assert_record_contract(cls, values, hashable)

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

    def test_search_rejects_quadratics(self):
        with pytest.raises(ValueError):
            symplectic_search(gp(2, 0), gp(3, 0))

    def test_json_shape(self):
        cert = symplectic_search(gm(3, 0), gp(3, 0))
        j = cert.to_json()
        assert set(j) == {"verdict", "sigma", "a0b0", "delta"}
        assert j["verdict"] == "infinite"
        assert set(j["sigma"]) == {"s", "phi", "theta"}


# ---------------------------------------------------------------------------
# The search as a decision: some frame certifies iff deg [e1, e2] = d1+d2-2
# ---------------------------------------------------------------------------

_LOW_KEYS = [(sigma, (a, b)) for a in range(3) for b in range(a + 1)
             if a + b <= 2 for sigma in (PLUS, MINUS)
             if not (sigma == MINUS and a == b)]
_small_fractions = st.fractions(min_value=-4, max_value=4,
                                max_denominator=3).filter(bool)


@st.composite
def low_bracket_pairs(draw):
    """Pairs of degree 3..7 with deg [e1, e2] < d1 + d2 - 2: the second top
    part a multiple of the first, or both tops functions of a†a alone."""
    low1, low2 = (SkewPoly(draw(st.dictionaries(
        st.sampled_from(_LOW_KEYS), _small_fractions, max_size=3)))
        for _ in range(2))
    if draw(st.booleans()):
        e1 = draw(elements_of_degree_3_to_7())
        return e1, e1.top_part().scale(draw(_small_fractions)) + low2
    k1, k2 = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    return (gp(k1, k1, draw(_small_fractions)) + low1,
            gp(k2, k2, draw(_small_fractions)) + low2)


def _top_bracket_is_full(e1, e2):
    return bracket(e1, e2).degree == e1.degree + e2.degree - 2


def _deleted_schedule():
    """The frames the search tried before it decided: the identity, a
    16-frame grid and 256 draws seeded with 7."""
    grid = [SymplecticParams(s, phi, theta) for s in (0.5, -0.5, 1.0, -1.0)
            for phi in (0.0, math.pi / 2) for theta in (0.0, math.pi / 2)]
    rng = random.Random(7)
    draws = [SymplecticParams(rng.uniform(-1.5, 1.5),
                              rng.uniform(0.0, 2 * math.pi),
                              rng.uniform(0.0, 2 * math.pi))
             for _ in range(256)]
    return [None] + grid + draws


class TestDecision:
    @given(st.one_of(st.tuples(elements_of_degree_3_to_7(),
                               elements_of_degree_3_to_7()),
                     low_bracket_pairs()))
    @settings(max_examples=120, deadline=None)
    def test_certificate_iff_top_degree_bracket(self, pair):
        e1, e2 = pair
        cert = symplectic_search(e1, e2)
        assert (cert is not None) == _top_bracket_is_full(e1, e2)
        if cert is not None:
            assert verify_certificate(cert, e1, e2)

    def test_commuting_and_proportional_pairs_evaluate_no_frame(
            self, monkeypatch):
        calls = []
        evaluate = igusa._evaluate_frame
        monkeypatch.setattr(igusa, "_evaluate_frame",
                            lambda *args: calls.append(args) or evaluate(*args))
        e = gm(6, 0, -2) + gm(5, 1, 3) + gp(4, 2, Fraction(1, 2))
        kerr = gp(2, 2) + gp(1, 1)
        for e1, e2 in [(e, e.scale(Fraction(3, 2))), (e, e),
                       (gp(2, 2), gp(3, 3, 2)), (kerr, gp(3, 3))]:
            assert symplectic_search(e1, e2) is None
        assert calls == []
        # the counter sees the search when it runs: the identity fails and
        # the first frame of the family certifies
        assert symplectic_search(gm(3, 0), gp(3, 0)).params \
            == SymplecticParams(0.5, 0.0, 0.0)
        assert len(calls) == 2

    def test_full_degree_monomial_pairs_certify_through_degree_17(self):
        for d in (3, 10, 17):
            cert = symplectic_search(gp(d, 0), gm(d, 0))
            assert cert is not None
            assert verify_certificate(cert, gp(d, 0), gm(d, 0))

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: past degree 17 the normalised a0·b0 and delta of "
        "every float frame fall below NUMERIC_TOLERANCE; ROADMAP item 1, "
        "the exact shear, is the fix"))
    def test_full_degree_monomial_pair_certifies_at_degree_18(self):
        e1, e2 = gp(18, 0), gm(18, 0)
        assert _top_bracket_is_full(e1, e2)
        assert symplectic_search(e1, e2) is not None

    @given(low_bracket_pairs())
    @settings(max_examples=30, deadline=None)
    def test_deleted_schedule_finds_nothing_below_the_top_degree(self, pair):
        e1, e2 = pair
        assert not _top_bracket_is_full(e1, e2)
        assert all(_evaluate_frame(e1, e2, params) is None
                   for params in _deleted_schedule())


# ---------------------------------------------------------------------------
# The skew-key reader against the `WeylPoly` reference
# ---------------------------------------------------------------------------

@st.composite
def skew_elements(draw):
    """Degree 3..7 elements whose keys come in a drawn order: one to three
    top-degree γ, each as g+, g- or both (g+ alone on the diagonal), below
    them up to two lower γ of degree >= 3 and up to three of degree <= 2."""
    d = draw(st.integers(3, 7))
    top = [(a, d - a) for a in range((d + 1) // 2, d + 1)]
    below = [(a, b) for a in range(d) for b in range(a + 1) if 3 <= a + b < d]
    gammas = draw(st.lists(st.sampled_from(top), min_size=1, max_size=3,
                           unique=True))
    if below:
        gammas += draw(st.lists(st.sampled_from(below), max_size=2,
                                unique=True))
    keys = [(s, g) for g in gammas
            for s in ((PLUS,) if g[0] == g[1] else draw(st.sampled_from(
                [(PLUS,), (MINUS,), (PLUS, MINUS), (MINUS, PLUS)])))]
    keys += draw(st.lists(st.sampled_from(_LOW_KEYS), max_size=3, unique=True))
    keys = draw(st.permutations(keys))
    return SkewPoly({k: draw(_small_fractions) for k in keys})


@st.composite
def det_one_frames(draw):
    """(s11, s12, s21, s22) with s22 = (1 + s12·s21)/s11."""
    part = st.floats(-2.0, 2.0)
    s12, s21 = (complex(draw(part), draw(part)) for _ in range(2))
    s11 = cmath.rect(draw(st.floats(0.25, 4.0)),
                     draw(st.floats(0.0, 2 * math.pi)))
    return s11, s12, s21, (1 + s12 * s21) / s11


class TestSkewKeyReader:
    # repr tells every float apart, -0.0 from 0.0 included, so equal reprs
    # are bit-identical values
    @given(skew_elements(), skew_elements(), det_one_frames())
    @settings(max_examples=150, deadline=None)
    def test_leading_data_equal_the_weyl_reference(self, e1, e2, frame):
        x, y = e1.to_weyl(), e2.to_weyl()
        for e, w in ((e1, x), (e2, y)):
            assert e.degree == w.degree
            assert identity_pair(e) == leading_pair(w)
        assert repr(_evaluate_frame(e1, e2, None)) \
            == repr(evaluate_frame(x, y, None))
        n = 2 * (e1.degree + e2.degree) - 1
        family = [SymplecticParams(0.5, 0.0, 2 * math.pi * k / n)
                  for k in range(n)]
        for params in family:
            assert repr(_evaluate_frame(e1, e2, params)) \
                == repr(evaluate_frame(x, y, params))
        frames = [(1, 0, 0, 1), frame] + [p.matrix() for p in family]
        for e, w in ((e1, x), (e2, y)):
            for f in frames:
                assert repr(_frame_leading(e, f)) == repr(frame_leading(w, f))


def test_verdicts_and_igusa_pairs_need_no_weyl_conversion(monkeypatch):
    # the closures of two benchmark verdicts passes and the search on the
    # golden pairs give the same outputs when SkewPoly.to_weyl raises
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    closures = [([skew_from_json(g) for g in t.expect["gens"]],
                 Budget(t.expect.get("budget_dim", 64)))
                for seed in (3, 11) for t in workloads.build("verdicts", seed)
                if t.kind == "closure"]
    pairs = [(skew_from_json(p["e1"]), skew_from_json(p["e2"])) for p in
             json.loads((ROOT / "tests" / "data" / "igusa_pairs.json")
                        .read_text())]

    def outputs():
        return ([lie_closure(gens, budget).to_json()
                 for gens, budget in closures],
                [repr(symplectic_search(e1, e2)) for e1, e2 in pairs])

    want = outputs()

    def to_weyl(self):
        raise AssertionError("SkewPoly.to_weyl called")

    monkeypatch.setattr(SkewPoly, "to_weyl", to_weyl)
    assert outputs() == want
