"""Exact arithmetic in the Weyl algebra and the skew-hermitian basis."""

from fractions import Fraction

import pytest

from skewweyl.weyl_core import (
    GR_I,
    GR_ONE,
    MINUS,
    NEG_INF,
    PLUS,
    GaussianRational,
    SkewPoly,
    WeylPoly,
    number_op,
    schrodinger_monomials,
    skew_from_json,
    skew_to_json,
    subspace_of,
    unit_i,
    weyl_from_json,
    weyl_to_json,
)

A = WeylPoly.term(0, 1, GR_ONE)       # a
AD = WeylPoly.term(1, 0, GR_ONE)      # a†


def gp(alpha, beta, c=1):
    return SkewPoly.monomial(PLUS, (alpha, beta), Fraction(c))


def gm(alpha, beta, c=1):
    return SkewPoly.monomial(MINUS, (alpha, beta), Fraction(c))


class TestWeylProduct:
    def test_canonical_commutation(self):
        # a a† = a†a + 1
        assert A * AD == WeylPoly.term(1, 1, GR_ONE) + WeylPoly.term(0, 0, GR_ONE)

    def test_normal_ordering_example(self):
        # (a†² a)(a† a²) = a†³a³ + a†²a²; oracle-checked in test_fock_oracle
        p = WeylPoly.term(2, 1, GR_ONE)
        q = WeylPoly.term(1, 2, GR_ONE)
        assert p * q == (WeylPoly.term(3, 3, GR_ONE)
                         + WeylPoly.term(2, 2, GR_ONE))

    def test_reorder_closed_form(self):
        # a² a†² = a†²a² + 4 a†a + 2
        p = WeylPoly.term(0, 2, GR_ONE) * WeylPoly.term(2, 0, GR_ONE)
        assert p == (WeylPoly.term(2, 2, GR_ONE)
                     + WeylPoly.term(1, 1, GaussianRational.real(4))
                     + WeylPoly.term(0, 0, GaussianRational.real(2)))

    def test_degree_and_truncation(self):
        p = A * A * AD
        assert p.degree == 3
        assert p.truncate_to_degree(1).degree == 1
        assert WeylPoly().degree == NEG_INF

    def test_dagger_antihomomorphism(self):
        p, q = A * AD + A, AD * AD
        assert (p * q).dagger() == q.dagger() * p.dagger()


class TestSkewBasis:
    def test_minus_monomial_realization(self):
        assert gm(1, 0).to_weyl() == A - AD

    def test_plus_monomial_realization(self):
        assert gp(1, 0).to_weyl() == (A + AD).scale(GR_I)

    def test_diagonal_monomials(self):
        # g_+ at (k,k) is 2i (a†)^k a^k; the minus partner vanishes
        assert gp(1, 1).to_weyl() == WeylPoly.term(1, 1, GaussianRational.imag(2))
        assert SkewPoly.monomial(MINUS, (1, 1)) == SkewPoly.zero()
        with pytest.raises(ValueError):
            SkewPoly.monomial(PLUS, (0, 2))  # not well-ordered

    def test_unit_and_number(self):
        assert unit_i().to_weyl() == WeylPoly.term(0, 0, GR_I)
        assert number_op().to_weyl() == WeylPoly.term(1, 1, GR_I)

    def test_roundtrip_all_low_degree(self):
        for g in schrodinger_monomials():
            assert SkewPoly.from_weyl(g.to_weyl()) == g

    def test_roundtrip_higher(self):
        x = gp(4, 1, Fraction(3, 7)) + gm(3, 0, -2) + gp(2, 2, Fraction(1, 3))
        assert SkewPoly.from_weyl(x.to_weyl()) == x

    def test_from_weyl_rejects_non_skew(self):
        with pytest.raises(ValueError, match="skew-hermitian"):
            SkewPoly.from_weyl(A)

    def test_rejects_negative_powers(self):
        with pytest.raises(ValueError, match="negative powers"):
            SkewPoly({(PLUS, (-1, -2)): Fraction(1)})
        with pytest.raises(ValueError, match="negative powers"):
            SkewPoly.monomial(MINUS, (0, -1))
        with pytest.raises(ValueError, match="negative powers"):
            skew_from_json({"skew": [
                {"sigma": "+", "alpha": -1, "beta": -2, "coeff": "1"}]})

    def test_subspace_partition(self):
        assert subspace_of(PLUS, (0, 0)) == "A0"
        assert subspace_of(PLUS, (1, 1)) == "A0"
        assert subspace_of(MINUS, (1, 0)) == "A1"
        assert subspace_of(PLUS, (2, 0)) == "A2"
        assert subspace_of(PLUS, (2, 2)) == "Aeq"
        assert subspace_of(MINUS, (3, 0)) == "Aperp"
        assert subspace_of(PLUS, (2, 1)) == "Aperp"

    def test_projections_sum_to_identity(self):
        x = gp(3, 0) + gm(2, 0) + gp(2, 2) + unit_i() + gm(1, 0)
        total = SkewPoly.zero()
        for tag in ("A0", "A1", "A2", "Aeq", "Aperp"):
            total = total + x.project(tag)
        assert total == x


class TestJson:
    def test_skew_roundtrip(self):
        x = gp(2, 0, Fraction(3, 2)) + gm(3, 1, -1)
        assert skew_from_json(skew_to_json(x)) == x

    def test_weyl_roundtrip(self):
        p = A * AD + AD.scale(GR_I)
        assert weyl_from_json(weyl_to_json(p)) == p

    def test_wire_format_fields(self):
        obj = skew_to_json(gp(2, 0, Fraction(3, 2)))
        assert obj == {"skew": [{"sigma": "+", "alpha": 2, "beta": 0,
                                 "coeff": "3/2"}]}

    def test_bad_input_messages(self):
        with pytest.raises(ValueError):
            skew_from_json({"skew": [{"sigma": "+", "alpha": 0, "beta": 2,
                                      "coeff": "1"}]})

    @pytest.mark.parametrize("index", [1.7, 1.0, True, "1"])
    def test_non_integer_indices_rejected(self, index):
        # 1.7 and true used to be read as 1
        with pytest.raises(ValueError, match="bad skew term at index 1"):
            skew_from_json({"skew": [
                {"sigma": "+", "alpha": 2, "beta": 0, "coeff": "1"},
                {"sigma": "+", "alpha": index, "beta": 0, "coeff": "1"}]})
        with pytest.raises(ValueError, match="bad weyl term at index 0"):
            weyl_from_json({"weyl": [{"alpha": 1, "beta": index, "re": "1",
                                      "im": "0"}]})

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError, match="index 0"):
            skew_from_json({"skew": [{"sigma": "+", "alpha": 1, "beta": 0,
                                      "coeff": "1/0"}]})
        with pytest.raises(ValueError, match="index 0"):
            weyl_from_json({"weyl": [{"alpha": 1, "beta": 0, "re": "1",
                                      "im": "1/0"}]})
