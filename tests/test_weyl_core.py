"""Exact arithmetic in the Weyl algebra and the skew-hermitian basis."""

import copy
import inspect
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

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
    _exact,
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


def assert_record_contract(cls, values, hashable):
    """`cls(*values)` sets its fields in order, compares equal to a second
    copy, is read-only and has the repr `Name(field=value, ...)`; it hashes
    when `hashable` (the frozen record types)."""
    x, y = cls(*values), cls(*values)
    names = list(inspect.signature(cls).parameters)
    assert tuple(getattr(x, n) for n in names) == tuple(values)
    assert x == y and not x != y
    if hashable:
        assert hash(x) == hash(y) and len({x, y}) == 1
    assert repr(x) == "{}({})".format(cls.__name__, ", ".join(
        f"{n}={v!r}" for n, v in zip(names, values)))
    for n in names:
        with pytest.raises(AttributeError):
            setattr(x, n, values[0])


class TestGaussianRational:
    @pytest.mark.parametrize("values", [(Fraction(1, 2), Fraction(-3)),
                                        (Fraction(0), Fraction(0))])
    def test_record_contract(self, values):
        assert_record_contract(GaussianRational, values, hashable=True)

    def test_defaults_and_value_semantics(self):
        g = GaussianRational(Fraction(1, 2), Fraction(-3))
        assert GaussianRational() == GaussianRational(Fraction(0), Fraction(0))
        assert GaussianRational(im=Fraction(1)) == GR_I
        assert g != GaussianRational(Fraction(1, 2), Fraction(3))
        assert g != (Fraction(1, 2), Fraction(-3))
        assert copy.copy(g) == pickle.loads(pickle.dumps(g)) == g
        with pytest.raises(AttributeError):
            del g.re

    @pytest.mark.parametrize("op", [lambda g: 2 * g, lambda g: g * 2,
                                    lambda g: g + (1,), lambda g: (1,) + g,
                                    lambda g: g - 1, lambda g: g < g,
                                    lambda g: g >= g],
                             ids=["int_times", "times_int", "plus_tuple",
                                  "tuple_plus", "minus_int", "lt", "ge"])
    def test_not_a_tuple(self, op):
        # a number type: no repetition, concatenation or ordering
        with pytest.raises(TypeError):
            op(GaussianRational(Fraction(1), Fraction(2)))


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


#: the coefficient strings `skew_to_json` writes, and the only ones read
COEFF_GRAMMAR = r"\A[+-]?[0-9]+(/[0-9]+)?\Z"


class TestJson:
    @given(st.from_regex(COEFF_GRAMMAR))
    @example("-007/010")
    @example("+0/0")
    def test_grammar_read_as_fraction_reads_it(self, s):
        try:
            want = Fraction(s)
        except Exception as exc:  # a zero denominator
            with pytest.raises(type(exc)):
                _exact(s)
        else:
            got = _exact(s)
            assert got == want and type(got) is Fraction

    @given(st.text())
    @example("1e10000000")
    @example("0.5")
    @example(" 1")
    @example("1_0")
    @example("\u0663")
    @example("1/-2")
    def test_strings_outside_the_grammar_rejected(self, s):
        assume(not re.match(COEFF_GRAMMAR, s))
        with pytest.raises(ValueError):
            _exact(s)

    def test_repeated_keys_summed_and_zero_sums_dropped_first(self):
        def term(sigma, alpha, beta, coeff):
            return {"sigma": sigma, "alpha": alpha, "beta": beta,
                    "coeff": coeff}
        x = skew_from_json({"skew": [term("+", 1, 0, "1/2"),
                                     term("-", 2, 2, "3"),
                                     term("+", 1, 0, 1)]})
        assert x == gp(1, 0, Fraction(3, 2))
        assert all(type(c) is Fraction for c in x.terms.values())
        # a key that is not well-ordered is an error only with a nonzero sum
        bad = [term("+", 0, 2, "1"), term("+", 0, 2, "-1")]
        assert skew_from_json({"skew": bad}) == SkewPoly()
        with pytest.raises(ValueError, match="not well-ordered"):
            skew_from_json({"skew": bad[:1]})

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

    @pytest.mark.parametrize("coeff", [0.1, True, 1.0, "1e3", "0.5", "1_0",
                                       " 1"])
    def test_inexact_coefficients_rejected(self, coeff):
        # 0.1 used to be read as 3602879701896397/36028797018963968, true as
        # 1, "1e3" as 1000
        with pytest.raises(ValueError, match="bad skew term at index 0"):
            skew_from_json({"skew": [{"sigma": "+", "alpha": 1, "beta": 0,
                                      "coeff": coeff}]})
        with pytest.raises(ValueError, match="bad weyl term at index 0"):
            weyl_from_json({"weyl": [{"alpha": 1, "beta": 0, "re": coeff,
                                      "im": "0"}]})
        with pytest.raises(ValueError, match="bad weyl term at index 0"):
            weyl_from_json({"weyl": [{"alpha": 1, "beta": 0, "re": "1",
                                      "im": coeff}]})

    @pytest.mark.parametrize("coeff, want", [("1/3", Fraction(1, 3)),
                                             (-2, Fraction(-2))])
    def test_string_and_integer_coefficients_are_exact(self, coeff, want):
        assert skew_from_json({"skew": [
            {"sigma": "+", "alpha": 1, "beta": 0, "coeff": coeff}]}) \
            == gp(1, 0, want)
        assert weyl_from_json({"weyl": [
            {"alpha": 1, "beta": 0, "re": coeff, "im": coeff}]}) \
            == WeylPoly.term(1, 0, GaussianRational(want, want))

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError, match="index 0"):
            skew_from_json({"skew": [{"sigma": "+", "alpha": 1, "beta": 0,
                                      "coeff": "1/0"}]})
        with pytest.raises(ValueError, match="index 0"):
            weyl_from_json({"weyl": [{"alpha": 1, "beta": 0, "re": "1",
                                      "im": "1/0"}]})
