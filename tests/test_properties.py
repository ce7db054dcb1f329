"""Property-based invariants of the exact algebra layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewweyl.classify import StructureConstants, fingerprint
from skewweyl.lie_engine import (Budget, LieSpan, _raw_closure, bracket,
                                 lie_closure)
from skewweyl.weyl_core import (MINUS, PLUS, SkewPoly, _normal_coeff,
                                schrodinger_monomials, skew_from_json,
                                skew_to_json)
from test_commuting import (_all_pairs_closure, _all_pairs_table, _json,
                            _with_scalars, budgets, quadrature_families)

# well-ordered index pairs of total degree <= 5, minus-diagonal excluded
_KEYS = [
    (sigma, (a, b))
    for a in range(6)
    for b in range(a + 1)
    if a + b <= 5
    for sigma in (PLUS, MINUS)
    if not (sigma == MINUS and a == b)
]

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def skew_polys(draw, max_terms=3):
    terms = draw(st.dictionaries(st.sampled_from(_KEYS), coeffs,
                                 max_size=max_terms))
    return SkewPoly({k: v for k, v in terms.items() if v})


class TestBracketAxioms:
    @given(skew_polys(), skew_polys())
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry(self, x, y):
        assert bracket(x, y) == bracket(y, x).scale(-1)

    @given(skew_polys(max_terms=2), skew_polys(max_terms=2),
           skew_polys(max_terms=2))
    @settings(max_examples=40, deadline=None)
    def test_jacobi(self, x, y, z):
        lhs = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
               + bracket(z, bracket(x, y)))
        assert lhs == SkewPoly.zero()

    @given(skew_polys(), skew_polys(), coeffs)
    @settings(max_examples=60, deadline=None)
    def test_bilinearity(self, x, y, c):
        assert bracket(x.scale(c), y) == bracket(x, y).scale(c)
        assert bracket(x + y, x) == bracket(x, x) + bracket(y, x)

    @given(skew_polys(), skew_polys())
    @settings(max_examples=60, deadline=None)
    def test_one_product_bracket_matches_commutator(self, x, y):
        assert bracket(x, y) == SkewPoly.from_weyl(
            x.to_weyl().commutator(y.to_weyl()))

    @given(skew_polys(), skew_polys())
    @settings(max_examples=60, deadline=None)
    def test_commutator_stays_antihermitian(self, x, y):
        w = bracket(x, y).to_weyl()
        assert w.dagger().terms == {k: -v for k, v in w.terms.items()}


class TestRepresentations:
    @given(skew_polys())
    @settings(max_examples=80, deadline=None)
    def test_weyl_roundtrip(self, x):
        assert SkewPoly.from_weyl(x.to_weyl()) == x

    @given(skew_polys(max_terms=5))
    @settings(max_examples=80, deadline=None)
    def test_normal_coeff_equals_the_weyl_conversion(self, x):
        # the one normal-ordered reader against `to_weyl`, which sums
        # `_weyl_terms`, at every index up to the degree, zeros included
        w = x.to_weyl()
        d = max(x.degree, 0)
        for alpha in range(d + 1):
            for beta in range(d + 1):
                c = w.coeff(alpha, beta)
                assert _normal_coeff(x.terms, alpha, beta) == (c.re, c.im)

    @given(skew_polys())
    @settings(max_examples=80, deadline=None)
    def test_json_roundtrip(self, x):
        assert skew_from_json(skew_to_json(x)) == x

    @given(skew_polys())
    @settings(max_examples=60, deadline=None)
    def test_projections_partition(self, x):
        parts = [x.project(name)
                 for name in ("A0", "A1", "A2", "Aeq", "Aperp")]
        total = SkewPoly.zero()
        for p in parts:
            total = total + p
        assert total == x


class TestSpanInvariants:
    @given(st.lists(skew_polys(), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_dim_bounds_and_membership(self, xs):
        sp = LieSpan(xs)
        assert sp.dim <= len(xs)
        for x in xs:
            assert sp.contains(x)

    @given(st.lists(skew_polys(), min_size=1, max_size=4), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_canonical_key_order_invariant(self, xs, rng):
        shuffled = list(xs)
        rng.shuffle(shuffled)
        assert LieSpan(xs).canonical_key() == LieSpan(shuffled).canonical_key()

    @given(skew_polys(), st.sampled_from([2, -1, Fraction(1, 3)]))
    @settings(max_examples=40, deadline=None)
    def test_scaling_does_not_change_span(self, x, c):
        if not x:
            return
        assert LieSpan([x]).canonical_key() == LieSpan([x.scale(c)]).canonical_key()

    @given(st.lists(skew_polys(), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_insert_idempotent(self, xs):
        sp = LieSpan(xs)
        d = sp.dim
        for x in xs:
            sp.insert(x)
        assert sp.dim == d


class TestFingerprintInvariants:
    def _closed_spans(self):
        basis = schrodinger_monomials()
        rng = random.Random(3)
        spans = []
        for _ in range(12):
            subset = rng.sample(basis, rng.randint(1, 4))
            out = lie_closure(subset)
            if out.outcome == "finite" and out.span.dim:
                spans.append(out.span)
        return spans

    def test_nilpotent_implies_solvable(self):
        for sp in self._closed_spans():
            fp = fingerprint(sp)
            if fp.nilpotent:
                assert fp.solvable

    def test_killing_signature_sums_to_rank(self):
        for sp in self._closed_spans():
            fp = fingerprint(sp)
            npos, nneg, nzero = fp.killing_signature
            assert npos + nneg == fp.killing_rank
            assert npos + nneg + nzero == fp.dim

    def test_derived_series_decreasing(self):
        for sp in self._closed_spans():
            fp = fingerprint(sp)
            dims = fp.derived_dims
            assert all(a >= b for a, b in zip(dims, dims[1:]))
            assert dims[0] == fp.dim


class TestClosureInvariants:
    @given(st.lists(st.sampled_from(list(range(6))), min_size=1, max_size=3,
                    unique=True))
    @settings(max_examples=30, deadline=None)
    def test_schrodinger_subsets_close_finitely(self, idx):
        basis = schrodinger_monomials()
        out = lie_closure([basis[i] for i in idx])
        assert out.outcome == "finite"
        sp = out.span
        for x in sp.basis:
            for y in sp.basis:
                assert sp.contains(bracket(x, y))


# ---------------------------------------------------------------------------
# The integer closure and table against all-pairs loops on Fractions
# ---------------------------------------------------------------------------

def _assert_same_outcome(got, want):
    assert got.outcome == want.outcome
    assert got.budget_report == want.budget_report
    if want.span is None:
        assert got.span is None
        return
    assert [list(x.terms.items()) for x in got.span.basis] == \
        [list(x.terms.items()) for x in want.span.basis]
    assert got.span._echelon.integer_rows == want.span._echelon.integer_rows


def _assert_same_table(span):
    try:
        want = _all_pairs_table(span)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            StructureConstants.from_span(span)
        return
    got = StructureConstants.from_span(span)
    assert got.n == want.n
    assert list(got.table.items()) == list(want.table.items())
    assert got.scale == want.scale
    assert got.integer_table == want.integer_table


_GENERATOR_SETS = _with_scalars(st.one_of(
    st.lists(skew_polys(), min_size=1, max_size=4), quadrature_families()))


class TestIntegerPathMatchesFractions:
    @given(_GENERATOR_SETS, budgets, st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_closure_and_table(self, gens, budget, split):
        # the first `split` generators close first when that closure is
        # finite, and the rest extend it through `within`
        within = _raw_closure(gens[:split], budget)
        _assert_same_outcome(within, _all_pairs_closure(gens[:split], budget))
        if within.outcome == "finite":
            rest = gens[split:]
            got = _raw_closure(rest, budget, within=within.span)
            want = _all_pairs_closure(rest, budget, within=within.span)
        else:
            got, want = _raw_closure(gens, budget), _all_pairs_closure(
                gens, budget)
        _assert_same_outcome(got, want)
        if got.span is not None:
            _assert_same_table(got.span)
        # a span that need not be closed: the same table or the same error
        _assert_same_table(LieSpan(gens))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_chains(self, n):
        gens = _json(f"closure_chain_{n}.json")
        got = _raw_closure(gens, Budget())
        _assert_same_outcome(got, _all_pairs_closure(gens, Budget()))
        _assert_same_table(got.span)
        _assert_same_table(LieSpan(_json(f"classify_chain_{n}.json")))
