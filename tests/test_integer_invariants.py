"""The classification invariants on the integer-scaled table against the
`Fraction` computation they replace.

`StructureConstants` computes its series, centre, Killing rank and
signature and the r(j1..jn) weights on its table times the lcm of the
table's denominators.  The reference below is the same algorithm on the
`Fraction` table itself: RREF rows in `Fraction`s (`test_linalg.fraction_rows`
of an `Rref` built by its dense constructor from `Fraction` rows), a
congruence reduction that divides by the pivot, and sympy's test that the
generator of an r(j1..jn) acts diagonalisably."""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewweyl.classify import (
    Fingerprint,
    StructureConstants,
    _diagonal_weights,
    _fingerprint_from_sc,
    _identify_table,
    _killing_from_sc,
    _rational_eigenvalues,
    _sylvester_signature,
)
from skewweyl.lie_engine import Budget, LieSpan, Rref, _raw_closure
from skewweyl.weyl_core import SkewPoly
from test_classify import (BIANCHI_IV, BIANCHI_V, DIAGONAL_4, JORDAN_4,
                           _table_cases, gm, gp, skew_power, span_of)
from test_commuting import _LOW_KEYS, _json, _with_scalars, skew_polys
from test_linalg import dense, fraction_rows


# ---------------------------------------------------------------------------
# Reference: the invariants in Fraction arithmetic
# ---------------------------------------------------------------------------

def ref_bracket_vec(sc, u, v):
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, x in sc.table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + a * b * x
    return {k: x for k, x in out.items() if x}


def ref_subspace_product(sc, A, B):
    pairs = itertools.combinations(A, 2) if A == B else itertools.product(A, B)
    out = Rref([dense(ref_bracket_vec(sc, u, v), sc.n) for u, v in pairs],
               sc.n)
    rows = fraction_rows(out)
    return [rows[p] for p in out.pivots]


def ref_series(sc, step):
    full = [{i: Fraction(1)} for i in range(sc.n)]
    out, nxt = [full], ref_subspace_product(sc, full, full)
    while len(nxt) < len(out[-1]):
        out.append(nxt)
        if nxt:
            nxt = step(full, nxt)
    return out


def ref_center(sc):
    rows = {}
    for (i, j), v in sc.table.items():
        for k, c in v.items():
            rows.setdefault((i, k), {})[j] = c
    return Rref([dense(rows[key], sc.n) for key in sorted(rows)],
                sc.n).nullspace()


def ref_sylvester_signature(G):
    G = [list(row) for row in G]
    n_plus = n_minus = n_zero = 0
    idx = list(range(len(G)))
    while idx:
        pivot = next((i for i in idx if G[i][i] != 0), None)
        if pivot is None:
            pair = next(((i, j) for i in idx for j in idx
                         if i < j and G[i][j] != 0), None)
            if pair is None:
                n_zero += len(idx)
                break
            i, j = pair
            G[i] = [x + y for x, y in zip(G[i], G[j])]
            for row in G:
                row[i] += row[j]
            pivot = i
        d = G[pivot][pivot]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        for i in idx:
            if i == pivot or G[i][pivot] == 0:
                continue
            f = G[i][pivot] / d
            G[i] = [x - f * y for x, y in zip(G[i], G[pivot])]
            for row in G:
                row[i] -= f * row[pivot]
        idx.remove(pivot)
    return (n_plus, n_minus, n_zero)


def ref_killing(sc):
    ads = [{} for _ in range(sc.n)]
    for (i, l), v in sc.table.items():
        for k, c in v.items():
            ads[i][k, l] = c
    G = [[sum((c * Q[l, k] for (k, l), c in P.items() if (l, k) in Q),
              Fraction(0)) for Q in ads] for P in ads]
    return G, ref_sylvester_signature(G)


def ref_fingerprint(sc):
    der = ref_series(sc, lambda full, s: ref_subspace_product(sc, s, s))
    lcs = ref_series(sc, lambda full, s: ref_subspace_product(sc, full, s))
    der_dims = tuple(len(s) for s in der)
    lcs_dims = tuple(len(s) for s in lcs)
    _, signature = ref_killing(sc)
    return Fingerprint(
        dim=sc.n, derived_dims=der_dims, lcs_dims=lcs_dims,
        center_dim=len(ref_center(sc)), solvable=der_dims[-1] == 0,
        nilpotent=lcs_dims[-1] == 0,
        killing_rank=signature[0] + signature[1],
        killing_signature=signature)


def ref_diagonal_weights(sc):
    full = [{i: Fraction(1)} for i in range(sc.n)]
    der = ref_subspace_product(sc, full, full)
    pivots = [min(row) for row in der]
    outside = {next(i for i in range(sc.n) if i not in pivots): Fraction(1)}
    images = [ref_bracket_vec(sc, outside, v) for v in der]
    A = [[w.get(p, Fraction(0)) for w in images] for p in pivots]
    weights = _rational_eigenvalues(A)
    if weights is None or not any(weights):
        return None
    if not sympy.Matrix(A).is_diagonalizable():
        return None
    scale = max(abs(w) for w in weights)
    return max(tuple(sorted((sign * w / scale for w in weights), reverse=True))
               for sign in (1, -1))


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

def _diagonal_spans():
    """Spans of the r(j1..jn) family, whose weights are read."""
    x = gp(1, 0)
    return [span_of(gm(2, 0), x, skew_power(x, 2), skew_power(x, 3)),
            LieSpan(_json("classify_diagonal.json"))]


def _diagonal_cases():
    """The r(j1..jn) spans, and tables of the same fingerprints whose
    generator acts by a Jordan block or diagonally."""
    return [pytest.param(StructureConstants.from_span(s), id=f"diagonal_{k}")
            for k, s in enumerate(_diagonal_spans())] + [
        pytest.param(sc, id=name) for name, sc in (
            ("bianchi_IV", BIANCHI_IV), ("bianchi_V", BIANCHI_V),
            ("jordan_4", JORDAN_4), ("diagonal_4", DIAGONAL_4))]


CASES = _table_cases() + _diagonal_cases()


def _check_against_reference(sc):
    fp = _fingerprint_from_sc(sc)
    assert fp == ref_fingerprint(sc)
    gram, rank, signature = _killing_from_sc(sc)
    want_gram, want_signature = ref_killing(sc)
    assert gram == want_gram
    assert (rank, signature) == (fp.killing_rank, want_signature)
    if fp.derived_dims == (sc.n, sc.n - 1, 0):
        assert _diagonal_weights(sc, sc.derived) == ref_diagonal_weights(sc)
    return fp


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 6))
    upper = {(i, j): draw(st.integers(-3, 3))
             for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


def _rescaled(sc, c):
    return StructureConstants(sc.n, {(i, j): {k: c * x for k, x in v.items()}
                                     for (i, j), v in sc.table.items()
                                     if i < j})


class TestAgainstFractionReference:
    @pytest.mark.parametrize("sc", CASES)
    def test_table_cases(self, sc):
        _check_against_reference(sc)

    @given(st.sampled_from([p.values[0] for p in CASES]),
           st.fractions(min_value=-7, max_value=7,
                        max_denominator=12).filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_rescaled_table_keeps_fingerprint_and_entry(self, sc, c):
        scaled = _rescaled(sc, c)
        fp = _check_against_reference(scaled)
        assert fp == _fingerprint_from_sc(sc)
        assert _identify_table(scaled) == _identify_table(sc)

    @given(_with_scalars(st.lists(st.one_of(skew_polys(_LOW_KEYS),
                                            skew_polys()),
                                  min_size=2, max_size=2)))
    @settings(max_examples=60, deadline=None)
    def test_random_pair_closures(self, gens):
        out = _raw_closure(gens, Budget(16, 8))
        if out.outcome == "finite":
            _check_against_reference(StructureConstants.from_span(out.span))

    @given(st.sampled_from(_diagonal_spans()), st.data())
    @settings(max_examples=40, deadline=None)
    def test_diagonal_tables_in_a_rational_basis(self, span, data):
        # in a mixed basis the derived algebra's integer rows have pivot
        # entries other than 1
        n = span.dim
        mix = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                          max_size=n), min_size=n, max_size=n))
        mixed = LieSpan(sum((b.scale(c) for b, c in zip(span.basis, row)),
                            SkewPoly.zero()) for row in mix)
        assume(mixed.dim == n)
        sc, sc0 = (StructureConstants.from_span(mixed),
                   StructureConstants.from_span(span))
        _check_against_reference(sc)
        entry = _identify_table(sc)
        assert entry.name == "r(j1..jn)"
        assert entry == _identify_table(sc0)

    @given(symmetric_matrices())
    @settings(max_examples=200, deadline=None)
    def test_signature_of_integer_matrices(self, G):
        want = ref_sylvester_signature([[Fraction(x) for x in row]
                                        for row in G])
        assert _sylvester_signature(G) == want
