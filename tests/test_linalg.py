"""The exact linear algebra behind spans and classification (`Rref`,
characteristic polynomials and rational eigenvalues), checked against sympy
as the reference, and `solve`, the tests' reference for
`LieSpan.coordinates`; `fraction_rows` is the `Fraction` view of an
`Rref`'s integer rows that these references read."""

import math
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from skewweyl.classify import _char_poly, _rational_eigenvalues
from skewweyl.lie_engine import LieSpan, Rref
from skewweyl.weyl_core import MINUS, PLUS, SkewPoly

entries = st.one_of(st.just(Fraction(0)),
                    st.fractions(-3, 3, max_denominator=4))


def fraction_rows(rr):
    """The RREF rows of `rr` as {column: Fraction} by pivot: each primitive
    integer row divided by its pivot entry."""
    return {p: {k: Fraction(c, d) for k, c in nums.items()}
            for p, (d, nums) in rr.integer_rows.items()}


def solve(a, b, n):
    """A solution x of a x = b for a matrix a with n columns (free unknowns
    set to 0), or None if the system is inconsistent."""
    aug = Rref([list(row) + [c] for row, c in zip(a, b)], n + 1)
    if n in aug.integer_rows:
        return None
    x = [Fraction(0)] * n
    for p, row in fraction_rows(aug).items():
        x[p] = row.get(n, Fraction(0))
    return x


def matmul(a, b, inner):
    return [[sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


@st.composite
def matrices(draw, max_rows=4, square=False):
    """rows x cols matrices of rank at most k: a product of rows x k and
    k x cols factors, so rank-deficient and zero matrices are common."""
    rows = draw(st.integers(0 if not square else 1, max_rows))
    cols = rows if square else draw(st.integers(1, 4))
    k = draw(st.integers(0, max(rows, cols)))
    left = [[draw(entries) for _ in range(k)] for _ in range(rows)]
    right = [[draw(entries) for _ in range(cols)] for _ in range(k)]
    if k == 0:
        return [[Fraction(0)] * cols for _ in range(rows)], cols
    return matmul(left, right, k), cols


def to_sympy(a, cols):
    return sympy.Matrix(len(a), cols, [sympy.Rational(x.numerator, x.denominator)
                                       for row in a for x in row])


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def dense(v, cols):
    return [v.get(c, Fraction(0)) for c in range(cols)]


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_and_nullspace_match_sympy(m):
    a, cols = m
    ref = to_sympy(a, cols)
    rr = Rref(a, cols)
    assert rr.rank == ref.rank()
    assert rr.pivots == list(ref.rref()[1])
    reduced = ref.rref()[0]
    rows = fraction_rows(rr)
    assert [dense(rows[p], cols) for p in rr.pivots] == [
        [from_sympy(x) for x in reduced.row(r)] for r in range(rr.rank)]
    assert all(0 not in row.values() for row in rows.values())
    null = [dense(v, cols) for v in rr.nullspace()]
    assert len(null) == len(ref.nullspace()) == cols - rr.rank
    assert null == [[from_sympy(x) for x in v] for v in ref.nullspace()]
    assert all(not any(matmul(a, [[x] for x in v], cols)[i][0]
                       for i in range(len(a))) for v in null)


@given(matrices(max_rows=6), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_rows_independent_of_insertion_order(m, rng):
    # the property LieSpan.canonical_key relies on: a span's reduced rows do
    # not depend on the order its vectors are inserted in
    a, cols = m
    shuffled = list(a)
    rng.shuffle(shuffled)
    assert fraction_rows(Rref(shuffled, cols)) == fraction_rows(Rref(a, cols))


@st.composite
def rational_vectors(draw, cols=5):
    """1 to 7 rational vectors with `cols` entries: up to four drawn
    freely, the rest rational combinations of those, in a drawn order."""
    free = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=1, max_size=4))
    out = list(free)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = [draw(entries) for _ in free]
        out.append([sum((c * row[j] for c, row in zip(coeffs, free)),
                        Fraction(0)) for j in range(cols)])
    return draw(st.permutations(out)), cols


@given(rational_vectors(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_integer_rows_are_primitive_and_unique(m, rng):
    a, cols = m
    rr = Rref(a, cols)
    shuffled = list(a)
    rng.shuffle(shuffled)
    assert Rref(shuffled, cols).integer_rows == rr.integer_rows
    for p, (d, nums) in rr.integer_rows.items():
        # nums/d is the RREF row: 1 at its least column, 0 at other pivots
        assert d > 0 and nums[p] == d and min(nums) == p
        assert all(type(c) is int and c for c in nums.values())
        assert math.gcd(*nums.values()) == 1
        assert not any(q in nums for q in rr.integer_rows if q != p)
    reduced, pivots = to_sympy(a, cols).rref()
    assert rr.pivots == list(pivots)
    rows = fraction_rows(rr)
    assert [dense(rows[p], cols) for p in rr.pivots] == [
        [from_sympy(x) for x in reduced.row(r)] for r in range(rr.rank)]


_KEYS = [(PLUS, (0, 0)), (MINUS, (1, 0)), (PLUS, (1, 0)), (PLUS, (2, 2)),
         (MINUS, (3, 0))]


@given(rational_vectors(cols=len(_KEYS)), st.data())
@settings(max_examples=100, deadline=None)
def test_canonical_key_of_rescaled_permuted_basis(m, data):
    a, _ = m
    span = LieSpan(SkewPoly(dict(zip(_KEYS, row))) for row in a)
    copy = [b.scale(data.draw(entries.filter(bool))) for b in span.basis]
    other = LieSpan(data.draw(st.permutations(copy)))
    assert other.dim == span.dim
    assert other.canonical_key() == span.canonical_key()


@given(matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_matches_sympy(m, data):
    a, cols = m
    if data.draw(st.booleans()):
        b = [data.draw(entries) for _ in a]  # often inconsistent
    else:
        y = [[data.draw(entries)] for _ in range(cols)]
        b = [row[0] for row in matmul(a, y, cols)]  # always consistent
    x = solve(a, b, cols)
    ref = to_sympy(a, cols)
    rhs = to_sympy([[c] for c in b], 1)
    try:
        ref.gauss_jordan_solve(rhs)
        consistent = True
    except ValueError:
        consistent = False
    assert (x is not None) == consistent
    if x is not None:
        assert len(x) == cols
        assert [row[0] for row in matmul(a, [[c] for c in x], cols)] == b


@given(matrices(square=True))
@settings(max_examples=100, deadline=None)
def test_char_poly_matches_sympy(m):
    a, n = m
    want = [from_sympy(c) for c in to_sympy(a, n).charpoly().all_coeffs()]
    assert _char_poly(a) == want


def _reference_eigenvalues(a, n):
    """sympy's eigenvalues with multiplicity if all are rational, else
    None."""
    out = []
    for lam, mult in to_sympy(a, n).eigenvals().items():
        if lam.is_rational is not True:
            return None
        out += [from_sympy(lam)] * mult
    return sorted(out)


@given(matrices(max_rows=3, square=True))
@settings(max_examples=100, deadline=None)
def test_rational_eigenvalues_match_sympy(m):
    a, n = m
    got = _rational_eigenvalues(a)
    assert (sorted(got) if got is not None else None) \
        == _reference_eigenvalues(a, n)


@given(st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_rational_eigenvalues_of_conjugated_triangular(n, data):
    """P T P^-1 with T triangular: every eigenvalue is rational, repeated
    ones included."""
    t = [[data.draw(entries) if j >= i else Fraction(0) for j in range(n)]
         for i in range(n)]
    p = [[Fraction(1) if i == j else
          (data.draw(st.integers(-2, 2)) if j < i else Fraction(0))
          for j in range(n)] for i in range(n)]
    p_inv = [[from_sympy(x) for x in row]
             for row in to_sympy(p, n).inv().tolist()]
    a = matmul(matmul(p, t, n), p_inv, n)
    got = _rational_eigenvalues(a)
    assert got is not None
    assert sorted(got) == sorted(t[i][i] for i in range(n))
    assert sorted(got) == _reference_eigenvalues(a, n)


def test_irrational_eigenvalues_give_none():
    assert _rational_eigenvalues([[Fraction(0), Fraction(2)],
                                  [Fraction(1), Fraction(0)]]) is None
    assert _rational_eigenvalues([[Fraction(0), Fraction(-1)],
                                  [Fraction(1), Fraction(0)]]) is None
