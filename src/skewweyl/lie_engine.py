"""Lie brackets, exact Lie closures, and finiteness decision procedures.

The closure routine follows the level structure V_0 = span(G),
V_{k+1} = V_k + [V_k, V_k], with exact echelon bookkeeping over the
skew-hermitian monomial basis.  Before falling back to a budgeted closure,
`lie_closure` runs a fixed sequence of decision rules (exact decisions for
monomial generator sets and generator sets containing a harmonic drift term
i(w a†a + c), then sufficient infiniteness criteria with machine-checkable
witnesses).
"""

from __future__ import annotations

import itertools
import math
import threading
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .weyl_core import (
    MINUS,
    NEG_INF,
    PLUS,
    MultiIndex,
    SkewPoly,
    _monomial_bracket,
    _normal_coeff,
    monomial_key_order,
    skew_from_json,
    skew_to_json,
    subspace_of,
)

MonKey = Tuple[int, MultiIndex]


def _integer_terms(v: Dict) -> Tuple[int, Dict]:
    """(l, l·v as ints) for l the lcm of the denominators of v's entries
    (ints or Fractions)."""
    l = math.lcm(*(c.denominator for c in v.values()))
    return l, {k: c.numerator * (l // c.denominator) for k, c in v.items()}


class _Index(dict):
    """Monomial key -> small int index, a new key getting the next index
    and an empty row of `_PAIRS` on first lookup.  A new index is taken
    under a lock and published after its row exists, so callers in several
    threads never share one index between two keys."""

    def __missing__(self, key: MonKey) -> int:
        with _INTERNING:
            if key not in self:
                _PAIRS.append({})
                _KEYS.append(key)
                self[key] = len(_KEYS) - 1
            return self[key]


_INTERNING = threading.Lock()
_KEYS: List[MonKey] = []
_INDEX = _Index()
#: the memo of monomial-pair brackets: _PAIRS[i][j] holds the
#: (index, integer coefficient) pairs of [_KEYS[i], _KEYS[j]]
_PAIRS: List[Dict[int, Tuple[Tuple[int, int], ...]]] = []


def _bracket_ints(xs: Dict[MonKey, int], ys: Dict[MonKey, int]
                  ) -> Dict[MonKey, int]:
    """[x, y] for integer term maps x and y, as an integer term map
    without zeros.

    The bracket is bilinear and two skew monomials have integer bracket
    coefficients, so the sum stays in Python ints.  Keys are looked up once
    per term as small int indices, and the pair table and the accumulator
    hash only those; only valid skew keys come out.
    """
    js = [(_INDEX[k], b) for k, b in ys.items()]
    acc: Dict[int, int] = {}
    for k1, a in xs.items():
        i = _INDEX[k1]
        row = _PAIRS[i]
        for j, b in js:
            entry = row.get(j)
            if entry is None:
                # fill the pair and its mirror [k_j, k_i] = -[k_i, k_j],
                # which lists the same keys in the same (sorted) order
                entry = row[j] = tuple(
                    (_INDEX[k], n)
                    for k, n in _monomial_bracket(_KEYS[i], _KEYS[j]))
                _PAIRS[j][i] = tuple((k, -n) for k, n in entry)
            ab = a * b
            for k, n in entry:
                acc[k] = acc.get(k, 0) + ab * n
    return {_KEYS[k]: v for k, v in acc.items() if v}


def bracket(x: SkewPoly, y: SkewPoly) -> SkewPoly:
    """Exact commutator [x, y]; skew-hermitian inputs give a skew result.

    x and y are scaled to integer vectors lx·x and ly·y, bracketed by
    `_bracket_ints`, and the sum is divided once by lx·ly.
    """
    lx, xs = _integer_terms(x.terms)
    ly, ys = _integer_terms(y.terms)
    d = lx * ly
    return SkewPoly._from_terms({k: Fraction(v, d)
                                 for k, v in _bracket_ints(xs, ys).items()})


# ---------------------------------------------------------------------------
# Exact rational linear algebra
# ---------------------------------------------------------------------------

class Rref:
    """Sparse reduced row echelon form over the rationals, built by
    `insert` with fraction-free integer elimination.

    `integer_rows` maps each pivot column to (d, nums): nums is a
    primitive integer vector {column: int} whose pivot entry d is positive,
    so nums/d is the RREF row, 1 at the pivot and 0 at every other pivot.
    A row's pivot is its least column under `order` (the column index if
    None), so the rows are the unique RREF, and their primitive integer
    forms unique, whatever order rows arrive in.  `reduce` and `insert`
    take integer rows; `Rref(rows, ncols)` reduces a dense matrix with
    `ncols` columns of ints or Fractions, each row scaled to integers once."""

    def __init__(self, rows: Iterable[Sequence] = (), ncols: int = 0,
                 order=None):
        self.ncols = ncols
        self.order = order
        self.integer_rows: Dict = {}
        for row in rows:
            self.insert(_integer_terms({c: x for c, x in enumerate(row)
                                        if x})[1])

    @property
    def pivots(self) -> List:
        return sorted(self.integer_rows, key=self.order)

    @property
    def rank(self) -> int:
        return len(self.integer_rows)

    def reduce(self, row: Dict) -> Dict:
        """A positive integer multiple of the integer row `row` minus its
        part in the row space, {} exactly when the row lies in it; `row`
        is left as it is.

        The row is scaled by the lcm m of the pivot entries d of the rows
        it meets, so subtracting (entry at the pivot)·(m/d) times each such
        row stays in the integers.  The rows are fully reduced: each
        vanishes at every other pivot, so one pass over the pivots present
        in the row clears them all.
        """
        rows = self.integer_rows
        hits = [(c, rows[k]) for k, c in row.items() if k in rows]
        if not hits:
            return {k: c for k, c in row.items() if c}
        m = math.lcm(*(d for _, (d, _) in hits))
        row = {k: c * m for k, c in row.items()} if m != 1 else dict(row)
        for c, (d, nums) in hits:
            f = c * (m // d)
            for k2, c2 in nums.items():
                row[k2] = row.get(k2, 0) - f * c2
        return {k: c for k, c in row.items() if c}

    def insert(self, row: Dict) -> bool:
        """Add the integer row `row`; returns True if the rank grew."""
        residual = self.reduce(row)
        if not residual:
            return False
        self._add(residual)
        return True

    def _add(self, residual: Dict) -> None:
        """Add a nonzero row that `reduce` returned and that no row has
        been added since."""
        pivot = min(residual, key=self.order)
        new_row = _primitive(residual, residual[pivot] < 0)
        d = new_row[pivot]
        # keep all rows fully reduced against each other: d·row - f·new_row
        # vanishes at the new pivot and keeps a positive pivot entry
        for p, (_, row) in self.integer_rows.items():
            f = row.get(pivot)
            if f:
                row = {k: c * d for k, c in row.items()}
                for k2, c2 in new_row.items():
                    row[k2] = row.get(k2, 0) - f * c2
                row = _primitive({k: c for k, c in row.items() if c})
                self.integer_rows[p] = (row[p], row)
        self.integer_rows[pivot] = (d, new_row)

    def nullspace(self) -> List[Dict[int, Fraction]]:
        """Kernel basis: a sparse vector per free column, 1 at that column."""
        out = []
        for f in range(self.ncols):
            if f in self.integer_rows:
                continue
            v = {f: Fraction(1)}
            for p, (d, nums) in self.integer_rows.items():
                if f in nums:
                    v[p] = Fraction(-nums[f], d)
            out.append(v)
        return out


def _primitive(v: Dict, negate: bool = False) -> Dict:
    """v divided by the gcd of its entries, negated as well if `negate`."""
    g = math.gcd(*v.values())
    if negate:
        g = -g
    if g == 1:
        return v
    return {k: c // g for k, c in v.items()}


# ---------------------------------------------------------------------------
# Exact spans with echelonized coordinates
# ---------------------------------------------------------------------------

#: a root not yet computed
_UNSET = object()


class LieSpan:
    """Ordered basis of a subspace of the skew-hermitian algebra with exact
    row-reduced coordinates over the monomial basis.

    Per basis element it also keeps what `bracket_pair` needs: the integer
    form (l, l·b, degree), l the lcm of b's denominators, the indices b is
    known to commute with, and b's linear root.

    Grows only through `_insert_ints`, which `insert` calls, and the links
    that `bracket_pair` records; used as an immutable value once built.
    """

    def __init__(self, vectors: Iterable[SkewPoly] = ()):
        self.basis: List[SkewPoly] = []
        self._echelon = Rref(order=monomial_key_order)
        # (pivot keys, per basis index j the pair (d_j, N_j) with row j of
        # the inverse pivot-entry matrix N_j/d_j); built by
        # `_coordinates_ints`, dropped by `_insert_ints`
        self._inverse: Optional[Tuple[List[MonKey],
                                      List[Tuple[int, List[int]]]]] = None
        #: per index: (l, l·b as an integer term map, degree)
        self._forms: List[Tuple[int, Dict[MonKey, int], object]] = []
        #: per index: the non-scalar indices b is known to commute with,
        #: itself included, or None for a scalar
        self._links: List[Optional[set]] = []
        #: per index: the linear root, None, or _UNSET
        self._roots: List = []
        for v in vectors:
            self.insert(v)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: SkewPoly) -> bool:
        return not self._echelon.reduce(_integer_terms(v.terms)[1])

    def insert(self, v: SkewPoly) -> bool:
        """Add v to the span; returns True if the dimension grew."""
        l, xs = _integer_terms(v.terms)
        return self._insert_ints(xs, l, v)

    def _insert_ints(self, v: Dict, d: int,
                     element: Optional[SkewPoly] = None) -> bool:
        """Add v/d, for an integer row v and d > 0; returns True if the
        dimension grew.  The basis keeps `element`, v/d as the caller holds
        it, or else v/d built in `Fraction`s, only if the span grows.

        A scalar (a multiple of i, or 0) commutes with everything, so it
        links nothing; non-scalar skew elements are those of degree >= 1."""
        residual = self._echelon.reduce(v)
        if not residual:
            return False
        if element is None:
            e = math.gcd(d, *v.values())
            if e != 1:
                d, v = d // e, {k: c // e for k, c in v.items()}
            element = SkewPoly._from_terms(
                {k: Fraction(c, d) for k, c in v.items()})
        self._echelon._add(residual)
        self.basis.append(element)
        self._inverse = None
        degree = max((a + b for _, (a, b) in v), default=NEG_INF)
        self._forms.append((d, v, degree))
        self._links.append({len(self._links)} if degree > 0 else None)
        self._roots.append(_UNSET if degree >= 3 else None)
        return True

    def copy(self) -> "LieSpan":
        """A span equal to this one, with its links, that grows apart from
        it.  Each link set is copied, as `bracket_pair` adds to it; the
        forms and the echelon rows are shared, as nothing writes to them."""
        out = LieSpan()
        out.basis = list(self.basis)
        out._echelon.integer_rows = dict(self._echelon.integer_rows)
        out._forms = list(self._forms)
        out._links = [None if s is None else set(s) for s in self._links]
        out._roots = list(self._roots)
        return out

    def bracket_pair(self, i: int, j: int) -> Optional[Tuple[int, Dict]]:
        """(l_i·l_j, l_i·l_j·[b_i, b_j] as an integer term map), or None
        if [b_i, b_j] is 0, without a bracket if that is already known.

        For every element w of the Weyl algebra that is not a scalar, the
        centralizer C(w) is commutative (Amitsur, Pacific J. Math. 8, 1958;
        Dixmier, Bull. SMF 96, 1968): two elements that both commute with
        the same non-scalar w commute with each other.  w is a basis
        element both are linked to, or a linear root both share (see
        `_root_of`), formed once per element and only when a pair of two
        elements of degree >= 3 is left open by the links.  A pair proven
        zero by a shared root, or whose bracket comes out 0, is linked.
        """
        a, b = self._links[i], self._links[j]
        if a is None or b is None or not a.isdisjoint(b):
            return None
        if not self._share_root(i, j):
            (li, xi, _), (lj, xj, _) = self._forms[i], self._forms[j]
            z = _bracket_ints(xi, xj)
            if z:
                return li * lj, z
        a.add(j)
        b.add(i)
        return None

    def _share_root(self, i: int, j: int) -> bool:
        roots = self._roots
        if roots[i] is None or roots[j] is None:
            return False
        for k in (i, j):
            if roots[k] is _UNSET:
                _, xs, degree = self._forms[k]
                roots[k] = _root_of(xs, degree)
            if roots[k] is None:
                return False
        return roots[i] == roots[j]

    def coordinates(self, v: SkewPoly) -> Optional[List[Fraction]]:
        """Exact coordinates of v in `self.basis`, or None if v is outside."""
        l, ints = _integer_terms(v.terms)
        coords = self._coordinates_ints(ints, l)
        if coords is None:
            return None
        return [coords.get(j, Fraction(0)) for j in range(self.dim)]

    def _coordinates_ints(self, v: Dict, l: int
                          ) -> Optional[Dict[int, Fraction]]:
        """The nonzero coordinates {j: c_j} of v/l, for an integer row v
        and l > 0, or None if v/l is outside the span.

        The rows are fully reduced, so an element of the span is fixed by
        its coefficients at the pivots, and its coordinates are the inverse
        of the basis vectors' pivot-entry matrix applied to those.  The
        inverse is built by one `Rref` on first use, kept as integer rows
        over a positive denominator each and dropped by `_insert_ints`, so
        each further call is one integer matrix-vector product and one
        division per nonzero coordinate.
        """
        if self._echelon.reduce(v):
            return None
        n = self.dim
        if self._inverse is None:
            pivots = list(self._echelon.integer_rows)
            # [M | I] reduces to [I | M^-1]
            inv = Rref([[b.terms.get(p, 0) for b in self.basis]
                        + [int(r == c) for c in range(n)]
                        for r, p in enumerate(pivots)], 2 * n).integer_rows
            self._inverse = (pivots, [
                (d, [nums.get(n + r, 0) for r in range(n)])
                for _, (d, nums) in sorted(inv.items())])
        pivots, inverse = self._inverse
        at = [(r, v[p]) for r, p in enumerate(pivots) if p in v]
        out = {}
        for j, (d, row) in enumerate(inverse):
            c = sum(x * row[r] for r, x in at)
            if c:
                out[j] = Fraction(c, l * d)
        return out

    def canonical_key(self) -> Tuple:
        """Hashable canonical form (the primitive integer RREF rows)
        identifying the subspace."""
        rows = self._echelon.integer_rows
        return tuple((rows[p][0],
                      tuple(sorted(rows[p][1].items(),
                                   key=lambda kv: monomial_key_order(kv[0]))))
                     for p in self._echelon.pivots)

    def __eq__(self, other) -> bool:
        return isinstance(other, LieSpan) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"LieSpan(dim={self.dim})"


def span_is_bracket_closed(span: LieSpan) -> bool:
    for i, x in enumerate(span.basis):
        for y in span.basis[i + 1:]:
            if not span.contains(bracket(x, y)):
                return False
    return True


def _leading_parts(terms: Dict, d: int) -> Tuple:
    """(Re a0, Im a0, Re a1, Im a1), exact, for a0 and a1 the coefficients
    of a^d and a† a^(d-1) in the element of degree d with skew terms
    `terms`; for d >= 3 these are the coefficients of g−^(d,0), g+^(d,0),
    g−^(d−1,1) and g+^(d−1,1)."""
    return (*_normal_coeff(terms, 0, d), *_normal_coeff(terms, 1, d - 1))


class IgusaCertificate(NamedTuple):
    verdict: str  # always "infinite"
    params: Optional[tuple]  # an igusa.SymplecticParams; None: identity
    a0b0: complex
    delta: complex

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "sigma": self.params.to_json() if self.params else "identity",
                "a0b0": [self.a0b0.real, self.a0b0.imag],
                "delta": [self.delta.real, self.delta.imag]}


def identity_certificate(x: SkewPoly, y: SkewPoly
                         ) -> Optional[IgusaCertificate]:
    """The exact identity-frame test for x and y of degree d1, d2 > 2:
    their certificate if a0·b0 and delta = d2·a1·b0 - d1·a0·b1 are nonzero,
    else None, for (a0, a1) and (b0, b1) the `_leading_parts` of x and y.
    Both are formed in integers from l1·x and l2·y and divided once by l1·l2
    (int / int rounds like float(Fraction)); past the float range, or so
    far below it that a nonzero value rounds to 0, they raise
    OverflowError."""
    (l1, xs), (l2, ys) = _integer_terms(x.terms), _integer_terms(y.terms)
    d1, d2 = x.degree, y.degree
    a0r, a0i, a1r, a1i = _leading_parts(xs, d1)
    b0r, b0i, b1r, b1i = _leading_parts(ys, d2)
    prod = a0r * b0r - a0i * b0i, a0r * b0i + a0i * b0r
    dlt = (d2 * (a1r * b0r - a1i * b0i) - d1 * (a0r * b1r - a0i * b1i),
           d2 * (a1r * b0i + a1i * b0r) - d1 * (a0r * b1i + a0i * b1r))
    if not (any(prod) and any(dlt)):
        return None
    n = l1 * l2
    try:
        values = [complex(re / n, im / n) for re, im in (prod, dlt)]
        if 0j in values:  # a nonzero value below the float range
            raise OverflowError
    except OverflowError:
        raise OverflowError("the identity-frame certificate's a0·b0 or "
                            "delta lies outside the float range") from None
    return IgusaCertificate("infinite", None, *values)


def _linear_root(xs: Dict[MonKey, int], d: int) -> Optional[Tuple[int, int]]:
    """The one linear w = r·g+^(1,0) + s·g−^(1,0), up to a real factor,
    whose centralizer can hold an element of degree d >= 3 with integer
    term map xs, as a primitive (r, s) with r > 0, or r = 0 and s > 0;
    None if its top part is not a power of a linear form.

    The skew elements commuting with w ∝ i(cos θ (a + a†) − i sin θ
    (a − a†)) = i q_θ are i P(q_θ) for real P, whose top part λ i q_θ^d has
    a^d coefficient A = m0 + i p0 = iλ ζ̄^d and a†a^(d−1) coefficient
    B = m1 + i p1 = iλ d ζ ζ̄^(d−1), ζ = e^(iθ), with (m0, p0, m1, p1)
    the `_leading_parts` of xs.  So B·Ā = D ζ², D = d·|A|², and
    D(1 + ζ²) = 2D cos θ·ζ points along ±ζ (ζ = ±i if it is 0).  The
    candidate is only that: `_root_of` keeps it once the exact bracket
    [w, x] comes out 0."""
    m0, p0, m1, p1 = _leading_parts(xs, d)
    if not (m0 or p0):
        return None
    r = d * (m0 * m0 + p0 * p0) + m0 * m1 + p0 * p1
    s = p1 * m0 - m1 * p0
    if not (r or s):
        return 0, 1
    g = math.gcd(r, s)
    if r < 0 or (not r and s < 0):
        g = -g
    return r // g, s // g


def _root_of(xs: Dict[MonKey, int], d,
             candidate: Optional[Tuple[int, int]] = None
             ) -> Optional[Tuple[int, int]]:
    """The linear root of the element of degree d with integer term map xs:
    its `_linear_root` w = r·g+^(1,0) + s·g−^(1,0), kept only if [w, x] is
    exactly 0 (2·|x| monomial-pair lookups); None if it has none.  With a
    `candidate`, only whether x has that root, without a bracket unless
    x's own candidate is the same."""
    if d < 3:
        return None
    root = _linear_root(xs, d)
    if root is None or (candidate is not None and root != candidate):
        return None
    r, s = root
    w = {k: c for k, c in (((PLUS, (1, 0)), r), ((MINUS, (1, 0)), s)) if c}
    return None if _bracket_ints(w, xs) else root


# ---------------------------------------------------------------------------
# Closure outcomes
# ---------------------------------------------------------------------------

class Budget(NamedTuple("_Budget", [("max_dim", int), ("max_degree", int)])):
    __slots__ = ()

    def __new__(cls, max_dim: int = 64, max_degree: int = 24):
        if max_dim <= 0 or max_degree <= 0:
            raise ValueError("budget must be positive")
        return super().__new__(cls, max_dim, max_degree)


class InfinitenessWitness(NamedTuple):
    rule: str  # PerpWithFreeHam | MixedEqAndQuad | MonomialGlossaryViolation
    #          | IgusaCertificate | ChainDegreeGrowth
    evidence: dict


class ClosureOutcome(NamedTuple):
    outcome: str  # "finite" | "infinite" | "inconclusive"
    span: Optional[LieSpan] = None
    witness: Optional[InfinitenessWitness] = None
    budget_report: Optional[dict] = None

    @property
    def dim(self) -> Optional[int]:
        return self.span.dim if self.span is not None else None

    def to_json(self) -> dict:
        out: dict = {"outcome": self.outcome}
        if self.span is not None:
            out["dim"] = self.span.dim
            out["basis"] = [skew_to_json(b) for b in self.span.basis]
        if self.witness is not None:
            out["rule"] = self.witness.rule
            out["witness"] = self.witness.evidence
        if self.budget_report is not None:
            out["budget"] = self.budget_report
        return out


# ---------------------------------------------------------------------------
# Decision helpers
# ---------------------------------------------------------------------------

def _support(keys: Iterable[MonKey]) -> frozenset:
    """The basis subspaces (A0, A1, A2, Aeq, Aperp) that the skew monomials
    `keys` lie in: the support of an element is that of its keys, since a
    `SkewPoly` stores no zero coefficient."""
    return frozenset(subspace_of(*k) for k in keys)


#: the degree-<=2 subalgebra, span(i, i a†a, g±(1,0), g±(2,0))
_LOW = frozenset(("A0", "A1", "A2"))
#: the commuting diagonal monomials i, i a†a and g+(k,k), k >= 2
_DIAGONAL = frozenset(("A0", "Aeq"))
#: the linear and quadratic monomials g±(1,0), g±(2,0)
_QUAD = frozenset(("A1", "A2"))


def _first(gens: Sequence[SkewPoly], supports: Sequence[frozenset], test
           ) -> Optional[SkewPoly]:
    """The first generator whose entry of `supports` passes `test`, or
    None."""
    return next((g for g, s in zip(gens, supports) if test(s)), None)


def _infinite(rule: str, **evidence) -> ClosureOutcome:
    return ClosureOutcome("infinite",
                          witness=InfinitenessWitness(rule, evidence))


def _is_drift(g: SkewPoly) -> bool:
    """Whether g = i(w a†a + c) exactly with w != 0."""
    return (PLUS, (1, 1)) in g.terms and _support(g.terms) == {"A0"}


def _raw_closure(gens: Sequence[SkewPoly], budget: Budget,
                 within: Optional[LieSpan] = None) -> ClosureOutcome:
    """Budgeted level-structure closure with exact echelon bookkeeping.

    Each unordered pair is bracketed once, except pairs `bracket_pair` proves
    commute: a scalar with anything, or two elements that commute with the
    same non-scalar one, in the basis or a shared linear root (by Amitsur's
    theorem its centralizer is commutative).  Zero brackets are never
    inserted, so skipping them leaves the basis and its order as they are.
    The dimension budget is checked after every insert, so an
    `inconclusive` report stops at max_dim + 1; the degree budget is
    checked before every insert, generators included.

    A closed `within` from a closure under the same budget is extended as
    the closure of `within.basis + gens` would be, in the same order and
    with the same report, but without its pairs inside `within`, on a
    `copy` that starts from the links `within` has found.

    Brackets and reductions run on each basis element's integer form
    (l, l·b), l the lcm of its denominators, which the span keeps: a
    bracket becomes a `SkewPoly` only if it enlarges the span.
    """
    span = LieSpan() if within is None else within.copy()
    lo = span.dim

    def over_budget(degree=None) -> ClosureOutcome:
        if degree is None:
            # past the dimension budget: the highest degree in the span
            degree = max(deg for _, _, deg in span._forms)
        return ClosureOutcome(
            "inconclusive",
            budget_report={"max_dim": budget.max_dim,
                           "max_degree": budget.max_degree,
                           "dim_reached": span.dim,
                           "degree_reached": degree},
        )

    for g in gens:
        if g.degree > budget.max_degree:
            return over_budget(g.degree)
        if span.insert(g) and span.dim > budget.max_dim:
            return over_budget()
    start = 0
    while start < span.dim:
        # basis[start:end] is the frontier, the elements of the last level
        end = span.dim
        for i in range(start, end):
            # [b_i, b_i] = 0, [b_i, b_j] = -[b_j, b_i] for an earlier
            # frontier j, and [b_i, b_j] lies in `within` for i, j < lo
            for j in itertools.chain(range(start), range(max(i + 1, lo), end)):
                pair = span.bracket_pair(i, j)
                if pair is None:
                    continue
                l, z = pair
                degree = max(a + b for _, (a, b) in z)
                if degree > budget.max_degree:
                    return over_budget(degree)
                if span._insert_ints(z, l) and span.dim > budget.max_dim:
                    return over_budget()
        start = end
    return ClosureOutcome("finite", span=span)


#: consecutive strict degree increases that make a ChainDegreeGrowth witness
CHAIN_GROWTH = 3


def chain_witness(seed: SkewPoly, aux: SkewPoly, steps: int = 8,
                  max_degree: float = math.inf) -> Optional[InfinitenessWitness]:
    """Run the commutator chain u <- [u, aux] and look for sustained strict
    degree growth.

    Returns a witness carrying the chain prefix once CHAIN_GROWTH
    consecutive strict degree increases are seen, else None; also None at
    the first chain element of degree above `max_degree`.
    """
    if steps < 2:
        raise ValueError("need at least two chain steps")
    if aux.degree <= 2:
        # deg [u, aux] <= deg u + deg aux - 2: no step can raise the degree
        return None
    # [u, aux] = 0 when u shares the linear root of aux (see
    # `LieSpan.bracket_pair`)
    root = _root_of(_integer_terms(aux.terms)[1], aux.degree)
    u = seed
    if u.degree > max_degree:
        return None
    degrees = [u.degree]
    chain = [u]
    growth = 0
    for _ in range(steps):
        if root is not None and _root_of(_integer_terms(u.terms)[1],
                                         u.degree, root):
            return None
        u = bracket(u, aux)
        if not u or u.degree > max_degree:
            return None
        chain.append(u)
        degrees.append(u.degree)
        if degrees[-1] > degrees[-2]:
            growth += 1
            if growth >= CHAIN_GROWTH:
                return InfinitenessWitness(
                    rule="ChainDegreeGrowth",
                    evidence={
                        "degrees": degrees,
                        "chain": [skew_to_json(c) for c in chain],
                        "aux": [skew_to_json(aux)],
                    },
                )
        else:
            growth = 0
    return None


def verify_chain_witness(w: InfinitenessWitness) -> bool:
    """Re-check a ChainDegreeGrowth witness exactly from its payload, as
    `chain_witness` writes it: one auxiliary element, each chain element
    the bracket of the one before with it.  Any other payload is False."""
    if w.rule != "ChainDegreeGrowth":
        return False
    try:
        (aux,) = [skew_from_json(o) for o in w.evidence["aux"]]
        chain = [skew_from_json(o) for o in w.evidence["chain"]]
        recorded = w.evidence["degrees"]
    except (KeyError, TypeError, ValueError):
        return False
    if any(bracket(u, aux) != v for u, v in zip(chain, chain[1:])):
        return False
    degs = [c.degree for c in chain]
    if degs != recorded:
        return False
    # sustained growth at the end of the recorded prefix
    return len(degs) > CHAIN_GROWTH and all(
        degs[i + 1] > degs[i]
        for i in range(len(degs) - 1 - CHAIN_GROWTH, len(degs) - 1))


def decide_monomial_set(gens: Sequence[SkewPoly],
                        budget: Budget = Budget()) -> ClosureOutcome:
    """Exact finite/infinite decision for generator sets of single monomials.

    Finiteness holds exactly when the distinct monomials are (a) all central
    or Kerr-type (abelian case), or (b) all among the six degree-<=2
    monomials, or (c) a single higher-degree well-ordered monomial with
    alpha > beta, possibly alongside i.  Every other combination generates an
    infinite-dimensional algebra.  Two distinct skew monomials, neither of
    them i, commute exactly when both are diagonal (alpha = beta), so (a)
    is the set whose keys are all diagonal: the decision reads the keys.
    """
    keys: set = set()
    for g in gens:
        if not g:
            continue
        if not g.is_monomial():
            raise ValueError("decide_monomial_set requires single-monomial generators")
        keys.update(g.terms)
    perp = [k for k in keys if subspace_of(*k) == "Aperp"]
    support = _support(keys)
    if (support <= _LOW
            # one nonlinearity plus (optionally) the central i
            or (len(perp) == 1 and keys <= {perp[0], (PLUS, (0, 0))})
            # all central or Kerr-type: mutually commuting
            or support <= _DIAGONAL):
        # finite, but a user budget below the closure's size still truncates it
        return _raw_closure(gens, budget)
    return _infinite("MonomialGlossaryViolation", monomials=[
        {"sigma": "+" if s == PLUS else "-", "alpha": g[0], "beta": g[1]}
        for s, g in sorted(keys, key=monomial_key_order)])


def decide_with_free_hamiltonian(gens: Sequence[SkewPoly],
                                 budget: Budget = Budget()) -> ClosureOutcome:
    """Exact decision when some generator is a harmonic drift i(w a†a + c).

    g and -g generate the same real algebra, so the sign of w does not
    matter.  The closure is finite iff no generator has support in the
    residual nonlinear subspace, and additionally no generator has linear or
    quadratic support whenever some generator has Kerr-type support.
    """
    drift = next((g for g in gens if _is_drift(g)), None)
    if drift is None:
        raise ValueError(
            "no generator of the form i(w a†a + c) with w != 0; use lie_closure"
        )
    supports = [_support(g.terms) for g in gens]
    perp_offender = _first(gens, supports, lambda s: "Aperp" in s)
    if perp_offender is not None:
        return _infinite("PerpWithFreeHam", drift=skew_to_json(drift),
                         offender=skew_to_json(perp_offender))
    eq_support = _first(gens, supports, lambda s: "Aeq" in s)
    if eq_support is not None:
        quad = _first(gens, supports, lambda s: s & _QUAD)
        if quad is not None:
            return _infinite("MixedEqAndQuad",
                             kerr_element=skew_to_json(eq_support),
                             quadratic_element=skew_to_json(quad))
    # finite, but a user budget below the closure's size still truncates it
    return _raw_closure(gens, budget)


def _mixed_witness(e1: Optional[SkewPoly], e2: Optional[SkewPoly]
                   ) -> Optional[ClosureOutcome]:
    if e1 is None or e2 is None:
        return None
    return _infinite("MixedEqAndQuad", kerr_element=skew_to_json(e1),
                     partner=skew_to_json(e2))


def _low_degree_mixed_witness(gens: Sequence[SkewPoly],
                              budget: Budget) -> Optional[ClosureOutcome]:
    """e1 in span(A0, Aeq) with Kerr support, e2 in the degree-<=2
    subalgebra with linear/quadratic support."""
    supports = [_support(g.terms) for g in gens]
    e1 = _first(gens, supports, lambda s: "Aeq" in s and s <= _DIAGONAL)
    e2 = _first(gens, supports, lambda s: s & _QUAD and s <= _LOW)
    return _mixed_witness(e1, e2)


def _mixed_eq_quad_witness(gens: Sequence[SkewPoly],
                           budget: Budget) -> Optional[ClosureOutcome]:
    """One element whose top-degree part is a pure Kerr-type monomial of
    degree >= 4, together with one element whose component outside
    span(A0, Aeq) is nonzero and of maximal degree within that element.
    Both are read from the top-degree keys: those of the first lie in Aeq
    (which holds one monomial g+^(k,k), k >= 2, per degree), and one of the
    second's lies outside span(A0, Aeq).
    """
    tops = [_support(k for k in g.terms if sum(k[1]) == d)
            for g in gens for d in (g.degree,)]
    leader = _first(gens, tops, lambda top: top == {"Aeq"})
    partner = _first(gens, tops, lambda top: not top <= _DIAGONAL)
    return _mixed_witness(leader, partner)


def _identity_frame_witness(gens: Sequence[SkewPoly],
                            budget: Budget) -> Optional[ClosureOutcome]:
    """The first pair of degree > 2 that `identity_certificate` certifies."""
    for x, y in itertools.combinations(gens, 2):
        cert = min(x.degree, y.degree) > 2 and identity_certificate(x, y)
        if cert:
            return _infinite("IgusaCertificate",
                             pair=[skew_to_json(x), skew_to_json(y)],
                             **cert.to_json())
    return None


def _chain_growth_witness(gens: Sequence[SkewPoly],
                          budget: Budget) -> Optional[ClosureOutcome]:
    """Commutator-chain search over ordered pairs of distinct generators
    (a chain seeded at its own auxiliary vanishes at the first step); a
    chain ends at its first element above the degree budget."""
    for seed, aux in itertools.permutations(gens, 2):
        w = chain_witness(seed, aux, 8, budget.max_degree)
        if w is not None:
            return _infinite(w.rule, **w.evidence)
    return None


#: in order, each (gens, budget) -> an `infinite` outcome, or None
_SUFFICIENT_CRITERIA = (_low_degree_mixed_witness, _mixed_eq_quad_witness,
                       _identity_frame_witness, _chain_growth_witness)


def lie_closure(gens: Sequence[SkewPoly],
                budget: Budget = Budget()) -> ClosureOutcome:
    """Lie closure with decision rules applied before budgeted iteration.

    Rule order: zero generators dropped; exact monomial-set decision; exact
    drift-term decision (i(w a†a + c) of either sign); then the sufficient
    criteria `_SUFFICIENT_CRITERIA`: low-degree mixed Kerr/quadratic, mixed
    Kerr/quadratic by leading degree, `identity_certificate` on pairs of
    degree > 2 (so no closure imports `igusa`) and commutator-chain growth
    (a chain ends above the degree budget); then the budgeted closure.
    Every finite answer comes from a closure run under `budget`, so a
    closure larger than the budget is reported `inconclusive`.
    """
    gens = [g for g in gens if g]
    if not gens:
        return ClosureOutcome("finite", span=LieSpan())
    if all(g.is_monomial() for g in gens):
        return decide_monomial_set(gens, budget)
    if any(_is_drift(g) for g in gens):
        return decide_with_free_hamiltonian(gens, budget)
    for criterion in _SUFFICIENT_CRITERIA:
        out = criterion(gens, budget)
        if out is not None:
            return out
    return _raw_closure(gens, budget)


def centralizer_in(x: SkewPoly, ambient: LieSpan) -> LieSpan:
    """Exact kernel of ad(x) restricted to a bracket-closed ambient span."""
    if not span_is_bracket_closed(ambient):
        raise ValueError("ambient span is not closed under the bracket")
    images = [bracket(x, b) for b in ambient.basis]
    keys = {k for im in images for k in im.terms}
    kernel = Rref([[im.terms.get(k, Fraction(0)) for im in images] for k in keys],
                  ambient.dim).nullspace()
    return LieSpan(sum((ambient.basis[j].scale(c) for j, c in vec.items()),
                       SkewPoly()) for vec in kernel)
