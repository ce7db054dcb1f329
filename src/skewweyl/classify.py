"""Structural invariants and catalog identification of finite subalgebras.

Instead of solving the nonlinear isomorphism equations, algebras are matched
through an invariant fingerprint (dimension, derived / lower-central series
profiles, center dimension, exact Killing signature).  The fingerprint
separates every named algebra in the catalog; in particular the two
four-dimensional solvable algebras wh1 and wh2 differ in Killing signature
((1,0,3) vs (0,1,3)), which replaces any case analysis over nonlinear
systems.  Parametric families (nilpotent chains L_n, their solvable
extensions, and diagonal solvable algebras r(j1..jn)) are recognized
structurally.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .lie_engine import Budget, LieSpan, Rref, bracket, lie_closure
from .weyl_core import SkewPoly

Matrix = List[List[Fraction]]
#: a coordinate vector as a sparse integer row {basis index: int}
Sparse = Dict[int, int]


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------

class StructureConstants:
    """Bracket table of an n-dimensional algebra in a fixed basis.

    `table[i, j]` is the sparse coordinate vector of [b_i, b_j], stored
    only if nonzero and without zero entries; table[j, i] is -table[i, j].
    `integer_table` is the map times `scale`, the lcm of its denominators,
    in ints: an isomorphic algebra with the same series and centre, whose
    Killing form is scale² > 0 times this one, of the same signature.
    """

    def __init__(self, n: int, entries: Dict[Tuple[int, int], Dict[int, Fraction]]):
        self.n = n
        self.table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j), comps in entries.items():
            v = {k: Fraction(c) for k, c in comps.items() if c}
            if v:
                self.table[i, j] = v
                self.table[j, i] = {k: -c for k, c in v.items()}
        self.scale = math.lcm(*(c.denominator for v in self.table.values()
                                for c in v.values()))
        self.integer_table: Dict[Tuple[int, int], Sparse] = {ij: {
            k: c.numerator * (self.scale // c.denominator)
            for k, c in v.items()} for ij, v in self.table.items()}

    @staticmethod
    def from_span(b: LieSpan) -> "StructureConstants":
        """The table of b's basis, which must be closed under the bracket.

        Pairs `bracket_pair` proves commute are not bracketed: a scalar with
        anything, or two elements that commute with the same non-scalar
        one, in the basis or a shared linear root (by Amitsur's theorem its
        centralizer is commutative).  The pairs are visited cheapest first,
        by |x.terms|·|y.terms|, so cheap zero brackets find those common
        elements before the dear pairs come up; the table does not depend
        on the order.  Brackets and coordinates are formed in integers
        (`LieSpan.bracket_pair`, `LieSpan._coordinates_ints`).  The links
        b holds are read and added to: on a closure's own span, every pair
        of which the closure met, no zero bracket is formed.
        """
        basis = b.basis
        entries = {}
        for i, j in sorted(itertools.combinations(range(b.dim), 2),
                           key=lambda ij: len(basis[ij[0]].terms)
                           * len(basis[ij[1]].terms)):
            pair = b.bracket_pair(i, j)
            if pair is None:
                continue
            l, z = pair
            coords = b._coordinates_ints(z, l)
            if coords is None:
                raise ValueError("span is not closed under the bracket")
            entries[i, j] = coords
        # the table in (i, j) order, whatever order the pairs were visited in
        return StructureConstants(b.dim, dict(sorted(entries.items())))

    @functools.cached_property
    def derived(self) -> List[Sparse]:
        """[g, g] as integer rows, formed once per table: the first term of
        the derived series, the lower central series and the diagonal test."""
        return _subspace_product(self, _full_basis(self.n),
                                 _full_basis(self.n))

    def bracket_vec(self, u: Sparse, v: Sparse) -> Sparse:
        """Coordinates of scale·[u, v], for u and v in integer coordinates."""
        out: Sparse = {}
        for i, a in u.items():
            for j, b in v.items():
                t = self.integer_table.get((i, j))
                if t:
                    c = a * b
                    for k, x in t.items():
                        out[k] = out.get(k, 0) + c * x
        return {k: x for k, x in out.items() if x}


def _subspace_product(sc: StructureConstants, A: List[Sparse],
                      B: List[Sparse]) -> List[Sparse]:
    """Primitive integer `Rref` rows, by pivot, of the span of all [u, v],
    u in A, v in B.  For B equal to A each unordered pair is bracketed
    once: [u, u] = 0 and [v, u] = -[u, v] span nothing more, and the RREF
    of a span does not depend on the rows that reach it."""
    out = Rref(ncols=sc.n)
    if A == B:
        pairs = itertools.combinations(A, 2)
    else:
        pairs = itertools.product(A, B)
    for u, v in pairs:
        out.insert(sc.bracket_vec(u, v))
    rows = out.integer_rows
    return [rows[p][1] for p in out.pivots]


def _full_basis(n: int) -> List[Sparse]:
    return [{i: 1} for i in range(n)]


def _series(sc: StructureConstants, step) -> List[List[Sparse]]:
    """A descending series from the whole algebra through [g, g], each
    term strictly smaller than the last, ending where it stabilizes or
    reaches 0."""
    out, nxt = [_full_basis(sc.n)], sc.derived
    while len(nxt) < len(out[-1]):
        out.append(nxt)
        if nxt:
            nxt = step(nxt)
    return out


def _derived_series(sc: StructureConstants) -> List[List[Sparse]]:
    return _series(sc, lambda s: _subspace_product(sc, s, s))


def _lower_central_series(sc: StructureConstants) -> List[List[Sparse]]:
    return _series(sc, lambda s: _subspace_product(sc, _full_basis(sc.n), s))


def _center(sc: StructureConstants) -> List[Dict[int, Fraction]]:
    """Common kernel of the ad maps: row (i, k) holds table[i, j][k] at j."""
    rows: Dict[Tuple[int, int], Sparse] = {}
    for (i, j), v in sc.integer_table.items():
        for k, c in v.items():
            rows.setdefault((i, k), {})[j] = c
    kernel = Rref(ncols=sc.n)
    for key in sorted(rows):
        kernel.insert(rows[key])
    return kernel.nullspace()


# ---------------------------------------------------------------------------
# Invariants on LieSpans
# ---------------------------------------------------------------------------

def _spans(b: LieSpan, subspaces: List[List[Sparse]]) -> List[LieSpan]:
    """Subspaces given by coordinate vectors in b's basis, as LieSpans; the
    whole algebra maps to b itself."""
    def element(v: Sparse) -> SkewPoly:
        return sum((b.basis[i].scale(c) for i, c in v.items()), SkewPoly())

    return [b if len(vecs) == b.dim else LieSpan(map(element, vecs))
            for vecs in subspaces]


def derived_series(b: LieSpan) -> List[LieSpan]:
    """D^0 = b, D^{l+1} = [D^l, D^l], until stabilization."""
    return _spans(b, _derived_series(StructureConstants.from_span(b)))


def lower_central_series(b: LieSpan) -> List[LieSpan]:
    """n_0 = b, n_{l+1} = [b, n_l], until stabilization."""
    return _spans(b, _lower_central_series(StructureConstants.from_span(b)))


def center(b: LieSpan) -> LieSpan:
    return _spans(b, [_center(StructureConstants.from_span(b))])[0]


# ---------------------------------------------------------------------------
# Killing form
# ---------------------------------------------------------------------------

def _sylvester_signature(G: List[List[int]]) -> Tuple[int, int, int]:
    """Exact signature of a symmetric integer matrix by congruence: with
    d = G[p][p] != 0, G[i] <- d·G[i] - f·G[p] on rows and then columns is
    invertible, so by Sylvester's law of inertia it keeps the signature."""
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
            # congruence: add row/col j to i to expose a diagonal entry
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
            f = G[i][pivot]
            if i == pivot or f == 0:
                continue
            G[i] = [d * x - f * y for x, y in zip(G[i], G[pivot])]
            for row in G:
                row[i] = d * row[i] - f * row[pivot]
        idx.remove(pivot)
    return (n_plus, n_minus, n_zero)


def killing_form(b: LieSpan):
    """Exact Killing Gram matrix B(x,y) = Tr(ad_x ad_y) as rows of
    Fractions, with rank and signature."""
    return _killing_from_sc(StructureConstants.from_span(b))


def _integer_killing(sc: StructureConstants) -> List[List[int]]:
    """scale² times the Killing Gram matrix: (ad b_i)[k][l] is
    table[i, l][k], so B(b_i, b_j) = sum table[i, l][k] table[j, k][l]."""
    ads: List[Dict[Tuple[int, int], int]] = [{} for _ in range(sc.n)]
    for (i, l), v in sc.integer_table.items():
        for k, c in v.items():
            ads[i][k, l] = c
    return [[sum(c * Q[l, k] for (k, l), c in P.items() if (l, k) in Q)
             for Q in ads] for P in ads]


def _killing_from_sc(sc: StructureConstants):
    """Gram matrix (as Fractions), rank n_+ + n_- and signature."""
    G = _integer_killing(sc)
    signature = _sylvester_signature(G)
    s2 = sc.scale ** 2
    return ([[Fraction(x, s2) for x in row] for row in G],
            signature[0] + signature[1], signature)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

class Fingerprint(NamedTuple):
    dim: int
    derived_dims: Tuple[int, ...]
    lcs_dims: Tuple[int, ...]
    center_dim: int
    solvable: bool
    nilpotent: bool
    killing_rank: int
    killing_signature: Tuple[int, int, int]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "derived_dims": list(self.derived_dims),
            "lcs_dims": list(self.lcs_dims),
            "center_dim": self.center_dim,
            "solvable": self.solvable,
            "nilpotent": self.nilpotent,
            "killing_rank": self.killing_rank,
            "killing_signature": list(self.killing_signature),
        }


def _fingerprint_from_sc(sc: StructureConstants) -> Fingerprint:
    der_dims = tuple(len(s) for s in _derived_series(sc))
    lcs_dims = tuple(len(s) for s in _lower_central_series(sc))
    signature = _sylvester_signature(_integer_killing(sc))
    return Fingerprint(
        dim=sc.n,
        derived_dims=der_dims,
        lcs_dims=lcs_dims,
        center_dim=len(_center(sc)),
        solvable=der_dims[-1] == 0,
        nilpotent=lcs_dims[-1] == 0,
        killing_rank=signature[0] + signature[1],
        killing_signature=signature,
    )


def fingerprint(b: LieSpan) -> Fingerprint:
    return _fingerprint_from_sc(StructureConstants.from_span(b))


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _chain_sc(n: int) -> StructureConstants:
    """L_n, dim n+1: [e1, e_j] = e_{j+1} for j = 2..n (0-indexed shift)."""
    entries = {(0, j): {j + 1: Fraction(1)} for j in range(1, n)}
    return StructureConstants(n + 1, entries)


def _chain_ext_sc(n: int) -> StructureConstants:
    """Ltilde_n, dim n+2: solvable extension of L_n by a grading element."""
    entries: Dict[Tuple[int, int], Dict[int, Fraction]] = {
        (0, 1): {1: Fraction(1)},
    }
    for j in range(2, n + 2):
        entries[(0, j)] = {j: Fraction(-(n + 1 - (j - 1)))}
    for j in range(2, n + 1):
        entries[(1, j)] = {j + 1: Fraction(1)}
    return StructureConstants(n + 2, entries)


# the sums with R add a central basis element after these
_AFF1 = {(0, 1): {0: Fraction(1)}}
_SL2 = {(0, 1): {1: Fraction(2)}, (0, 2): {2: Fraction(-2)},
        (1, 2): {0: Fraction(1)}}

_CONCRETE_SC: Dict[str, StructureConstants] = {
    "aff(1)": StructureConstants(2, _AFF1),
    "aff(1)+R": StructureConstants(3, _AFF1),
    "h1": StructureConstants(3, {(0, 1): {2: Fraction(1)}}),
    "sl2": StructureConstants(3, _SL2),
    "sl2+R": StructureConstants(4, _SL2),
    "wh1": StructureConstants(4, {
        (1, 2): {0: Fraction(1)},
        (1, 3): {1: Fraction(1)},
        (2, 3): {2: Fraction(-1)},
    }),
    "wh2": StructureConstants(4, {
        (0, 1): {2: Fraction(-1)},
        (0, 2): {1: Fraction(1)},
        (1, 2): {3: Fraction(1)},
    }),
    "Schrodinger": StructureConstants(6, {
        # basis order: i, ia†a, g+^i, g-^i, g+^2i, g-^2i  (cf. bracket table)
        (1, 2): {3: Fraction(1)},
        (1, 3): {2: Fraction(-1)},
        (1, 4): {5: Fraction(2)},
        (1, 5): {4: Fraction(-2)},
        (2, 3): {0: Fraction(-2)},
        (2, 4): {3: Fraction(2)},
        (2, 5): {2: Fraction(-2)},
        (3, 4): {2: Fraction(2)},
        (3, 5): {3: Fraction(2)},
        (4, 5): {0: Fraction(-4), 1: Fraction(-8)},
    }),
}


class CatalogEntry(NamedTuple):
    name: str
    parameters: Tuple = ()
    fingerprint: Optional[Fingerprint] = None
    method: str = "fingerprint"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "parameters": [str(p) for p in self.parameters],
            "fingerprint": self.fingerprint.to_json() if self.fingerprint else None,
            "method": self.method,
        }


def reference_structure(name: str) -> StructureConstants:
    """Structure constants of a concrete catalog algebra in its stated
    basis order."""
    return _CONCRETE_SC[name]


def catalog_fingerprints() -> Dict[str, Fingerprint]:
    """Reference fingerprints of the concrete (non-parametric) catalog."""
    return {name: _fingerprint_from_sc(sc) for name, sc in _CONCRETE_SC.items()}


@functools.lru_cache(maxsize=None)
def _catalog() -> Dict[str, Fingerprint]:
    return catalog_fingerprints()


@functools.lru_cache(maxsize=None)
def _chain_fingerprint(n: int) -> Fingerprint:
    return _fingerprint_from_sc(_chain_sc(n))


@functools.lru_cache(maxsize=None)
def _chain_ext_fingerprint(n: int) -> Fingerprint:
    return _fingerprint_from_sc(_chain_ext_sc(n))


def _identify_parametric(sc: StructureConstants, fp: Fingerprint) -> Optional[CatalogEntry]:
    n = sc.n
    if fp.nilpotent and fp.lcs_dims == tuple([n] + list(range(n - 2, -1, -1))):
        if fp == _chain_fingerprint(n - 1):
            return CatalogEntry("L_n", (n - 1,), fp, "structural")
    if fp.solvable and not fp.nilpotent and n >= 4:
        if fp == _chain_ext_fingerprint(n - 2):
            return CatalogEntry("Ltilde_n", (n - 2,), fp, "structural")
    if fp.derived_dims == (n, n - 1, 0):
        # candidate diagonal family: [g, g] abelian of codimension 1, some
        # generator acting diagonalizably on it with rational eigenvalues
        weights = _diagonal_weights(sc, sc.derived)
        if weights is not None:
            return CatalogEntry("r(j1..jn)", tuple(weights), fp, "structural")
    return None


def _diagonal_weights(sc: StructureConstants,
                      der: List[Sparse]) -> Optional[Tuple[Fraction, ...]]:
    """Eigenvalues of a complementary generator w acting on the abelian
    derived algebra `der` (codimension 1, primitive integer RREF rows),
    normalized so the largest |weight| is 1.

    A row is its pivot entry d times the RREF row, whose coordinates are
    the entries at the pivots, so a row's image over d is its column of
    scale·ad w.  w is the first non-pivot unit vector; any other choice is
    c·w plus an element of the abelian `der`, which scales the weights by
    c, as `scale` does.  w is fixed only up to sign, so of the sorted
    weights of w and -w the larger tuple is returned.
    """
    pivots = [min(row) for row in der]
    outside = {next(i for i in range(sc.n) if i not in pivots): 1}
    images = [(sc.bracket_vec(outside, v), v[p]) for v, p in zip(der, pivots)]
    weights = _rational_eigenvalues([[Fraction(w.get(p, 0), d)
                                      for w, d in images] for p in pivots])
    if weights is None or not any(weights):
        return None
    scale = max(abs(w) for w in weights)
    return max(tuple(sorted((sign * w / scale for w in weights), reverse=True))
               for sign in (1, -1))


def _char_poly(A: Matrix) -> List[Fraction]:
    """Coefficients of det(x I - A), highest degree first
    (Faddeev–LeVerrier)."""
    n = len(A)
    coeffs = [Fraction(1)]
    M = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[sum((A[i][l] * M[l][j] for l in range(n)), Fraction(0))
              + (coeffs[-1] if i == j else 0) for j in range(n)]
             for i in range(n)]
        coeffs.append(-sum((A[i][l] * M[l][i] for i in range(n)
                            for l in range(n)), Fraction(0)) / k)
    return coeffs


def _divisors(n: int) -> List[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_eigenvalues(A: Matrix) -> Optional[List[Fraction]]:
    """All eigenvalues of A with multiplicity if every one is rational,
    else None.

    A = g A' with A' integral and g > 0, so det(x I - A') is monic with
    integer coefficients, and by the rational-root test its rational roots
    are integers dividing its lowest nonzero coefficient.
    """
    entries = [x for row in A for x in row if x]
    if not entries:
        return [Fraction(0)] * len(A)
    g = Fraction(math.gcd(*(x.numerator for x in entries)),
                 math.lcm(*(x.denominator for x in entries)))
    poly = [int(c) for c in _char_poly([[x / g for x in row] for row in A])]
    roots = []
    while poly[-1] == 0:
        poly.pop()
        roots.append(0)
    for d in _divisors(abs(poly[-1])):
        for r in (d, -d):
            while len(poly) > 1:
                quotient = [poly[0]]
                for c in poly[1:]:
                    quotient.append(c + r * quotient[-1])
                if quotient.pop():
                    break
                poly = quotient
                roots.append(r)
    if len(roots) < len(A):
        return None
    return [g * r for r in roots]


def identify(b: LieSpan) -> CatalogEntry:
    sc = StructureConstants.from_span(b)
    fp = _fingerprint_from_sc(sc)
    if fp.center_dim == fp.dim:
        return CatalogEntry("R^n", (fp.dim,), fp)
    for name, ref in _catalog().items():
        if fp == ref:
            return CatalogEntry(name, (), fp)
    parametric = _identify_parametric(sc, fp)
    if parametric is not None:
        return parametric
    return CatalogEntry("Unrecognized", (), fp, "none")


# ---------------------------------------------------------------------------
# Nullity and nilpotent chain bases
# ---------------------------------------------------------------------------

def nullity_witness(b: LieSpan, pair: Tuple[SkewPoly, SkewPoly]) -> bool:
    """True iff the two elements generate exactly the given span."""
    for p in pair:
        if not b.contains(p):
            raise ValueError("witness elements must lie in the span")
    out = lie_closure(list(pair), Budget(max_dim=max(8, 2 * b.dim),
                                         max_degree=64))
    return out.outcome == "finite" and out.span == b


def nilpotent_chain_basis(b: LieSpan) -> Optional[Tuple[List[SkewPoly], SkewPoly]]:
    """For a non-abelian nilpotent span, a basis ({y_0..y_{n-2}}, x) with
    [y_j, y_k] = 0 and [x, y_j] = y_{j-1} (and [x, y_0] = 0).

    Built constructively: candidate x and top chain element are scanned over
    basis vectors and pair sums; the chain is generated by repeated
    bracketing with x.  Returns None if the scan fails.
    """
    fp = fingerprint(b)
    if not fp.nilpotent or fp.derived_dims[-1] == fp.dim:
        raise ValueError("chain basis requires a nilpotent span")
    if fp.center_dim == fp.dim:
        raise ValueError("span is abelian; any basis works")
    n = b.dim
    candidates = list(b.basis) + [
        u + v for u, v in itertools.combinations(b.basis, 2)
    ]
    for x in candidates:
        for ytop in candidates:
            chain = [ytop]
            while len(chain) <= n:
                nxt = bracket(x, chain[-1])
                if not nxt:
                    break
                chain.append(nxt)
            if len(chain) != n - 1:
                continue
            if any(bracket(u, v) for u, v in itertools.combinations(chain, 2)):
                continue
            span = LieSpan(chain + [x])
            if span.dim == n and span == b:
                return (list(reversed(chain)), x)
    return None
