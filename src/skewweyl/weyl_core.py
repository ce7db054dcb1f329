"""Exact arithmetic for normal-ordered bosonic polynomials and their
skew-hermitian combinations.

Conventions
-----------
A canonical (normal-ordered) monomial is ``(a†)^alpha a^beta``, indexed by
the multi-index ``gamma = (alpha, beta)``.  For a *well-ordered* multi-index
(``alpha >= beta``) the two skew-hermitian monomials are

    plus(gamma)  = i ( (a†)^beta a^alpha + (a†)^alpha a^beta )
    minus(gamma) = (a†)^beta a^alpha - (a†)^alpha a^beta

so e.g. ``minus((1,0)) = a - a†`` and ``plus((0,0)) = 2i``.  ``minus``
vanishes identically when ``alpha == beta``; such keys are never stored.
Every polynomial ``p`` in ``a, a†`` with ``p† = -p`` is a unique real linear
combination of these monomials.

Coefficients are exact: plain rationals (`fractions.Fraction`) for
skew-hermitian polynomials, Gaussian rationals for normal-ordered ones.
All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from math import comb, factorial
from typing import Dict, Iterator, List, Mapping, Tuple

MultiIndex = Tuple[int, int]

PLUS = 1
MINUS = -1
_SIGNS = {"+": PLUS, "-": MINUS}

#: degree of the zero polynomial
NEG_INF = float("-inf")

#: tags for the five-way splitting of the skew-hermitian monomial basis:
#: A0   = span{2i, 2i a†a}                  (gamma in {(0,0),(1,1)}, plus)
#: A1   = span{a-a†, i(a+a†)}              (gamma=(1,0))
#: A2   = span{a²-a†², i(a²+a†²)}          (gamma=(2,0))
#: AEQ  = span{i(a†)^k a^k : k >= 2}       (gamma=(k,k), plus)
#: APERP = everything else                  (alpha > beta, alpha+beta >= 3)
SUBSPACES = ("A0", "A1", "A2", "Aeq", "Aperp")


def is_well_ordered(gamma: MultiIndex) -> bool:
    return gamma[0] >= gamma[1]


def mdeg(gamma: MultiIndex) -> int:
    return gamma[0] + gamma[1]


def subspace_of(sigma: int, gamma: MultiIndex) -> str:
    """Which of the five basis subspaces the monomial (sigma, gamma) spans."""
    alpha, beta = gamma
    if alpha == beta:
        # minus-monomials with alpha == beta vanish and are never stored
        return "A0" if alpha <= 1 else "Aeq"
    if (alpha, beta) == (1, 0):
        return "A1"
    if (alpha, beta) == (2, 0):
        return "A2"
    return "Aperp"


def monomial_key_order(key: Tuple[int, MultiIndex]) -> Tuple[int, MultiIndex, int]:
    """Deterministic total order on monomials: degree, multi-index, sign."""
    sigma, gamma = key
    return (mdeg(gamma), gamma, 0 if sigma == PLUS else 1)


class GaussianRational:
    """Exact complex number with rational real and imaginary parts.

    Immutable and hashable, and a number rather than a tuple: operands
    other than a GaussianRational, and ordering, raise TypeError.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, *_):
        raise AttributeError("GaussianRational is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def scale(self, c: Fraction) -> "GaussianRational":
        return GaussianRational(self.re * c, self.im * c)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    @staticmethod
    def real(c) -> "GaussianRational":
        return GaussianRational(Fraction(c), Fraction(0))

    @staticmethod
    def imag(c) -> "GaussianRational":
        return GaussianRational(Fraction(0), Fraction(c))


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational.real(1)
GR_I = GaussianRational.imag(1)


@functools.cache
def _reorder(r: int, s: int) -> Tuple[Tuple[MultiIndex, int], ...]:
    """Normal-order a^r (a†)^s: returns ((alpha, beta), integer coefficient)
    pairs with a^r (a†)^s = sum c_(alpha,beta) (a†)^alpha a^beta.

    Closed form: a^r (a†)^s = sum_j j! C(r,j) C(s,j) (a†)^(s-j) a^(r-j).
    Memoised; the tuple is immutable, so the shared value is safe.
    """
    return tuple(((s - j, r - j), factorial(j) * comb(r, j) * comb(s, j))
                 for j in range(min(r, s) + 1))


def _weyl_terms(key: Tuple[int, MultiIndex]
                ) -> Tuple[Tuple[MultiIndex, int, int], ...]:
    """Normal-ordered terms ((alpha, beta), re, im) of a skew monomial; the
    coefficients are Gaussian integers."""
    sigma, (alpha, beta) = key
    if sigma == PLUS:
        return ((beta, alpha), 0, 1), ((alpha, beta), 0, 1)
    return ((beta, alpha), 1, 0), ((alpha, beta), -1, 0)


def _normal_coeff(terms, alpha: int, beta: int) -> Tuple[Fraction, Fraction]:
    """(re, im) of the coefficient of (a†)^α a^β in the element with skew
    terms `terms`, exact, as its `WeylPoly` conversion gives it: with c±
    the coefficients of g±^γ, γ = (max(α, β), min(α, β)), it is c- + i·c+
    for α < β, -c- + i·c+ for α > β and 2i·c+ for α = β."""
    if alpha == beta:
        return 0, 2 * terms.get((PLUS, (alpha, beta)), 0)
    gamma = (alpha, beta) if alpha > beta else (beta, alpha)
    minus = terms.get((MINUS, gamma), 0)
    return -minus if alpha > beta else minus, terms.get((PLUS, gamma), 0)


def _monomial_bracket(k1: Tuple[int, MultiIndex], k2: Tuple[int, MultiIndex]
                      ) -> Tuple[Tuple[Tuple[int, MultiIndex], int], ...]:
    """[k1, k2] of two skew monomials as (key, integer coefficient) pairs.

    The product p = k1·k2 has Gaussian integer coefficients (`_reorder`),
    and k1, k2 are skew-hermitian, so [k1, k2] = p - p†.  Its coefficient
    D at (a†)^a a^b, a > b, puts Im D on g+ and -Re D on g-; on the
    diagonal D = 2i·Im p and g+ = 2i (a†)^a a^a, so the coefficient is
    Im p.  Every coefficient is therefore an integer.  Only valid skew
    keys come out: a >= b, no g- on the diagonal and no zero coefficient,
    so `lie_engine.bracket` wraps its sums unchecked.  Not memoised:
    `lie_engine` keeps the one table of these, by monomial index.
    """
    p: Dict[MultiIndex, List[int]] = {}
    for (a1, b1), re1, im1 in _weyl_terms(k1):
        for (a2, b2), re2, im2 in _weyl_terms(k2):
            re, im = re1 * re2 - im1 * im2, re1 * im2 + im1 * re2
            for (s, r), n in _reorder(b1, a2):
                acc = p.setdefault((a1 + s, r + b2), [0, 0])
                acc[0] += n * re
                acc[1] += n * im
    out = []
    for a, b in sorted({(max(k), min(k)) for k in p}):
        re, im = p.get((a, b), (0, 0))
        if a == b:
            out.append(((PLUS, (a, b)), im))
            continue
        mirror_re, mirror_im = p.get((b, a), (0, 0))
        out.append(((PLUS, (a, b)), im + mirror_im))
        out.append(((MINUS, (a, b)), mirror_re - re))
    return tuple(kv for kv in out if kv[1])


class WeylPoly:
    """Normal-ordered polynomial in a, a† with GaussianRational coefficients.

    Immutable; the term map never stores zero coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[MultiIndex, GaussianRational] = ()):
        cleaned = {k: v for k, v in dict(terms).items() if v}
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("WeylPoly is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def term(alpha: int, beta: int, coeff: GaussianRational = GR_ONE) -> "WeylPoly":
        if alpha < 0 or beta < 0:
            raise ValueError(f"negative powers in ({alpha}, {beta})")
        return WeylPoly({(alpha, beta): coeff})

    # -- ring structure ----------------------------------------------------
    def __add__(self, other: "WeylPoly") -> "WeylPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, GR_ZERO) + v
        return WeylPoly(out)

    def __sub__(self, other: "WeylPoly") -> "WeylPoly":
        return self + (-other)

    def __neg__(self) -> "WeylPoly":
        return WeylPoly({k: -v for k, v in self.terms.items()})

    def scale(self, c: GaussianRational) -> "WeylPoly":
        if not c:
            return WeylPoly()
        return WeylPoly({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "WeylPoly") -> "WeylPoly":
        out: Dict[MultiIndex, GaussianRational] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                c = c1 * c2
                # (a†)^a1 a^b1 (a†)^a2 a^b2 : reorder the middle a^b1 (a†)^a2
                for (s, r), n in _reorder(b1, a2):
                    key = (a1 + s, r + b2)
                    prev = out.get(key, GR_ZERO)
                    out[key] = prev + c.scale(Fraction(n))
        return WeylPoly(out)

    def dagger(self) -> "WeylPoly":
        return WeylPoly(
            {(b, a): c.conjugate() for (a, b), c in self.terms.items()}
        )

    def commutator(self, other: "WeylPoly") -> "WeylPoly":
        return self * other - other * self

    # -- inspection --------------------------------------------------------
    @property
    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(a + b for a, b in self.terms)

    def coeff(self, alpha: int, beta: int) -> GaussianRational:
        return self.terms.get((alpha, beta), GR_ZERO)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "WeylPoly(0)"
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            bits.append(f"({c.re}{'+' if c.im >= 0 else '-'}{abs(c.im)}i)·ad{a}a{b}")
        return "WeylPoly(" + " + ".join(bits) + ")"


class SkewPoly:
    """Real linear combination of skew-hermitian monomials.

    Keys are ``(sigma, gamma)`` with sigma in {+1, -1} and gamma well-ordered;
    the identically-zero minus-monomials (gamma = (k, k)) are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Tuple[int, MultiIndex], Fraction] = ()):
        cleaned = {}
        for (sigma, gamma), c in dict(terms).items():
            if not c:
                continue
            if sigma not in (PLUS, MINUS):
                raise ValueError(f"bad sign {sigma!r}")
            if not is_well_ordered(gamma):
                raise ValueError(f"multi-index {gamma} is not well-ordered")
            if gamma[1] < 0:
                raise ValueError(f"negative powers in {gamma}")
            if sigma == MINUS and gamma[0] == gamma[1]:
                continue  # identically zero monomial
            cleaned[(sigma, gamma)] = Fraction(c)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("SkewPoly is immutable")

    @classmethod
    def _from_terms(cls, terms: Dict[Tuple[int, MultiIndex], Fraction]
                    ) -> "SkewPoly":
        """Wrap a term map that already holds only valid skew keys and
        nonzero `Fraction` coefficients, without `__init__`'s checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "SkewPoly":
        return SkewPoly()

    @staticmethod
    def monomial(sigma: int, gamma: MultiIndex, c=Fraction(1)) -> "SkewPoly":
        if not is_well_ordered(gamma):
            raise ValueError(
                f"multi-index {gamma} is not well-ordered (need alpha >= beta)"
            )
        return SkewPoly({(sigma, gamma): Fraction(c)})

    # -- linear structure --------------------------------------------------
    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return SkewPoly(out)

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self + (-other)

    def __neg__(self) -> "SkewPoly":
        return SkewPoly({k: -v for k, v in self.terms.items()})

    def scale(self, c) -> "SkewPoly":
        c = Fraction(c)
        return SkewPoly({k: v * c for k, v in self.terms.items()})

    # -- conversions -------------------------------------------------------
    def to_weyl(self) -> WeylPoly:
        out: Dict[MultiIndex, GaussianRational] = {}
        for key, c in self.terms.items():
            for gamma, re, im in _weyl_terms(key):
                out[gamma] = (out.get(gamma, GR_ZERO)
                              + GaussianRational(re * c, im * c))
        return WeylPoly(out)

    @staticmethod
    def from_weyl(p: WeylPoly) -> "SkewPoly":
        if p.dagger() != -p:
            for (a, b), c in sorted(p.terms.items()):
                mirror = p.coeff(b, a)
                if mirror.conjugate() != -c:
                    raise ValueError(
                        f"polynomial is not skew-hermitian: coefficient of "
                        f"(a†)^{a} a^{b} is {c.re}+{c.im}i but its mirror "
                        f"requires {-mirror.re}+{mirror.im}i"
                    )
        out: Dict[Tuple[int, MultiIndex], Fraction] = {}
        for (a, b), c in p.terms.items():
            if a < b:
                continue  # handled by the well-ordered partner
            if a == b:
                # diagonal basis element is 2i (a†)^a a^a, so c = 2i * plus_coeff
                out[(PLUS, (a, b))] = c.im / 2
            else:
                # coeff of (a†)^a a^b is  i*plus - minus
                out[(PLUS, (a, b))] = c.im
                out[(MINUS, (a, b))] = -c.re
        return SkewPoly(out)

    # -- projections and inspection ---------------------------------------
    def project(self, tag: str) -> "SkewPoly":
        if tag not in SUBSPACES:
            raise ValueError(f"unknown subspace {tag!r}")
        return SkewPoly(
            {k: v for k, v in self.terms.items() if subspace_of(*k) == tag}
        )

    @property
    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(mdeg(gamma) for _, gamma in self.terms)

    def top_part(self) -> "SkewPoly":
        d = self.degree
        if d == NEG_INF:
            return SkewPoly()
        return SkewPoly(
            {k: v for k, v in self.terms.items() if mdeg(k[1]) == d}
        )

    def coeff(self, sigma: int, gamma: MultiIndex) -> Fraction:
        return self.terms.get((sigma, gamma), Fraction(0))

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def sorted_terms(self) -> Iterator[Tuple[Tuple[int, MultiIndex], Fraction]]:
        return iter(sorted(self.terms.items(), key=lambda kv: monomial_key_order(kv[0])))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, SkewPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "SkewPoly(0)"
        bits = []
        for (sigma, gamma), c in self.sorted_terms():
            s = "+" if sigma == PLUS else "-"
            bits.append(f"{c}·g{s}{gamma}")
        return "SkewPoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# Frequently used elements
# ---------------------------------------------------------------------------

def unit_i() -> SkewPoly:
    """The central element i (= plus((0,0)) / 2)."""
    return SkewPoly.monomial(PLUS, (0, 0), Fraction(1, 2))


def number_op() -> SkewPoly:
    """i a†a (= plus((1,1)) / 2)."""
    return SkewPoly.monomial(PLUS, (1, 1), Fraction(1, 2))


def schrodinger_monomials() -> Tuple[SkewPoly, ...]:
    """The six monomials spanning the degree-<=2 subalgebra:
    i, i a†a, i(a+a†), a-a†, i(a²+a†²), a²-a†²."""
    return (
        unit_i(),
        number_op(),
        SkewPoly.monomial(PLUS, (1, 0)),
        SkewPoly.monomial(MINUS, (1, 0)),
        SkewPoly.monomial(PLUS, (2, 0)),
        SkewPoly.monomial(MINUS, (2, 0)),
    )


#: the control generators of each dynamical algebra, the one table the
#: Wei–Norman factors, their adjoint matrices and the Fock matrices read:
#: iH(t) = sum_j u_j(t) X_j over X1 = i a†a, X2 = a - a†, X3 = i(a + a†),
#: X4 = a² - a†², X5 = i(a² + a†²); wh2 drives the first three
CONTROL_GENERATORS = {"schrodinger": (
    number_op(), SkewPoly.monomial(MINUS, (1, 0)),
    SkewPoly.monomial(PLUS, (1, 0)), SkewPoly.monomial(MINUS, (2, 0)),
    SkewPoly.monomial(PLUS, (2, 0)))}
CONTROL_GENERATORS["wh2"] = CONTROL_GENERATORS["schrodinger"][:3]


# ---------------------------------------------------------------------------
# JSON wire format (bit-exact fraction strings)
# ---------------------------------------------------------------------------

def skew_to_json(s: SkewPoly) -> dict:
    try:
        return {
            "skew": [
                {
                    "sigma": "+" if sigma == PLUS else "-",
                    "alpha": gamma[0],
                    "beta": gamma[1],
                    "coeff": str(c),
                }
                for (sigma, gamma), c in s.sorted_terms()
            ]
        }
    except ValueError as exc:  # str() of an int past the process's limit
        raise ValueError(
            f"a coefficient of the result has more than "
            f"{sys.get_int_max_str_digits()} digits, the limit of the JSON "
            f"writer") from exc


def _exact(value) -> Fraction:
    """A coefficient from a JSON integer or a string of the grammar that
    `skew_to_json` writes, ``[+-]?digits[/digits]`` in ASCII: 0.1, true,
    "0.5", "1e9", " 1" and "1_0" are bad terms, not Fractions."""
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"coefficients must be strings or integers, got {value!r}")
    num, slash, den = value.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if (digits.isdigit() and digits.isascii()
            and (not slash or den.isdigit() and den.isascii())):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    raise ValueError(f"coefficient {value!r} is not of the form n or n/d")


def skew_from_json(obj: dict) -> SkewPoly:
    """The element of obj["skew"], its terms summed by key.  alpha and beta
    must be JSON integers: 1.7 or true is a bad term, not 1."""
    try:
        entries = obj["skew"]
    except (KeyError, TypeError):
        raise ValueError("expected an object with a 'skew' array")
    terms: dict = {}
    for i, e in enumerate(entries):
        try:
            gamma = (e["alpha"], e["beta"])
            if type(gamma[0]) is not int or type(gamma[1]) is not int:
                raise TypeError(f"alpha and beta must be integers, got {gamma}")
            key, c = (_SIGNS[e["sigma"]], gamma), _exact(e["coeff"])
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"bad skew term at index {i}: {exc}") from exc
        terms[key] = terms[key] + c if key in terms else c
    if all(c and 0 <= beta <= alpha and (sigma == PLUS or alpha > beta)
           for (sigma, (alpha, beta)), c in terms.items()):
        return SkewPoly._from_terms(terms)
    return SkewPoly(terms)  # drops zero sums, then checks the keys
