"""Leading-coefficient sufficient condition for infinite-dimensionality.

For two elements of degree > 2, the coefficients of ``a^d`` and ``a† a^{d-1}``
(written a0, a1 for the first element and b0, b1 for the second) control a
commutator chain of strictly increasing degree: if a0·b0 != 0 and the mixed
invariant delta = d2·a1·b0 - d1·a0·b1 != 0, the generated Lie algebra is
infinite-dimensional.  When the raw coefficients fail the test, a symplectic
change of frame a† -> s11·a† + s12·a, a -> s21·a† + s22·a (det = 1) can make
them generic; `symplectic_search` looks for a frame that does, and
returns a re-checkable certificate when it finds one.  It decides only
while the float frames clear NUMERIC_TOLERANCE: see `symplectic_search`.

The leading data in a new frame come from the top homogeneous part alone.
Substituting the frame into (a†)^α a^β and normal ordering the result gives
the commutative product (s11·x + s12·y)^α (s21·x + s22·y)^β (x for a†, y
for a) plus terms of lower degree, because every reordering a a† = a† a + 1
removes two factors.  The substitution is linear and invertible, so the
degree-d part of an element maps to a nonzero degree-d polynomial: the
degree stays d, and a0, a1 are the y^d and x·y^(d-1) coefficients of the
substituted degree-d part.  `_frame_leading` evaluates exactly that, in
O(d) per element; `transform`, the full normal-ordered frame change, is
kept as its reference.  The leading data are read from the skew keys:
in floating point here, and exactly at the identity frame by
`lie_engine.identity_certificate`, which `lie_closure` runs too.

Which frames certify.  With p, q the degree-d parts as commuting polynomials
in (x, y) and v = (s12, s22), Euler's identity d·p = x·p_x + y·p_y gives
a0 = p(v) and delta = (p_x·q_y - p_y·q_x)(v) = {p, q}(v) (det = 1, up to the
positive normalisation); s11 and s21 drop out.  As the associated graded of
the Weyl algebra is the Poisson algebra (Dixmier, Bull. SMF 96, 1968),
-{p, q} is the degree d1 + d2 - 2 part of [e1, e2].  A frame certifies iff
P = p·q·{p, q} is nonzero at v.  If deg [e1, e2] < d1 + d2 - 2, P = 0 and no
frame does; else P, homogeneous of degree D = 2(d1 + d2) - 2, vanishes on at
most D lines, and of D + 1 frames with distinct ratios s12/s22 one certifies.

The condition is sufficient only; the verdict vocabulary is
{"infinite", "inconclusive"} and never "finite".
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, NamedTuple, Optional, Tuple

from .lie_engine import IgusaCertificate, bracket, identity_certificate
from .weyl_core import MultiIndex, SkewPoly, WeylPoly, _normal_coeff, _reorder

#: |value| threshold for "nonzero" under floating-point frames, applied to
#: leading data normalised as in `_frame_leading`
NUMERIC_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Leading data, read from the skew keys
# ---------------------------------------------------------------------------

def _top_terms(e: SkewPoly) -> Tuple[int, tuple]:
    """(d, the degree-d normal-ordered terms (α, β, c) of e), read once per
    element and search, in the order of its `WeylPoly` conversion so every
    float sum over them runs as over it: per skew key (β, α) before (α, β),
    and g±^γ merged at the first of them."""
    d, terms = e.degree, e.terms
    keys = dict.fromkeys(k for _, g in terms if sum(g) == d
                         for k in (g[::-1], g))
    try:
        return d, tuple((a, b, complex(*map(float, _normal_coeff(terms, a, b))))
                        for a, b in keys)
    except OverflowError:
        raise OverflowError("the float frame search reads a top-degree "
                            "coefficient outside the float range") from None


def _frame_leading(top, frame) -> Tuple[int, complex, complex]:
    """(d, a0, a1) of the `_top_terms` `top` after the frame (s11, s12, s21, s22).

    Over the degree-d terms c·(a†)^α a^β, a0 = Σ c·s12^α·s22^β and
    a1 = Σ c·(α·s11·s12^(α-1)·s22^β + β·s21·s12^α·s22^(β-1)).  Both are
    divided by Σ |c|·(|s11| + |s12|)^α·(|s21| + |s22|)^β, which bounds the
    sum of the |coefficients| of the transformed degree-d part: the values
    do not depend on the element's scale, and their rounding error stays
    near machine precision in every frame, far below NUMERIC_TOLERANCE.
    Where a power of the frame leaves the float range (at d = 1420 for
    s = 1/2), a0 and a1 are NaN, which no test counts as nonzero: such a
    frame certifies nothing.
    """
    d, terms = top
    s11, s12, s21, s22 = frame
    r1, r2 = abs(s11) + abs(s12), abs(s21) + abs(s22)
    a0 = a1 = 0j
    scale = 0.0
    for alpha, beta, c in terms:
        try:
            scale += abs(c) * r1 ** alpha * r2 ** beta
            a0 += c * s12 ** alpha * s22 ** beta
            if alpha:
                a1 += c * alpha * s11 * s12 ** (alpha - 1) * s22 ** beta
            if beta:
                a1 += c * beta * s21 * s12 ** alpha * s22 ** (beta - 1)
        except OverflowError:
            return d, math.nan, math.nan
    return d, a0 / scale, a1 / scale


def _require_high_degree(e1: SkewPoly, e2: SkewPoly, who: str) -> None:
    for e in (e1, e2):
        if not isinstance(e.degree, int) or e.degree <= 2:
            raise ValueError(f"{who} requires degree > 2 elements")


def identity_check(e1: SkewPoly, e2: SkewPoly) -> str:
    """"infinite" if a0·b0 != 0 and delta != 0 hold exactly at the identity
    frame, else "inconclusive".  Requires both degrees > 2."""
    _require_high_degree(e1, e2, "identity_check")
    return "inconclusive" if _evaluate_frame(e1, e2, None) is None else "infinite"


# ---------------------------------------------------------------------------
# Symplectic frames
# ---------------------------------------------------------------------------

class SymplecticParams(NamedTuple):
    """Skew-hermiticity-preserving symplectic frame

        [[e^{i·phi} cosh s,  e^{i·theta} sinh s],
         [e^{-i·theta} sinh s, e^{-i·phi} cosh s]]

    always of determinant 1."""
    s: float
    phi: float
    theta: float

    def matrix(self) -> Tuple[complex, complex, complex, complex]:
        ch, sh = math.cosh(self.s), math.sinh(self.s)
        return (
            cmath.exp(1j * self.phi) * ch,
            cmath.exp(1j * self.theta) * sh,
            cmath.exp(-1j * self.theta) * sh,
            cmath.exp(-1j * self.phi) * ch,
        )

    def to_json(self) -> dict:
        return {"s": self.s, "phi": self.phi, "theta": self.theta}


CPoly = Dict[MultiIndex, complex]


def cpoly_mul(p: CPoly, q: CPoly) -> CPoly:
    """Noncommutative product of normal-ordered complex polynomials."""
    out: CPoly = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            c = c1 * c2
            for (s, r), n in _reorder(b1, a2):
                key = (a1 + s, r + b2)
                out[key] = out.get(key, 0j) + c * n
    return out


def _cpoly_pow(base: CPoly, n: int) -> CPoly:
    out: CPoly = {(0, 0): 1.0 + 0j}
    for _ in range(n):
        out = cpoly_mul(out, base)
    return out


def transform(x: WeylPoly, sigma) -> CPoly:
    """Apply the frame change a† -> s11 a† + s12 a, a -> s21 a† + s22 a.

    `sigma` is a SymplecticParams or a flat (s11, s12, s21, s22) tuple with
    determinant 1 (checked to 1e-12 for raw tuples).  Bracket-preserving for
    any determinant-1 frame.  The full normal-ordered result; the search
    needs only its leading data, which `_frame_leading` reads directly.
    """
    if isinstance(sigma, SymplecticParams):
        s11, s12, s21, s22 = sigma.matrix()
    else:
        s11, s12, s21, s22 = (complex(v) for v in sigma)
        if abs(s11 * s22 - s12 * s21 - 1) > 1e-12:
            raise ValueError("frame matrix must have determinant 1")
    adag_img: CPoly = {(1, 0): s11, (0, 1): s12}
    a_img: CPoly = {(1, 0): s21, (0, 1): s22}
    out: CPoly = {}
    for (alpha, beta), c in x.terms.items():
        term = cpoly_mul(_cpoly_pow(adag_img, alpha), _cpoly_pow(a_img, beta))
        cc = complex(c)
        for k, v in term.items():
            out[k] = out.get(k, 0j) + cc * v
    return out


# ---------------------------------------------------------------------------
# Certificates and the search
# ---------------------------------------------------------------------------

def _evaluate_frame(e1: SkewPoly, e2: SkewPoly,
                    params: Optional[SymplecticParams]) -> Optional[IgusaCertificate]:
    """The certificate of the pair at one frame, or None where the test
    fails there.  `params` None is the identity frame, evaluated exactly."""
    if params is None:
        return identity_certificate(e1, e2)
    return _float_frame(_top_terms(e1), _top_terms(e2), params)


def _float_frame(top1, top2, params) -> Optional[IgusaCertificate]:
    """`_evaluate_frame` at a float frame, on the pair's `_top_terms`."""
    frame = params.matrix()
    d1, a0, a1 = _frame_leading(top1, frame)
    d2, b0, b1 = _frame_leading(top2, frame)
    prod = a0 * b0
    dlt = d2 * a1 * b0 - d1 * a0 * b1
    # NaN leading data, from a frame past the float range, fail both tests
    if abs(prod) > NUMERIC_TOLERANCE and abs(dlt) > NUMERIC_TOLERANCE:
        return IgusaCertificate("infinite", params, prod, dlt)
    return None


def symplectic_search(e1: SkewPoly, e2: SkewPoly) -> Optional[IgusaCertificate]:
    """The first certifying frame, or None: None at once, with no frame
    evaluated, when the top parts' bracket has degree below d1 + d2 - 2, as
    then no frame certifies (module docstring); else the exact identity, then
    the D + 1 frames SymplecticParams(1/2, 0, 2πk/(D + 1)), with distinct
    ratios s12/s22 = e^{iθ}·tanh(1/2).  Float frames must clear
    NUMERIC_TOLERANCE, so the search decides only at low degree: the
    normalised a0·b0 and delta shrink like 4^-d, and for g+^(d,0) and
    g-^(d,0), which some frame certifies, it finds none from d = 18 on."""
    _require_high_degree(e1, e2, "symplectic_search")
    d1, d2 = e1.degree, e2.degree
    if bracket(e1.top_part(), e2.top_part()).degree != d1 + d2 - 2:
        return None
    cert = identity_certificate(e1, e2)
    if cert is not None:
        return cert
    tops = _top_terms(e1), _top_terms(e2)
    n = 2 * (d1 + d2) - 1  # D + 1
    frames = (SymplecticParams(0.5, 0.0, 2 * math.pi * k / n) for k in range(n))
    certs = (_float_frame(*tops, params) for params in frames)
    return next((cert for cert in certs if cert is not None), None)


def verify_certificate(cert: IgusaCertificate, e1: SkewPoly,
                       e2: SkewPoly) -> bool:
    """Recompute the certified quantities from the stored frame."""
    if min(e1.degree, e2.degree) <= 2:
        return False
    fresh = _evaluate_frame(e1, e2, cert.params)
    return (fresh is not None and abs(fresh.a0b0 - cert.a0b0) < 1e-9
            and abs(fresh.delta - cert.delta) < 1e-9)


def chain_degrees(e1: SkewPoly, e2: SkewPoly,
                  params: Optional[SymplecticParams], steps: int = 5) -> List[int]:
    """Degrees of the commutator chain u <- [u, s] seeded at the second
    element, with s in {e1, e2} chosen at each step by the delta criterion
    in the frame.  A det-1 frame change is a degree-preserving automorphism,
    so the chain is bracketed exactly in the original frame.  Used to
    confirm certificates independently."""
    frame = params.matrix() if params else (1, 0, 0, 1)
    aux = [(e, _frame_leading(_top_terms(e), frame)) for e in (e1, e2)]
    u, lead = aux[1]
    degrees = [u.degree]
    for step in range(steps):
        if step:
            lead = _frame_leading(_top_terms(u), frame)
        du, u0, u1 = lead
        s = next((e for e, (ds, s0, s1) in aux
                  if abs(ds * u1 * s0 - du * u0 * s1) > NUMERIC_TOLERANCE), None)
        if s is None:
            break
        u = bracket(u, s)
        degrees.append(u.degree)
    return degrees
