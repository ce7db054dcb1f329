"""Leading-coefficient sufficient condition for infinite-dimensionality.

For two elements of degree > 2, the coefficients of ``a^d`` and ``a† a^{d-1}``
(written a0, a1 for the first element and b0, b1 for the second) control a
commutator chain of strictly increasing degree: if a0·b0 != 0 and the mixed
invariant delta = d2·a1·b0 - d1·a0·b1 != 0, the generated Lie algebra is
infinite-dimensional.  When the raw coefficients fail the test, a symplectic
change of frame a† -> s11·a† + s12·a, a -> s21·a† + s22·a (det = 1) can make
them generic; `symplectic_search` scans the identity frame, a small
deterministic family and seeded random draws, and returns a re-checkable
certificate on success.

The leading data in a new frame come from the top homogeneous part alone.
Substituting the frame into (a†)^α a^β and normal ordering the result gives
the commutative product (s11·x + s12·y)^α (s21·x + s22·y)^β (x for a†, y
for a) plus terms of lower degree, because every reordering a a† = a† a + 1
removes two factors.  The substitution is linear and invertible, so the
degree-d part of an element maps to a nonzero degree-d polynomial: the
degree stays d, and a0, a1 are the y^d and x·y^(d-1) coefficients of the
substituted degree-d part.  `_frame_leading` evaluates exactly that, in
O(d) per element; `transform`, the full normal-ordered frame change, is
kept as its reference.  The identity frame is evaluated in exact
Gaussian-rational arithmetic, every other frame in floating point.

The condition is sufficient only; the verdict vocabulary is
{"infinite", "inconclusive"} and never "finite".
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .lie_engine import bracket
from .weyl_core import GaussianRational, MultiIndex, SkewPoly, WeylPoly, _reorder

#: |value| threshold for "nonzero" under floating-point frames, applied to
#: leading data normalised as in `_frame_leading`
NUMERIC_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Leading data
# ---------------------------------------------------------------------------

def leading_pair(x: WeylPoly) -> Tuple[GaussianRational, GaussianRational]:
    """(a0, a1): the coefficients of a^d and a† a^{d-1}, d = deg x."""
    d = x.degree
    if not isinstance(d, int):
        raise ValueError("zero polynomial has no leading coefficients")
    return x.coeff(0, d), x.coeff(1, d - 1)


def delta(x: WeylPoly, y: WeylPoly) -> GaussianRational:
    """The exact invariant d_y·a1·b0 - d_x·a0·b1 built from leading data.

    Up to lower-order terms, [x, y] has a^{d_x+d_y-2} coefficient -delta(x,y).
    """
    a0, a1 = leading_pair(x)
    b0, b1 = leading_pair(y)
    dx, dy = x.degree, y.degree
    return a1 * b0 * GaussianRational.real(dy) - a0 * b1 * GaussianRational.real(dx)


def _frame_leading(x: WeylPoly, frame) -> Tuple[int, complex, complex]:
    """(d, a0, a1) of x after the frame change (s11, s12, s21, s22).

    Over the degree-d terms c·(a†)^α a^β, a0 = Σ c·s12^α·s22^β and
    a1 = Σ c·(α·s11·s12^(α-1)·s22^β + β·s21·s12^α·s22^(β-1)).  Both are
    divided by Σ |c|·(|s11| + |s12|)^α·(|s21| + |s22|)^β, which bounds the
    sum of the |coefficients| of the transformed degree-d part: the values
    do not depend on the element's scale, and their rounding error stays
    near machine precision in every frame, far below NUMERIC_TOLERANCE.
    """
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


def _weyl_pair(e1: SkewPoly, e2: SkewPoly, who: str) -> Tuple[WeylPoly, WeylPoly]:
    for e in (e1, e2):
        if not isinstance(e.degree, int) or e.degree <= 2:
            raise ValueError(f"{who} requires degree > 2 elements")
    return e1.to_weyl(), e2.to_weyl()


def identity_check(e1: SkewPoly, e2: SkewPoly) -> str:
    """"infinite" if a0·b0 != 0 and delta != 0 hold exactly at the identity
    frame, else "inconclusive".  Requires both degrees > 2."""
    x, y = _weyl_pair(e1, e2, "identity_check")
    return "inconclusive" if _evaluate_frame(x, y, None) is None else "infinite"


# ---------------------------------------------------------------------------
# Symplectic frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymplecticParams:
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


def cpoly_bracket(p: CPoly, q: CPoly) -> CPoly:
    out = cpoly_mul(p, q)
    for k, v in cpoly_mul(q, p).items():
        out[k] = out.get(k, 0j) - v
    return {k: v for k, v in out.items() if v}


def weyl_to_cpoly(x: WeylPoly) -> CPoly:
    return {k: complex(v) for k, v in x.terms.items()}


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

@dataclass
class IgusaCertificate:
    verdict: str  # always "infinite"
    params: Optional[SymplecticParams]  # None means the identity frame
    a0b0: complex
    delta: complex

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "sigma": self.params.to_json() if self.params else "identity",
            "a0b0": [self.a0b0.real, self.a0b0.imag],
            "delta": [self.delta.real, self.delta.imag],
        }


def _evaluate_frame(x: WeylPoly, y: WeylPoly,
                    params: Optional[SymplecticParams]) -> Optional[IgusaCertificate]:
    """The certificate of the pair at one frame, or None where the test
    fails there.  `params` None is the identity frame, evaluated exactly."""
    if params is None:
        a0, _ = leading_pair(x)
        b0, _ = leading_pair(y)
        prod, dlt = a0 * b0, delta(x, y)
        if prod and dlt:
            return IgusaCertificate("infinite", None, complex(prod), complex(dlt))
        return None
    frame = params.matrix()
    d1, a0, a1 = _frame_leading(x, frame)
    d2, b0, b1 = _frame_leading(y, frame)
    prod = a0 * b0
    dlt = d2 * a1 * b0 - d1 * a0 * b1
    if abs(prod) > NUMERIC_TOLERANCE and abs(dlt) > NUMERIC_TOLERANCE:
        return IgusaCertificate("infinite", params, prod, dlt)
    return None


def symplectic_search(e1: SkewPoly, e2: SkewPoly, samples: int = 256,
                      seed: int = 7) -> Optional[IgusaCertificate]:
    """Search for a frame certifying infinite-dimensionality.

    Schedule: identity frame (exact arithmetic), then the deterministic grid
    s in {±1/2, ±1} x phi, theta in {0, pi/2}, then `samples` seeded random
    draws.  Returns the first certificate found, or None.
    """
    x, y = _weyl_pair(e1, e2, "symplectic_search")
    grid = (SymplecticParams(s, phi, theta) for s in (0.5, -0.5, 1.0, -1.0)
            for phi in (0.0, math.pi / 2) for theta in (0.0, math.pi / 2))
    rng = random.Random(seed)
    draws = (SymplecticParams(rng.uniform(-1.5, 1.5),
                              rng.uniform(0.0, 2 * math.pi),
                              rng.uniform(0.0, 2 * math.pi))
             for _ in range(samples))
    for params in itertools.chain([None], grid, draws):
        cert = _evaluate_frame(x, y, params)
        if cert is not None:
            return cert
    return None


def verify_certificate(cert: IgusaCertificate, e1: SkewPoly,
                       e2: SkewPoly) -> bool:
    """Recompute the certified quantities from the stored frame."""
    if min(e1.degree, e2.degree) <= 2:
        return False
    fresh = _evaluate_frame(e1.to_weyl(), e2.to_weyl(), cert.params)
    if fresh is None:
        return False
    return (abs(fresh.a0b0 - cert.a0b0) < 1e-9
            and abs(fresh.delta - cert.delta) < 1e-9)


def chain_degrees(e1: SkewPoly, e2: SkewPoly,
                  params: Optional[SymplecticParams], steps: int = 5) -> List[int]:
    """Degrees of the commutator chain u <- [u, s] seeded at the second
    element, with s in {e1, e2} chosen at each step by the delta criterion
    in the frame.  A det-1 frame change is a degree-preserving automorphism,
    so the chain is bracketed exactly in the original frame.  Used to
    confirm certificates independently."""
    frame = params.matrix() if params else (1, 0, 0, 1)
    aux = [(e, _frame_leading(e.to_weyl(), frame)) for e in (e1, e2)]
    u = e2
    degrees = [u.degree]
    for _ in range(steps):
        du, u0, u1 = _frame_leading(u.to_weyl(), frame)
        s = next((e for e, (ds, s0, s1) in aux
                  if abs(ds * u1 * s0 - du * u0 * s1) > NUMERIC_TOLERANCE), None)
        if s is None:
            break
        u = bracket(u, s)
        degrees.append(u.degree)
    return degrees
