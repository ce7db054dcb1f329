"""Product-of-exponentials factorization of single-mode dynamics.

The controls drive the skew generators X_j of `weyl_core.CONTROL_GENERATORS`,

    iH(t) = sum_j u_j(t) X_j,   X1 = i a†a,  X2 = a - a†,  X3 = i(a + a†),
                                X4 = a² - a†²,  X5 = i(a² + a†²),

so H(t) = u1 a†a - i u2 (a - a†) + u3 (a + a†) - i u4 (a² - a†²)
+ u5 (a² + a†²) is hermitian.  The propagator ansatz is the ordered product

    U(t) = e^{-f1 X1} e^{-f2 X2} e^{-f3 X3} e^{-f4 X4} e^{-f5 X5} e^{-i f_phase}

(wh2 uses the first three factors only).  For wh2 the factor functions are
plain quadratures; for the full five-generator algebra they solve a coupled
ODE system integrated by fixed-step RK4.  Both are hand-derived inverses of
the forward map f, fdot -> u that `_reconstruct` computes from the exact
structure constants of the same generators; the residual compares the two.
The central (global-phase) factor is tracked separately and never enters
any fidelity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

from .fock_oracle import MIN_DIM, hermitian_generators
from .weyl_core import CONTROL_GENERATORS

N_CONTROLS = {name: len(X) for name, X in CONTROL_GENERATORS.items()}


@dataclass
class ControlSpec:
    """Sampled control functions on a uniform grid t_k = k h, k = 0..n_steps.

    `funcs`, when given, are the exact control callables used for dense
    evaluation (RK4 midpoints); otherwise a cubic spline through the samples
    is used.  The grid needs at least one step.
    """
    algebra: str
    h: float
    n_steps: int
    u: np.ndarray  # shape (n_controls, n_steps + 1)
    funcs: Optional[List[Callable[[float], float]]] = None

    def __post_init__(self):
        if self.algebra not in N_CONTROLS:
            raise ValueError(f"unknown algebra {self.algebra!r}")
        if not 0 < self.h < math.inf:
            raise ValueError("grid step must be positive and finite")
        if self.n_steps < 1:
            raise ValueError(
                f"the control grid has {self.n_steps} steps, it needs at "
                "least one: t_final >= h/2, or at least two samples")
        self.u = np.asarray(self.u, dtype=float)
        want = (N_CONTROLS[self.algebra], self.n_steps + 1)
        if self.u.shape != want:
            raise ValueError(f"control array shape {self.u.shape}, want {want}")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("controls must be finite-valued")
        self._spline = None
        self._stages = {}

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.h

    def _interpolant(self):
        if self._spline is None:
            # only raw-sample controls need the spline, so only they pay
            # for importing scipy.interpolate
            from scipy.interpolate import CubicSpline

            self._spline = CubicSpline(self.grid, self.u, axis=1)
        return self._spline

    def evaluate(self, t: float) -> np.ndarray:
        if self.funcs is not None:
            return np.array([f(t) for f in self.funcs])
        return self._interpolant()(t)

    def stage_samples(self, substeps: int) -> np.ndarray:
        """Controls at the RK4 stage times t_j = j h / (2 substeps),
        j = 0..2 substeps n_steps: the start, midpoint and end of every
        substep.  Shape (2 substeps n_steps + 1, n_controls), read-only.

        The samples are kept, so each control is sampled once per grid: a
        grid whose times are every k-th time of a kept grid, k a power of
        two, is read from it, because (j k)·(h / (2 k s)) == j·(h / (2 s))
        in floating point."""
        for kept, u in self._stages.items():
            k, rem = divmod(kept, substeps)
            if not rem and not k & (k - 1):
                return u[::k]
        m = 2 * substeps * self.n_steps + 1
        ts = np.arange(m) * (self.h / (2 * substeps))
        if self.funcs is None:
            out = self._interpolant()(ts).T
        else:
            out = np.empty((m, len(self.funcs)))
            times = ts.tolist()
            for j, f in enumerate(self.funcs):
                out[:, j] = [f(t) for t in times]
        out.flags.writeable = False
        self._stages[substeps] = out
        return out

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_funcs(algebra: str, funcs: Sequence[Callable], t_final: float,
                   h: float) -> "ControlSpec":
        n_steps = int(round(t_final / h))
        grid = np.arange(n_steps + 1) * h
        u = np.array([[f(t) for t in grid] for f in funcs])
        return ControlSpec(algebra, h, n_steps, u, funcs=list(funcs))

    @staticmethod
    def constant(algebra: str, values: Sequence[float], t_final: float,
                 h: float) -> "ControlSpec":
        return ControlSpec.from_funcs(
            algebra, [lambda t, v=v: float(v) for v in values], t_final, h
        )

    @staticmethod
    def from_json(obj: dict) -> "ControlSpec":
        algebra = obj["algebra"]
        h = float(obj["h"])
        if "preset" in obj:
            t_final = float(obj["t_final"])
            if obj["preset"] == "constant":
                return ControlSpec.constant(algebra, obj["values"], t_final, h)
            if obj["preset"] == "sinusoid":
                amps = obj["amplitudes"]
                freqs = obj["frequencies"]
                phases = obj.get("phases", [0.0] * len(amps))
                funcs = [
                    lambda t, A=A, w=w, p=p: A * math.sin(w * t + p)
                    for A, w, p in zip(amps, freqs, phases)
                ]
                return ControlSpec.from_funcs(algebra, funcs, t_final, h)
            raise ValueError(f"unknown preset {obj['preset']!r}")
        u = np.asarray(obj["controls"], dtype=float)
        if u.ndim != 2:
            raise ValueError("controls must be a list of sample rows, one "
                             "per control")
        return ControlSpec(algebra, h, u.shape[1] - 1, u)


@dataclass
class FactorSolution:
    algebra: str
    h: float
    f: np.ndarray      # shape (n_factors, n_steps + 1)
    fdot: np.ndarray   # same shape, stored derivatives
    phase: np.ndarray  # central-factor function, shape (n_steps + 1,)
    method: str        # "ClosedFormQuadrature" | "RK4"
    error_estimate: Optional[float] = None

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.f.shape[1]) * self.h


class SqueezeBlowUpError(RuntimeError):
    def __init__(self, step: int, t: float):
        super().__init__(
            f"factor ODE blew up at step {step} (t = {t:.6g}); the "
            "factorization only exists locally in time for these controls"
        )
        self.step = step
        self.t = t


def _cumquad(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral along the last axis from 0, on equal steps h.

    A copy of scipy.integrate.cumulative_simpson(y, dx=h, initial=0.0),
    operation for operation, so the result is the same to the bit: each
    interval's integral from the quadratic through it and the next sample,
    taken forward and over the reversed samples, interleaved and summed.
    Below three samples it is the trapezoid rule, as there.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1] < 3:
        parts = h * (y[..., 1:] + y[..., :-1]) / 2.0
    else:
        def simpson(v):
            return h / 3 * (5 * v[..., :-2] / 4 + 2 * v[..., 1:-1]
                            - v[..., 2:] / 4)

        forward = simpson(y)
        backward = simpson(y[..., ::-1])[..., ::-1]
        parts = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
        parts[..., :-1:2] = forward[..., ::2]
        parts[..., 1::2] = backward[..., ::2]
        parts[..., -1] = backward[..., -1]
    # scipy adds the initial value, which turns a -0.0 into 0.0
    return np.concatenate((np.zeros(y.shape[:-1] + (1,)),
                           np.cumsum(parts, axis=-1) + 0.0), axis=-1)


# ---------------------------------------------------------------------------
# wh2: closed-form quadratures
# ---------------------------------------------------------------------------

def wh2_factors(spec: ControlSpec) -> FactorSolution:
    """f1 = ∫u1, then a rotating-frame quadrature for the displacements and
    the phase quadrature  d(phase)/dt = 2 f2 df3/dt.

    Raises OverflowError at the first grid node where a factor or the phase
    leaves the float range."""
    if spec.algebra != "wh2":
        raise ValueError("wh2_factors requires a wh2 ControlSpec")
    u1, u2, u3 = spec.u
    h = spec.h
    with np.errstate(over="ignore", invalid="ignore"):
        f1 = _cumquad(u1, h)
        c, s = np.cos(f1), np.sin(f1)
        f2dot = c * u2 + s * u3
        f3dot = c * u3 - s * u2
        f2 = _cumquad(f2dot, h)
        f3 = _cumquad(f3dot, h)
        phase = _cumquad(2.0 * f2 * f3dot, h)
    f = np.vstack([f1, f2, f3])
    finite = np.isfinite(f).all(axis=0) & np.isfinite(phase)
    if not finite.all():
        k = int(np.argmin(finite))
        raise OverflowError(f"wh2 factors overflow at grid index {k} "
                            f"(t = {k * h:.6g})")
    fdot = np.vstack([u1, f2dot, f3dot])
    return FactorSolution(spec.algebra, h, f, fdot, phase,
                          "ClosedFormQuadrature")


# ---------------------------------------------------------------------------
# Five-generator system: RK4 on the inverted equations
# ---------------------------------------------------------------------------

def _rhs(f: Sequence[float], u: Sequence[float]) -> Tuple[float, ...]:
    """Right-hand side of the factor ODEs on Python floats: per call they
    cost a fraction of numpy scalars and arrays, with the same bits."""
    f1, f2, f3, f4, _ = f
    u1, u2, u3, u4, u5 = u
    th = math.tanh(4 * f4)
    ch = math.cosh(4 * f4)
    s1, c1 = math.sin(f1), math.cos(f1)
    s2, c2 = math.sin(2 * f1), math.cos(2 * f1)
    return (
        u1 - 2 * u4 * s2 * th + 2 * u5 * c2 * th,
        u2 * c1 + u3 * s1
        - 2 * u4 * (f3 * s2 * (1 + th) - f2 * c2)
        + 2 * u5 * (f3 * c2 * (1 + th) + f2 * s2),
        -u2 * s1 + u3 * c1
        - 2 * u4 * (f2 * s2 * (1 - th) + f3 * c2)
        + 2 * u5 * (f2 * c2 * (1 - th) - f3 * s2),
        u4 * c2 + u5 * s2,
        -u4 * s2 / ch + u5 * c2 / ch,
    )


def _integrate(spec: ControlSpec, substeps: int,
               u: np.ndarray) -> np.ndarray:
    """RK4 with `substeps` internal steps per grid interval; `u` holds the
    controls on their stage grid, `spec.stage_samples(substeps)`.  Returns
    f on the grid nodes.

    The state is a tuple of Python floats and every update is written out
    per component, in the order numpy's elementwise form evaluates it."""
    n = spec.n_steps
    hh = spec.h / substeps
    a, b, c = hh / 2, hh, hh / 6
    stages = u.tolist()
    f = (0.0,) * 5
    rows = [f]
    for k in range(n):
        try:
            for m in range(substeps):
                j = 2 * (k * substeps + m)
                start, mid, end = stages[j:j + 3]
                k1 = _rhs(f, start)
                k2 = _rhs([x + a * y for x, y in zip(f, k1)], mid)
                k3 = _rhs([x + a * y for x, y in zip(f, k2)], mid)
                k4 = _rhs([x + b * y for x, y in zip(f, k3)], end)
                f = tuple(x + c * (p + 2 * q + 2 * r + s)
                          for x, p, q, r, s in zip(f, k1, k2, k3, k4))
        except (OverflowError, ValueError):
            # a stage left the float range before the node check below:
            # cosh overflows, or sin and cos meet an infinite angle
            raise SqueezeBlowUpError(k + 1, (k + 1) * spec.h) from None
        if not all(map(math.isfinite, f)) or abs(4 * f[3]) > 350.0:
            raise SqueezeBlowUpError(k + 1, (k + 1) * spec.h)
        rows.append(f)
    return np.array(rows).T.copy()


def schrodinger_factors(spec: ControlSpec) -> FactorSolution:
    """RK4 integration of the inverted factor ODEs, with a step-halving
    error estimate and the adjoint phase quadrature."""
    if spec.algebra != "schrodinger":
        raise ValueError("schrodinger_factors requires a schrodinger spec")
    # the substep-1 stage grid is every other point of the substep-2 grid
    u = spec.stage_samples(2)
    f = _integrate(spec, 1, u[::2])
    f_half = _integrate(spec, 2, u)
    err = float(np.max(np.abs(f - f_half)))
    # the grid nodes are every fourth point of the substep-2 stage grid
    fdot = np.array([_rhs(fk, uk) for fk, uk in
                     zip(f.T.tolist(), u[::4].tolist())]).T.copy()
    phase = _phase_quadrature(f, fdot, spec.h)
    return FactorSolution(spec.algebra, spec.h, f, fdot, phase, "RK4",
                          error_estimate=err)


# ---------------------------------------------------------------------------
# Adjoint reconstruction (forward check and phase)
# ---------------------------------------------------------------------------

@functools.cache
def _adjoints() -> List[Tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]]:
    """(ad X_j, f ↦ exp(-f ad X_j)) for X1..X5 on the basis (i, X1..X5).

    The ad matrices are read, once, from the exact structure constants:
    (ad X_j)[k][l] = table[j, l][k].  The exponential map takes an array
    of n values of f to n 6 x 6 matrices: ad X2 and ad X3 are nilpotent
    (cube zero), so their series stops after the square; ad X1 (a
    rotation) and ad X4, ad X5 (boosts) are diagonalisable and are
    exponentiated through an eigendecomposition computed here.  Both agree
    with the exact exponential to 1e-14 relative to its largest entry for
    |f| <= 3, closer than scipy's expm there.
    """
    from .classify import StructureConstants
    from .lie_engine import LieSpan
    from .weyl_core import unit_i

    table = StructureConstants.from_span(LieSpan(
        (unit_i(), *CONTROL_GENERATORS["schrodinger"]))).table
    ads = np.zeros((6, 6, 6))
    for (j, l), v in table.items():
        for k, c in v.items():
            ads[j, k, l] = float(c)
    return [(ad, _exp_map(ad)) for ad in ads[1:]]


def _exp_map(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """f ↦ exp(-f A) on an array of f, for A nilpotent of index 3 or
    diagonalisable."""
    A2 = A @ A
    if not np.any(A2 @ A):
        half = A2 / 2
        return lambda f: (np.eye(len(A)) - f[:, None, None] * A
                          + (f * f)[:, None, None] * half)
    w, V = np.linalg.eig(A)
    Vinv = np.linalg.inv(V)
    return lambda f: ((V * np.exp(-np.multiply.outer(f, w))[:, None, :])
                      @ Vinv).real


def _reconstruct(f: np.ndarray, fdot: np.ndarray) -> np.ndarray:
    """Coordinates of sum_j fdot_j Ad(U1..U_{j-1}) X_j in the basis
    (i, X1..X5) at every grid point, shape (6, n): row 0 is the central
    component, rows 1.. are the reconstructed controls.  One batched
    adjoint exponential per factor covers the whole grid."""
    ads = _adjoints()
    n_factors, n = f.shape
    acc = np.zeros((6, n))
    left = np.broadcast_to(np.eye(6), (n, 6, 6))
    for j in range(n_factors):
        acc += fdot[j] * left[:, :, j + 1].T
        if j + 1 < n_factors:
            left = left @ ads[j][1](f[j])
    return acc


def _phase_quadrature(f: np.ndarray, fdot: np.ndarray, h: float) -> np.ndarray:
    return _cumquad(-_reconstruct(f, fdot)[0], h)


def reconstructed_controls(sol: FactorSolution) -> np.ndarray:
    """Controls implied by the factor functions via the adjoint product;
    independent of the hand-derived inverse the solvers integrate."""
    return _reconstruct(sol.f, sol.fdot)[1:1 + sol.f.shape[0]]


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def _fd4(f: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference derivative along the last axis."""
    n = f.shape[-1]
    if n < 5:
        return np.gradient(f, h, axis=-1)
    out = np.empty_like(f)
    out[..., 2:-2] = (f[..., :-4] - 8 * f[..., 1:-3]
                      + 8 * f[..., 3:-1] - f[..., 4:]) / (12 * h)
    # one-sided 5-point stencils at the edges, same order
    lo = (-25 * f[..., 0] + 48 * f[..., 1] - 36 * f[..., 2]
          + 16 * f[..., 3] - 3 * f[..., 4]) / (12 * h)
    lo1 = (-3 * f[..., 0] - 10 * f[..., 1] + 18 * f[..., 2]
           - 6 * f[..., 3] + f[..., 4]) / (12 * h)
    out[..., 0], out[..., 1] = lo, lo1
    hi = (25 * f[..., -1] - 48 * f[..., -2] + 36 * f[..., -3]
          - 16 * f[..., -4] + 3 * f[..., -5]) / (12 * h)
    hi1 = (3 * f[..., -1] + 10 * f[..., -2] - 18 * f[..., -3]
           + 6 * f[..., -4] - f[..., -5]) / (12 * h)
    out[..., -1], out[..., -2] = hi, hi1
    return out


def residual_check(spec: ControlSpec, sol: FactorSolution,
                   derivatives: str = "fd") -> float:
    """Max over the grid of |u_reconstructed - u_input|.

    u_reconstructed is the forward map of `reconstructed_controls`, read
    from the exact structure constants, so the residual checks the
    hand-derived inverse the solver integrated against an independent
    derivation.  `derivatives="fd"` differentiates the stored factor curves
    numerically, so the residual genuinely measures the integration error;
    `derivatives="stored"` uses the solver's own right-hand sides.
    """
    if sol.f.shape[1] != spec.n_steps + 1:
        raise ValueError("solution and spec grids differ")
    if derivatives == "fd":
        fdot = _fd4(sol.f, sol.h)
    elif derivatives == "stored":
        fdot = sol.fdot
    else:
        raise ValueError("derivatives must be 'fd' or 'stored'")
    u_rec = _reconstruct(sol.f, fdot)[1:1 + len(sol.f)]
    return float(np.max(np.abs(u_rec - spec.u)))


# ---------------------------------------------------------------------------
# Propagators
# ---------------------------------------------------------------------------

def factored_propagator(sol: FactorSolution, t_index: int,
                        N: int) -> np.ndarray:
    """Product of truncated single-generator exponentials at a grid index."""
    if N < MIN_DIM:
        raise ValueError(f"need N >= {MIN_DIM}")
    gens = hermitian_generators(sol.algebra, N)
    U = np.eye(N, dtype=complex)
    for f_j, H_j in zip(sol.f[:, t_index], gens):
        if f_j:
            U = U @ expm(-1j * f_j * H_j)
    return U * np.exp(-1j * sol.phase[t_index])
