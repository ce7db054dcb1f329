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
structure constants of the same generators.  A `FactorSolution` forms that
map's adjoint frames from f once; its central row gives the phase of both
algebras, and the residual compares the other rows with the controls.
The central (global-phase) factor never enters any fidelity.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .fock_oracle import (MIN_DIM, hermitian_generators, read_only,
                          state_columns)
from .weyl_core import CONTROL_GENERATORS, unit_i

N_CONTROLS = {name: len(X) for name, X in CONTROL_GENERATORS.items()}


def _real(x) -> float:
    """A number of a controls file as a float: a JSON number, which
    arithmetic with it converts to the same float.  Anything else, a
    numeric string or a bool included, is a TypeError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def _per_control(algebra: str, preset: str, **fields) -> List[np.ndarray]:
    """A preset's parameter lists, each named by its field, as float
    arrays, one entry per control."""
    n = N_CONTROLS.get(algebra)
    for what, xs in fields.items():
        if not isinstance(xs, (list, tuple)):
            raise ValueError(f"{what} must be a list, one number per control")
        if n and len(xs) != n:
            raise ValueError(f"the {preset} preset of {algebra} needs {n} "
                             f"{what}: one per control")
    return [np.array([_real(x) for x in xs]) for xs in fields.values()]


def _check_step(h: float) -> None:
    if not 0 < h < math.inf:
        raise ValueError("grid step must be positive and finite")


@dataclass
class ControlSpec:
    """Sampled control functions on a uniform grid t_k = k h, k = 0..n_steps.

    `sampler` maps an array of times to the controls at them, shape
    (len(times), n_controls), and serves dense evaluation (RK4 midpoints).
    `constant` and `sinusoid` build it as one numpy expression over all
    controls, `from_funcs` as a loop over the times on Python floats; a
    spec built from raw samples alone gets the cubic spline through them.
    The grid needs at least one step.
    """
    algebra: str
    h: float
    n_steps: int
    u: np.ndarray  # shape (n_controls, n_steps + 1)
    sampler: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.algebra not in N_CONTROLS:
            raise ValueError(f"unknown algebra {self.algebra!r}")
        _check_step(self.h)
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
        if self.sampler is None:
            # only raw-sample controls need the spline, so only they pay
            # for importing scipy.interpolate
            from scipy.interpolate import CubicSpline

            spline = CubicSpline(self.grid, self.u, axis=1)
            self.sampler = lambda ts: spline(ts).T

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.h

    def evaluate(self, t: float) -> np.ndarray:
        return self.sampler(np.array([t]))[0]

    def stage_samples(self, substeps: int) -> np.ndarray:
        """Controls at the RK4 stage times t_j = j h / (2 substeps),
        j = 0..2 substeps n_steps: the start, midpoint and end of every
        substep.  Shape (2 substeps n_steps + 1, n_controls), a fresh
        read-only array of one call of the sampler."""
        if substeps < 1:
            raise ValueError(f"substeps must be at least 1, not {substeps}")
        m = 2 * substeps * self.n_steps + 1
        return read_only(self.sampler(np.arange(m)
                                      * (self.h / (2 * substeps))))

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_sampler(algebra: str, sampler: Callable, t_final: float,
                     h: float) -> "ControlSpec":
        """The spec of `sampler`, sampled on the grid of step h that ends
        nearest t_final."""
        _check_step(h)
        if not math.isfinite(t_final):
            raise ValueError("t_final must be finite")
        steps = t_final / h
        if not math.isfinite(steps):
            raise ValueError("the step count t_final / h overflows")
        n_steps = int(round(steps))
        u = sampler(np.arange(n_steps + 1) * h).T
        return ControlSpec(algebra, h, n_steps, u, sampler)

    @staticmethod
    def from_funcs(algebra: str, funcs: Sequence[Callable], t_final: float,
                   h: float) -> "ControlSpec":
        funcs = list(funcs)
        return ControlSpec.from_sampler(
            algebra,
            lambda ts: np.array([[f(t) for f in funcs] for t in ts.tolist()],
                                dtype=float),
            t_final, h)

    @staticmethod
    def constant(algebra: str, values: Sequence[float], t_final: float,
                 h: float) -> "ControlSpec":
        v, = _per_control(algebra, "constant", values=values)
        return ControlSpec.from_sampler(
            algebra, lambda ts: np.tile(v, (len(ts), 1)), t_final, h)

    @staticmethod
    def from_json(obj: dict) -> "ControlSpec":
        algebra = obj["algebra"]
        h = _real(obj["h"])
        if "preset" in obj:
            t_final = _real(obj["t_final"])
            if obj["preset"] == "constant":
                return ControlSpec.constant(algebra, obj["values"], t_final, h)
            if obj["preset"] == "sinusoid":
                A, w = _per_control(algebra, "sinusoid",
                                    amplitudes=obj["amplitudes"],
                                    frequencies=obj["frequencies"])
                p, = _per_control(algebra, "sinusoid",
                                  phases=obj.get("phases", [0.0] * len(A)))

                def sinusoid(ts):
                    # u_j(t) = A_j sin(w_j t + p_j), by the operations of
                    # the expression at one time, in the same order; past
                    # the float range it turns NaN, which ControlSpec
                    # rejects
                    with np.errstate(over="ignore", invalid="ignore"):
                        return A * np.sin(ts[:, None] * w + p)

                return ControlSpec.from_sampler(algebra, sinusoid, t_final, h)
            raise ValueError(f"unknown preset {obj['preset']!r}")
        rows = obj["controls"]
        if not (isinstance(rows, list) and rows
                and all(isinstance(row, list) for row in rows)):
            raise ValueError("controls must be a list of sample rows, one "
                             "per control")
        if not all(rows):
            raise ValueError("the control grid needs at least two samples: "
                             "a sample row is empty")
        u = np.array([[_real(x) for x in row] for row in rows])
        return ControlSpec(algebra, h, u.shape[1] - 1, u)


@dataclass(frozen=True)
class FactorSolution:
    """Factor functions on the grid, with the `_adjoint_frames` of f that
    the residual reads too and the phase, the integral of minus the central
    row of `_reconstruct`: read-only copies, which `dataclasses.replace`
    forms again.  Raises OverflowError at the first grid node where a
    factor or the phase leaves the float range."""
    algebra: str
    h: float
    f: np.ndarray      # shape (n_factors, n_steps + 1)
    fdot: np.ndarray   # same shape, stored derivatives
    method: str        # "ClosedFormQuadrature" | "RK4"
    error_estimate: Optional[float] = None
    frames: np.ndarray = field(init=False, repr=False)  # (n_factors, 6, n)
    phase: np.ndarray = field(init=False)  # central factor, (n_steps + 1,)

    def __post_init__(self):
        f, fdot = (read_only(np.array(a, dtype=float, order="C"))
                   for a in (self.f, self.fdot))
        # past the float range the frames and the phase turn inf or NaN,
        # which the check below reports
        with np.errstate(over="ignore", invalid="ignore"):
            frames = read_only(_adjoint_frames(f))
            phase = read_only(_cumquad(-_reconstruct(frames, fdot)[0],
                                       self.h))
        finite = np.isfinite(f).all(axis=0) & np.isfinite(phase)
        if not finite.all():
            k = int(np.argmin(finite))
            raise OverflowError(f"{self.algebra} factors overflow at grid "
                                f"index {k} (t = {k * self.h:.6g})")
        # frozen: the fields are set past __setattr__
        vars(self).update(f=f, fdot=fdot, frames=frames, phase=phase)

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
    """f1 = ∫u1, then a rotating-frame quadrature for the displacements.

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
    return FactorSolution(spec.algebra, h, np.vstack([f1, f2, f3]),
                          np.vstack([u1, f2dot, f3dot]),
                          "ClosedFormQuadrature")


# ---------------------------------------------------------------------------
# Five-generator system: RK4 on the inverted equations
# ---------------------------------------------------------------------------

def _rhs(f1: float, f2: float, f3: float, f4: float, u1: float, u2: float,
         u3: float, u4: float, u5: float) -> Tuple[float, ...]:
    """Right-hand side of the factor ODEs at the factors f1..f4 and the
    controls u1..u5; f5 does not enter it.  Python floats passed one by
    one: per call they cost a fraction of numpy scalars and arrays, with
    the same bits."""
    x, y = 4 * f4, 2 * f1
    th, ch = math.tanh(x), math.cosh(x)
    s1, c1 = math.sin(f1), math.cos(f1)
    s2, c2 = math.sin(y), math.cos(y)
    # each repeated operand formed once: the same operations, in the same
    # order, as the expression written out in full
    v4, v5 = 2 * u4, 2 * u5
    plus, minus = 1 + th, 1 - th
    return (
        u1 - v4 * s2 * th + v5 * c2 * th,
        u2 * c1 + u3 * s1
        - v4 * (f3 * s2 * plus - f2 * c2)
        + v5 * (f3 * c2 * plus + f2 * s2),
        -u2 * s1 + u3 * c1
        - v4 * (f2 * s2 * minus + f3 * c2)
        + v5 * (f2 * c2 * minus - f3 * s2),
        u4 * c2 + u5 * s2,
        -u4 * s2 / ch + u5 * c2 / ch,
    )


def _rk4(spec: ControlSpec, substeps: int, u: np.ndarray,
         node_rhs: bool = False) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """RK4 with `substeps` internal steps per grid interval; `u` holds the
    controls on their stage grid, `spec.stage_samples(substeps)`.  Returns
    f on the grid nodes and, if `node_rhs`, the first-stage right-hand
    side of every grid interval, which is the derivative at its start node.

    The state is five Python floats and every update is written out per
    component, in the order numpy's elementwise form evaluates it; f5 does
    not enter the right-hand side, so the stages leave it out.  The stage
    rows are walked by one iterator and unpacked once each, so every
    `_rhs` call passes its nine arguments by position."""
    n = spec.n_steps
    hh = spec.h / substeps
    a, b, c = hh / 2, hh, hh / 6
    stages = iter(u.tolist())
    e1, e2, e3, e4, e5 = next(stages)
    f1 = f2 = f3 = f4 = f5 = 0.0
    rows = [(f1, f2, f3, f4, f5)]
    starts = [] if node_rhs else None
    rhs = _rhs
    for k in range(n):
        try:
            for sub in range(substeps):
                m1, m2, m3, m4, m5 = next(stages)
                p1, p2, p3, p4, p5 = p = rhs(f1, f2, f3, f4,
                                             e1, e2, e3, e4, e5)
                if starts is not None and not sub:
                    # its floats, not the tuple: a freed tuple would stay
                    # on the interpreter's free list
                    starts += p
                e1, e2, e3, e4, e5 = next(stages)
                q1, q2, q3, q4, q5 = rhs(f1 + a * p1, f2 + a * p2,
                                         f3 + a * p3, f4 + a * p4,
                                         m1, m2, m3, m4, m5)
                r1, r2, r3, r4, r5 = rhs(f1 + a * q1, f2 + a * q2,
                                         f3 + a * q3, f4 + a * q4,
                                         m1, m2, m3, m4, m5)
                s1, s2, s3, s4, s5 = rhs(f1 + b * r1, f2 + b * r2,
                                         f3 + b * r3, f4 + b * r4,
                                         e1, e2, e3, e4, e5)
                f1 = f1 + c * (p1 + 2 * q1 + 2 * r1 + s1)
                f2 = f2 + c * (p2 + 2 * q2 + 2 * r2 + s2)
                f3 = f3 + c * (p3 + 2 * q3 + 2 * r3 + s3)
                f4 = f4 + c * (p4 + 2 * q4 + 2 * r4 + s4)
                f5 = f5 + c * (p5 + 2 * q5 + 2 * r5 + s5)
        except (OverflowError, ValueError):
            # a stage left the float range before the node check below:
            # cosh overflows, or sin and cos meet an infinite angle
            raise SqueezeBlowUpError(k + 1, (k + 1) * spec.h) from None
        row = (f1, f2, f3, f4, f5)
        if not all(map(math.isfinite, row)) or abs(4 * f4) > 350.0:
            raise SqueezeBlowUpError(k + 1, (k + 1) * spec.h)
        rows.append(row)
    f = np.array(rows).T.copy()
    if starts is None:
        return f, None
    # the last node starts no interval
    starts += rhs(f1, f2, f3, f4, e1, e2, e3, e4, e5)
    return f, np.array(starts).reshape(-1, 5).T


def schrodinger_factors(spec: ControlSpec) -> FactorSolution:
    """RK4 integration of the inverted factor ODEs, with a step-halving
    error estimate."""
    if spec.algebra != "schrodinger":
        raise ValueError("schrodinger_factors requires a schrodinger spec")
    # the substep-1 stage grid is every other point of the substep-2 grid
    u = spec.stage_samples(2)
    f, fdot = _rk4(spec, 1, u[::2], node_rhs=True)
    f_half = _rk4(spec, 2, u)[0]
    err = float(np.max(np.abs(f - f_half)))
    return FactorSolution(spec.algebra, spec.h, f, fdot, "RK4",
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


def _adjoint_frames(f: np.ndarray) -> np.ndarray:
    """Column j + 1 of Ad(U1..U_j-1) in the basis (i, X1..X5) at every grid
    point, for each factor j: shape (n_factors, 6, n).  They depend on f
    alone.  One batched adjoint exponential per factor covers the whole
    grid."""
    ads = _adjoints()
    n_factors, n = f.shape
    frames = np.empty((n_factors, 6, n))
    left = np.broadcast_to(np.eye(6), (n, 6, 6))
    for j in range(n_factors):
        frames[j] = left[:, :, j + 1].T
        if j + 1 < n_factors:
            left = left @ ads[j][1](f[j])
    return frames


def _reconstruct(frames: np.ndarray, fdot: np.ndarray) -> np.ndarray:
    """Coordinates of sum_j fdot_j Ad(U1..U_{j-1}) X_j in the basis
    (i, X1..X5) at every grid point, shape (6, n), from the
    `_adjoint_frames` of f: row 0 is the central component, rows 1.. are
    the reconstructed controls."""
    acc = np.zeros(frames.shape[1:])
    for frame, d in zip(frames, fdot):
        acc += d * frame
    return acc


def reconstructed_controls(sol: FactorSolution) -> np.ndarray:
    """Controls implied by the factor functions via the adjoint product;
    independent of the hand-derived inverse the solvers integrate."""
    return _reconstruct(sol.frames, sol.fdot)[1:1 + sol.f.shape[0]]


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


def residual_check(spec: ControlSpec, sol: FactorSolution) -> float:
    """Max over the grid of |u_reconstructed - u_input|.

    u_reconstructed is the forward map of `reconstructed_controls`, read
    from the exact structure constants, so the residual checks the
    hand-derived inverse the solver integrated against an independent
    derivation.  It differentiates the stored factor curves numerically,
    so the residual genuinely measures the integration error; the
    solver's own right-hand sides give `reconstructed_controls`.
    """
    if sol.f.shape[1] != spec.n_steps + 1:
        raise ValueError("solution and spec grids differ")
    u_rec = _reconstruct(sol.frames, _fd4(sol.f, sol.h))[1:1 + len(sol.f)]
    return float(np.max(np.abs(u_rec - spec.u)))


# ---------------------------------------------------------------------------
# Propagators
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _generator_eighs(algebra: str, N: int) -> Tuple[tuple, ...]:
    """(λ, V) with H_j = V diag(λ) V† for each hermitian control generator,
    read-only: one `eigh` per (algebra, N) and generator."""
    return tuple(tuple(read_only(x) for x in np.linalg.eigh(H))
                 for H in hermitian_generators(algebra, N))


def expm(f: float, eig: tuple, Y: np.ndarray) -> np.ndarray:
    """exp(-i f H_j) Y for the columns of Y, the exponential of one
    control generator from its eigendecomposition eig = (λ, V)."""
    lam, V = eig
    return V @ (np.exp(-1j * f * lam)[:, None] * (V.conj().T @ Y))


def factored_propagator(sol: FactorSolution, t_index: int, N: int, *,
                        psi0=None) -> np.ndarray:
    """U psi0 for the product U of truncated single-generator exponentials
    at a grid index, the factors applied from the right to `psi0`, an
    N-vector or an N x k block; None means the identity, so the result is
    U itself."""
    if N < MIN_DIM:
        raise ValueError(f"need N >= {MIN_DIM}")
    Y, shape = state_columns(psi0, N)
    factors = list(zip(sol.f[:, t_index].tolist(),
                       _generator_eighs(sol.algebra, N)))
    for f_j, eig in reversed(factors):
        if f_j:
            Y = expm(f_j, eig, Y)
    return (Y * np.exp(-1j * sol.phase[t_index])).reshape(shape)
