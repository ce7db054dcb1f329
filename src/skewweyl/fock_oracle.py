"""Truncated Fock-space oracle: direct time-ordered propagation, the
reference `simulate` checks the Wei–Norman factors against.

Matrices act on the number basis |0>..|N-1> with a|n> = sqrt(n)|n-1>.
Truncation spills only upward through powers of a†, so any identity between
polynomials of total degree D is exact on the rows/columns with index
< N - D (the leak-free interior block), where the bracket and product
cross-checks of tests/test_fock_oracle.py assert.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np
from scipy.linalg.blas import zaxpy, zgbmv

from .weyl_core import CONTROL_GENERATORS, _normal_coeff

#: smallest truncation `direct_propagator` accepts
MIN_DIM = 16

#: RK4 steps of `direct_propagator` per grid interval, unless asked
RK4_SUBSTEPS = 4

#: RK4 steps of `direct_propagator` whose stage bands one matrix product
#: computes: enough to amortise it, few enough to stay in L2 (1 MB at N = 96)
_STAGED_STEPS = 64


def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, marked read-only: what a cache hands out is shared."""
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=8)
def _band_table(algebra: str, N: int) -> np.ndarray:
    """-i H_j = -X_j in LAPACK band storage, one generator after another:
    entry [j, c, b - d] is -i H_j[c - d, c] for column c and the offsets
    d = -b..b, b the algebra's own half-width (the largest α - β of a key
    g±^(α,β) of its X_j), zero where c - d leaves the truncation.  Shape
    (n_generators, N, 2b + 1); the transpose of a slab [j] is the
    Fortran-ordered (2b + 1, N) array that BLAS `zgbmv` reads with b sub-
    and superdiagonals.  Read from the skew keys of the X_j in
    `weyl_core.CONTROL_GENERATORS` by `_normal_coeff`: a term c (a†)^p a^q
    maps |m + q> to c √(m+1)⋯√(m+p)·√(m+1)⋯√(m+q) |m + p>.  Cached and
    read-only."""
    if algebra not in CONTROL_GENERATORS:
        raise ValueError(f"unknown algebra {algebra!r}")
    gens = CONTROL_GENERATORS[algebra]
    if N <= (d := max(X.degree for X in gens)):
        raise ValueError(f"truncation dim {N} must exceed degree {d}")
    b = max(alpha - beta for X in gens for _, (alpha, beta) in X.terms)
    root = np.sqrt(np.arange(N))
    table = np.zeros((len(gens), N, 2 * b + 1), dtype=complex)
    for j, X in enumerate(gens):
        for p, q in np.ndindex(d + 1, d + 1):
            if any(c := _normal_coeff(X.terms, p, q)):
                m = np.arange(N - max(p, q))
                w = root[m[:, None] + np.r_[1:p + 1, 1:q + 1]].prod(axis=1)
                table[j, m + q, b + p - q] -= complex(*c) * w
    return read_only(table)


def _dense(bands: np.ndarray) -> np.ndarray:
    """The N x N matrices that `bands` holds as `_band_table` does."""
    N, b = bands.shape[-2], bands.shape[-1] // 2
    out = np.zeros(bands.shape[:-1] + (N,), dtype=complex)
    for d in range(-b, b + 1):
        cols = np.arange(max(0, d), min(N, N + d))
        out[..., cols - d, cols] = bands[..., cols, b - d]
    return out


def hermitian_generators(algebra: str, N: int) -> Tuple[np.ndarray, ...]:
    """Hermitian control generators H_j = -i X_j, so that H(t) =
    sum u_j(t) H_j: wh2 -> (a†a, -i(a-a†), a+a†); schrodinger adds
    (-i(a²-a†²), a²+a†²).  Written out from `_band_table` on each call."""
    return tuple(_dense(1j * _band_table(algebra, N)))


class UnitarityDriftError(RuntimeError):
    def __init__(self, drift: float, step: int):
        super().__init__(
            f"unitarity drift {drift:.3e} at step {step}; "
            "reduce the step size or enlarge the truncation"
        )
        self.drift = drift
        self.step = step


def state_columns(psi0, N: int) -> Tuple[np.ndarray, tuple]:
    """`psi0`, an N-vector or an N x k block, as a complex N x k copy, and
    its shape; None means the identity."""
    Y = np.eye(N, dtype=complex) if psi0 is None else \
        np.array(psi0, dtype=complex)
    if Y.ndim not in (1, 2) or Y.shape[0] != N:
        raise ValueError(f"psi0 must be an N-vector or N x k block, N = {N}")
    return Y.reshape(N, -1), Y.shape


def direct_propagator(spec, N: int, *, psi0=None,
                      substeps: int = RK4_SUBSTEPS) -> np.ndarray:
    """Time-ordered propagation by RK4 on dY/dt = -i H(t) Y, Y(0) = psi0.

    `psi0` is an N-vector or an N x k block of columns and the result has
    its shape; None means the identity, so the result is the full
    propagator U.

    `spec` is a wei_norman.ControlSpec; the controls are sampled once on the
    RK4 stage grid, by the spec's sampler or its spline through the raw
    samples, so that half-step samples keep fourth order.  `substeps`
    subdivides each grid interval: the stability-limited error scales with
    (h·N/substeps)^5 because the number operator's top eigenvalue grows
    with the truncation.

    The stage samples select one of two ways to take the same n RK4 steps:

    - controls that differ anywhere on the stage grid: every generator lies
      within the band of `_band_table` in the number basis, so
      -i H(t) is a band matrix, the columns of Y are independent, and each
      is stepped on its own by 4 `zgbmv` and 4 `zaxpy` calls a step,
      O(N) per stage (`_rk4_steps`);
    - controls equal at every stage time: each step then applies the same
      matrix, the degree-4 Taylor polynomial T4(z) of z = -i h H, so one
      `eigh` of the dense H = V diag(λ) V† gives Y = V diag(T4(-i h λ)^n)
      V† psi0 without stepping.

    Raises UnitarityDriftError when the Gram matrix Y†Y of the columns that
    start with zero weight in the top four levels moves by more than 1e-6
    from its initial value: for psi0=None the leak-free block of U†U, for
    one state its norm.  Columns that start in the top levels are not
    checked.
    """
    if N < MIN_DIM:
        raise ValueError(f"need N >= {MIN_DIM}")
    Y0, shape = state_columns(psi0, N)
    u = spec.stage_samples(substeps)
    h = spec.h / substeps
    n_steps = spec.n_steps * substeps
    if (u == u[0]).all():
        # an overflow turns Y into NaN, which the drift guard reports
        with np.errstate(over="ignore", invalid="ignore"):
            Y = _rk4_power(spec.algebra, u[0], N, Y0, h, n_steps)
    else:
        Y = _rk4_steps(spec.algebra, u, N, Y0, h, n_steps)
    _check_drift(Y, Y0, n_steps)
    return Y.reshape(shape).copy()


def _rk4_steps(algebra: str, u: np.ndarray, N: int, Y0: np.ndarray,
               h: float, n_steps: int) -> np.ndarray:
    """n RK4 steps of each column of Y0 by BLAS on the banded -i H(t),
    the controls `u` sampled on the stage grid.  At these sizes the calls,
    not the arithmetic, take most of a step's time, so a step is 4 `zgbmv`
    and 4 `zaxpy` calls with positional arguments and no copy: with A_s,
    A_m, A_e the bands at its start, midpoint and end, each stage argument
    a2 = y + h/2 A_s y, a3 = y + h/2 A_m a2, a4 = y + h A_m a3 is one
    `zgbmv` with y as its beta term, and y += h/6 A_e a4 + D/3 with
    D = a2 + 2 a3 + a4 - 4 y = h/2 (k1 + 2 k2 + 2 k3), so that only the
    increment, not the state, is scaled by the inexact 1/3."""
    table = _band_table(algebra, N)
    b, w = table.shape[-1] // 2, table.shape[-1]  # sub-/superdiagonals, rows
    table = table.reshape(-1, N * w).view(float)
    h2, h6, third = h / 2, h / 6, 1 / 3
    # one contiguous row y per column of Y, stepped in place: zaxpy, and
    # zgbmv given overwrite_y (after incy, offy, trans), write into y
    rows = Y0.T.copy()
    for s0 in range(0, n_steps, _STAGED_STEPS):
        s1 = min(s0 + _STAGED_STEPS, n_steps)
        # -i H at the stage times j h/2 of these steps, by a real product
        # (the controls are real) on the (re, im) view of the table, each
        # a Fortran-ordered (w, N) band; a step's end is the next's start
        bands = (u[2 * s0:2 * s1 + 1] @ table).view(complex) \
            .reshape(-1, N, w).transpose(0, 2, 1)
        for y in rows:
            stages = iter(bands)
            end = next(stages)
            for mid, nxt in zip(stages, stages):
                start, end = end, nxt
                a2 = zgbmv(N, N, b, b, h2, start, y, 1, 0, 1.0, y)
                a3 = zgbmv(N, N, b, b, h2, mid, a2, 1, 0, 1.0, y)
                a4 = zgbmv(N, N, b, b, h, mid, a3, 1, 0, 1.0, y)
                # a2 becomes D
                zaxpy(a3, a2, N, 2.0)
                zaxpy(a4, a2, N)
                zaxpy(y, a2, N, -4.0)
                zgbmv(N, N, b, b, h6, end, a4, 1, 0, 1.0, y, 1, 0, 0, 1)
                zaxpy(a2, y, N, third)
    return rows.T


def _rk4_power(algebra: str, u0: np.ndarray, N: int, Y0: np.ndarray,
               h: float, n_steps: int) -> np.ndarray:
    """n RK4 steps of Y0 under the constant controls `u0`.  One step is
    the matrix T4(z) = 1 + z + z²/2 + z³/6 + z⁴/24 of z = -i h H, so n
    steps are T4(z)^n, applied in the eigenbasis of the hermitian H, whose
    band is the controls' combination of the `_band_table` slabs."""
    H = _dense(1j * np.tensordot(u0, _band_table(algebra, N), 1))
    lam, V = np.linalg.eigh(H)
    z = -1j * h * lam
    step = 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))
    return (V * step ** n_steps) @ (V.conj().T @ Y0)


def _check_drift(Y: np.ndarray, Y0: np.ndarray, n_steps: int) -> None:
    """The unitarity guard of `direct_propagator`: the Gram matrix of the
    columns of Y0 with zero weight in the top four levels, against Y."""
    interior = ~np.any(Y0[-4:], axis=0)
    if np.any(interior):
        Yi, Y0i = Y[:, interior], Y0[:, interior]
        drift = float(np.max(np.abs(Yi.conj().T @ Yi - Y0i.conj().T @ Y0i)))
        if not drift <= 1e-6:  # a NaN drift fails too
            raise UnitarityDriftError(drift, n_steps)


def state_fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """|<psi|phi>|² with both states normalized (global phase dropped)."""
    psi = psi / np.linalg.norm(psi)
    phi = phi / np.linalg.norm(phi)
    return float(abs(np.vdot(psi, phi)) ** 2)
