"""Truncated Fock-space oracle: independent floating-point checks of the
symbolic engine and direct time-ordered propagation.

Matrices act on the number basis |0>..|N-1> with a|n> = sqrt(n)|n-1>.
Truncation spills only upward through powers of a†, so any identity between
polynomials of total degree D is exact on the rows/columns with index
< N - D (the leak-free interior block); all cross-checks assert there.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np
from scipy.linalg.blas import zaxpy, zgbmv

from .weyl_core import CONTROL_GENERATORS, NEG_INF, WeylPoly

#: smallest truncation `direct_propagator` accepts
MIN_DIM = 16

#: RK4 steps of `direct_propagator` per grid interval, unless asked
RK4_SUBSTEPS = 4

#: half-width of the band of every control generator in the number basis:
#: a term a†^α a^β (α >= β) of X_j fills the diagonals ±(α - β)
BAND = max(alpha - beta for gens in CONTROL_GENERATORS.values()
           for X in gens for _, (alpha, beta) in X.terms)

#: RK4 steps of `direct_propagator` whose stage bands one matrix product
#: computes: enough to amortise the call, few enough to stay in cache
_STAGED_STEPS = 256


def annihilator(N: int) -> np.ndarray:
    a = np.zeros((N, N), dtype=complex)
    n = np.arange(1, N)
    a[n - 1, n] = np.sqrt(n)
    return a


def fock_matrix(p: WeylPoly, N: int) -> np.ndarray:
    """Matrix of a normal-ordered polynomial in the truncated number basis."""
    d = p.degree
    if d is not NEG_INF and N <= d:
        raise ValueError(f"truncation dim {N} must exceed degree {d}")
    a = annihilator(N)
    ad = a.conj().T
    # cache powers, from the zeroth
    a_pows = [np.eye(N, dtype=complex), a]
    for _ in range(1, max((b for _, b in p.terms), default=0)):
        a_pows.append(a_pows[-1] @ a)
    ad_pows = [a_pows[0], ad]
    for _ in range(1, max((al for al, _ in p.terms), default=0)):
        ad_pows.append(ad_pows[-1] @ ad)
    out = np.zeros((N, N), dtype=complex)
    for (alpha, beta), c in p.terms.items():
        # a term with one exponent 0 is the other power itself, not its
        # product with the identity
        if alpha and beta:
            m = ad_pows[alpha] @ a_pows[beta]
        else:
            m = ad_pows[alpha] if alpha else a_pows[beta]
        out += complex(c) * m
    return out


def interior_error(M: np.ndarray, total_degree: int) -> float:
    """Max magnitude on the leak-free block rows/cols < N - total_degree."""
    N = M.shape[0]
    k = N - total_degree
    if k <= 0:
        raise ValueError("truncation too small for the requested degrees")
    return float(np.max(np.abs(M[:k, :k])))


def commutator_crosscheck(p: WeylPoly, q: WeylPoly, N: int) -> float:
    """Max interior-block deviation between the symbolic commutator and the
    matrix commutator."""
    dp = 0 if p.degree is NEG_INF else p.degree
    dq = 0 if q.degree is NEG_INF else q.degree
    if N < dp + dq + 2:
        raise ValueError("need N >= deg p + deg q + 2")
    Mp, Mq = fock_matrix(p, N), fock_matrix(q, N)
    Mc = fock_matrix(p.commutator(q), N)
    return interior_error(Mc - (Mp @ Mq - Mq @ Mp), dp + dq)


def product_crosscheck(p: WeylPoly, q: WeylPoly, N: int) -> float:
    """Same leak-free comparison for the associative product."""
    dp = 0 if p.degree is NEG_INF else p.degree
    dq = 0 if q.degree is NEG_INF else q.degree
    if N < dp + dq + 2:
        raise ValueError("need N >= deg p + deg q + 2")
    return interior_error(
        fock_matrix(p * q, N) - fock_matrix(p, N) @ fock_matrix(q, N), dp + dq
    )


# ---------------------------------------------------------------------------
# Hamiltonians and direct propagation
# ---------------------------------------------------------------------------

def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, marked read-only: what a cache hands out is shared."""
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=8)
def hermitian_generators(algebra: str, N: int) -> Tuple[np.ndarray, ...]:
    """Hermitian control generators H_j = -i X_j, so that
    H(t) = sum u_j(t) H_j, as N x N matrices of the exact skew generators
    X_j in `weyl_core.CONTROL_GENERATORS`: wh2 -> (a†a, -i(a-a†), a+a†);
    schrodinger adds (-i(a²-a†²), a²+a†²).  Cached per (algebra, N), and
    read-only."""
    if algebra not in CONTROL_GENERATORS:
        raise ValueError(f"unknown algebra {algebra!r}")
    return tuple(read_only(-1j * fock_matrix(X.to_weyl(), N))
                 for X in CONTROL_GENERATORS[algebra])


class UnitarityDriftError(RuntimeError):
    def __init__(self, drift: float, step: int):
        super().__init__(
            f"unitarity drift {drift:.3e} at step {step}; "
            "reduce the step size or enlarge the truncation"
        )
        self.drift = drift
        self.step = step


@functools.lru_cache(maxsize=8)
def _band_table(algebra: str, N: int) -> np.ndarray:
    """-i H_j in LAPACK band storage, one generator after another: entry
    [j, c, BAND - d] is -i H_j[c - d, c] for column c and the offsets
    d = -BAND..BAND, zero where c - d leaves the truncation.  Shape
    (n_generators, N, 2 BAND + 1); the transpose of a slab [j] is the
    Fortran-ordered (2 BAND + 1, N) array that BLAS `zgbmv` reads with
    BAND sub- and superdiagonals.  Cached per (algebra, N), and
    read-only."""
    gens = np.stack(hermitian_generators(algebra, N))
    table = np.zeros((len(gens), N, 2 * BAND + 1), dtype=complex)
    for d in range(-BAND, BAND + 1):
        cols = np.arange(max(0, d), min(N, N + d))
        table[:, cols, BAND - d] = -1j * gens[:, cols - d, cols]
    return read_only(table)


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
    RK4 stage grid (exact callables, or its interpolant) so that half-step
    samples keep fourth order.  `substeps` subdivides each grid interval:
    the stability-limited error scales with (h·N/substeps)^5 because the
    number operator's top eigenvalue grows with the truncation.

    The stage samples select one of two ways to take the same n RK4 steps:

    - controls that differ anywhere on the stage grid: every generator lies
      within `BAND` diagonals of the main one in the number basis, so
      -i H(t) is a band matrix, the columns of Y are independent, and each
      is stepped on its own by BLAS, `zgbmv` for a stage derivative and
      `zaxpy` for the stage arguments and the update, O(N) per stage;
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
    the controls `u` sampled on the stage grid.  The steps walk the stage
    bands by one iterator and call BLAS with positional arguments: at these
    sizes the calls, not the arithmetic, take most of a step's time."""
    b, w = BAND, 2 * BAND + 1  # sub- and superdiagonals, band rows
    table = _band_table(algebra, N).reshape(-1, N * w)
    h2, h6 = h / 2, h / 6
    # one contiguous row y per column of Y, stepped in place: zaxpy writes
    # the sum into its y argument when that is a contiguous complex array
    rows = Y0.T.copy()
    for s0 in range(0, n_steps, _STAGED_STEPS):
        s1 = min(s0 + _STAGED_STEPS, n_steps)
        # -i H at the stage times j h/2 of these steps, each a Fortran-
        # ordered (w, N) band; a step's end is the next step's start
        bands = (u[2 * s0:2 * s1 + 1] @ table).reshape(-1, N, w) \
            .transpose(0, 2, 1)
        for y in rows:
            stages = iter(bands)
            end = next(stages)
            for mid, nxt in zip(stages, stages):
                start, end = end, nxt
                k1 = zgbmv(N, N, b, b, 1.0, start, y)
                k2 = zgbmv(N, N, b, b, 1.0, mid, zaxpy(k1, y.copy(), N, h2))
                k3 = zgbmv(N, N, b, b, 1.0, mid, zaxpy(k2, y.copy(), N, h2))
                k4 = zgbmv(N, N, b, b, 1.0, end, zaxpy(k3, y.copy(), N, h))
                # y += h / 6 * ((k1 + k4) + 2 k2 + 2 k3)
                zaxpy(k4, k1)
                zaxpy(k2, k1, N, 2.0)
                zaxpy(k3, k1, N, 2.0)
                zaxpy(k1, y, N, h6)
    return rows.T


def _rk4_power(algebra: str, u0: np.ndarray, N: int, Y0: np.ndarray,
               h: float, n_steps: int) -> np.ndarray:
    """n RK4 steps of Y0 under the constant controls `u0`.  One step is
    the matrix T4(z) = 1 + z + z²/2 + z³/6 + z⁴/24 of z = -i h H, so n
    steps are T4(z)^n, applied in the eigenbasis of the hermitian H."""
    H = sum(c * Hj for c, Hj in zip(u0, hermitian_generators(algebra, N)))
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
