"""Truncated Fock-space oracle: independent floating-point checks of the
symbolic engine and direct time-ordered propagation.

Matrices act on the number basis |0>..|N-1> with a|n> = sqrt(n)|n-1>.
Truncation spills only upward through powers of a†, so any identity between
polynomials of total degree D is exact on the rows/columns with index
< N - D (the leak-free interior block); all cross-checks assert there.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .weyl_core import CONTROL_GENERATORS, NEG_INF, WeylPoly

#: smallest truncation `direct_propagator` accepts
MIN_DIM = 16

#: RK4 steps of `direct_propagator` whose stage diagonals one matrix product
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

def hermitian_generators(algebra: str, N: int) -> list:
    """Hermitian control generators H_j = -i X_j, so that
    H(t) = sum u_j(t) H_j, as N x N matrices of the exact skew generators
    X_j in `weyl_core.CONTROL_GENERATORS`: wh2 -> (a†a, -i(a-a†), a+a†);
    schrodinger adds (-i(a²-a†²), a²+a†²)."""
    if algebra not in CONTROL_GENERATORS:
        raise ValueError(f"unknown algebra {algebra!r}")
    return [-1j * fock_matrix(X.to_weyl(), N)
            for X in CONTROL_GENERATORS[algebra]]


class UnitarityDriftError(RuntimeError):
    def __init__(self, drift: float, step: int):
        super().__init__(
            f"unitarity drift {drift:.3e} at step {step}; "
            "reduce the step size or enlarge the truncation"
        )
        self.drift = drift
        self.step = step


def _band_table(algebra: str, N: int) -> np.ndarray:
    """-i H_j read off by diagonals: entry [j, n, 2 + d] is -i H_j[n, n + d]
    for the offsets d = -2..2, zero where n + d leaves the truncation.
    Shape (n_generators, N, 5)."""
    gens = np.stack(hermitian_generators(algebra, N))
    table = np.zeros((len(gens), N, 5), dtype=complex)
    for d in range(-2, 3):
        rows = np.arange(max(0, -d), min(N, N - d))
        table[:, rows, 2 + d] = -1j * gens[:, rows, rows + d]
    return table


def direct_propagator(spec, N: int, *, psi0=None,
                      substeps: int = 4) -> np.ndarray:
    """Time-ordered propagation by RK4 on dY/dt = -i H(t) Y, Y(0) = psi0.

    `psi0` is an N-vector or an N x k block of columns and the result has
    its shape; None means the identity, so the result is the full
    propagator U.  Every generator is pentadiagonal in the number basis,
    so H(t) Y is formed from the five diagonals of H(t), O(N k) per stage.

    `spec` is a wei_norman.ControlSpec; the controls are sampled once on the
    RK4 stage grid (exact callables, or its interpolant) so that half-step
    samples keep fourth order.  `substeps` subdivides each grid interval:
    the stability-limited error scales with (h·N/substeps)^5 because the
    number operator's top eigenvalue grows with the truncation.

    Raises UnitarityDriftError when the Gram matrix Y†Y of the columns that
    start with zero weight in the top four levels moves by more than 1e-6
    from its initial value: for psi0=None the leak-free block of U†U, for
    one state its norm.  Columns that start in the top levels are not
    checked.
    """
    if N < MIN_DIM:
        raise ValueError(f"need N >= {MIN_DIM}")
    Y0 = np.eye(N, dtype=complex) if psi0 is None else \
        np.array(psi0, dtype=complex)
    if Y0.ndim not in (1, 2) or Y0.shape[0] != N:
        raise ValueError(f"psi0 must be an N-vector or N x k block, N = {N}")
    shape = Y0.shape
    Y0 = Y0.reshape(N, -1)
    substeps = max(1, substeps)
    h = spec.h / substeps
    n_steps = int(round(spec.h * spec.n_steps / h))
    table = _band_table(spec.algebra, N).reshape(-1, N * 5)
    u = spec.stage_samples(substeps)

    # Y and the stage arguments live in zero-padded buffers, so that row n
    # of a window view holds rows n-2..n+2 and one batched matmul of the
    # (N, 1, 5) diagonals against the (N, 5, k) windows is -i H(t) Y.
    cols = Y0.shape[1]
    ybuf = np.zeros((N + 4, cols), dtype=complex)
    sbuf = np.zeros_like(ybuf)
    Y, S = ybuf[2:-2], sbuf[2:-2]
    Y[:] = Y0
    y_win = sliding_window_view(ybuf, 5, axis=0).transpose(0, 2, 1)
    s_win = sliding_window_view(sbuf, 5, axis=0).transpose(0, 2, 1)
    # k1..k4 and one scratch array, written in place every step; the
    # arithmetic is the elementwise RK4 update in its usual order
    kbuf = np.empty((4, N, 1, cols), dtype=complex)
    out1, out2, out3, out4 = kbuf
    k1, k2, k3 = out1[:, 0], out2[:, 0], out3[:, 0]
    k23 = kbuf[1:3]
    tmp = np.empty((N, cols), dtype=complex)
    tmp_sum = tmp[:, None]
    for s0 in range(0, n_steps, _STAGED_STEPS):
        s1 = min(s0 + _STAGED_STEPS, n_steps)
        # -i H at the stage times j h/2 of these steps, shape (N, 1, 5)
        # each; a step's end is the next step's start
        bands = (u[2 * s0:2 * s1 + 1] @ table).reshape(-1, N, 1, 5)
        for i in range(s1 - s0):
            start, mid, end = bands[2 * i:2 * i + 3]
            np.matmul(start, y_win, out=out1)
            np.multiply(h / 2, k1, out=tmp)
            np.add(Y, tmp, out=S)
            np.matmul(mid, s_win, out=out2)
            np.multiply(h / 2, k2, out=tmp)
            np.add(Y, tmp, out=S)
            np.matmul(mid, s_win, out=out3)
            np.multiply(h, k3, out=tmp)
            np.add(Y, tmp, out=S)
            np.matmul(end, s_win, out=out4)
            # Y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4); a sum over the
            # leading axis adds the rows one after another, in this order
            np.multiply(2, k23, out=k23)
            np.add.reduce(kbuf, axis=0, out=tmp_sum)
            np.multiply(h / 6, tmp, out=tmp)
            Y += tmp
    interior = ~np.any(Y0[N - 4:], axis=0)
    if np.any(interior):
        Yi, Y0i = Y[:, interior], Y0[:, interior]
        drift = float(np.max(np.abs(Yi.conj().T @ Yi - Y0i.conj().T @ Y0i)))
        if not drift <= 1e-6:  # a NaN drift fails too
            raise UnitarityDriftError(drift, n_steps)
    return Y.reshape(shape).copy()


def state_fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """|<psi|phi>|² with both states normalized (global phase dropped)."""
    psi = psi / np.linalg.norm(psi)
    phi = phi / np.linalg.norm(phi)
    return float(abs(np.vdot(psi, phi)) ** 2)
