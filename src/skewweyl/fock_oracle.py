"""Truncated Fock-space oracle: independent floating-point checks of the
symbolic engine and direct time-ordered propagation.

Matrices act on the number basis |0>..|N-1> with a|n> = sqrt(n)|n-1>.
Truncation spills only upward through powers of a†, so any identity between
polynomials of total degree D is exact on the rows/columns with index
< N - D (the leak-free interior block); all cross-checks assert there.
"""

from __future__ import annotations

import numpy as np

from .weyl_core import NEG_INF, WeylPoly


def annihilator(N: int) -> np.ndarray:
    a = np.zeros((N, N), dtype=complex)
    for n in range(1, N):
        a[n - 1, n] = np.sqrt(n)
    return a


def fock_matrix(p: WeylPoly, N: int) -> np.ndarray:
    """Matrix of a normal-ordered polynomial in the truncated number basis."""
    d = p.degree
    if d is not NEG_INF and N <= d:
        raise ValueError(f"truncation dim {N} must exceed degree {d}")
    a = annihilator(N)
    ad = a.conj().T
    # cache powers
    maxa = max((b for _, b in p.terms), default=0)
    maxad = max((al for al, _ in p.terms), default=0)
    a_pows = [np.eye(N, dtype=complex)]
    for _ in range(maxa):
        a_pows.append(a_pows[-1] @ a)
    ad_pows = [np.eye(N, dtype=complex)]
    for _ in range(maxad):
        ad_pows.append(ad_pows[-1] @ ad)
    out = np.zeros((N, N), dtype=complex)
    for (alpha, beta), c in p.terms.items():
        out += complex(c) * (ad_pows[alpha] @ a_pows[beta])
    return out


def interior_error(M: np.ndarray, total_degree: int) -> float:
    """Max magnitude on the leak-free block rows/cols < N - total_degree."""
    N = M.shape[0]
    k = N - total_degree
    if k <= 0:
        raise ValueError("truncation too small for the requested degrees")
    return float(np.max(np.abs(M[:k, :k]))) if k else 0.0


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
    """Hermitian control generators H_j so that H(t) = sum u_j(t) H_j.

    Order: wh2 -> (a†a, -i(a-a†), a+a†);
    schrodinger adds (-i(a²-a†²), a²+a†²).
    """
    a = annihilator(N)
    ad = a.conj().T
    gens = [ad @ a, -1j * (a - ad), a + ad]
    if algebra == "schrodinger":
        a2, ad2 = a @ a, ad @ ad
        gens += [-1j * (a2 - ad2), a2 + ad2]
    elif algebra != "wh2":
        raise ValueError(f"unknown algebra {algebra!r}")
    return gens


class UnitarityDriftError(RuntimeError):
    def __init__(self, drift: float, step: int):
        super().__init__(
            f"unitarity drift {drift:.3e} at step {step}; "
            "reduce the step size or enlarge the truncation"
        )
        self.drift = drift
        self.step = step


def direct_propagator(spec, N: int, *, substeps: int = 4) -> np.ndarray:
    """Time-ordered propagator by RK4 on dU/dt = -i H(t) U, U(0) = 1.

    `spec` is a wei_norman.ControlSpec; controls are evaluated densely via
    its interpolant so that half-step samples keep fourth order.  `substeps`
    subdivides each grid interval: the stability-limited error scales with
    (h·N/substeps)^5 because the number operator's top eigenvalue grows
    with the truncation.
    """
    if N < 16:
        raise ValueError("need N >= 16")
    gens = np.stack(hermitian_generators(spec.algebra, N))
    h = spec.h / max(1, substeps)
    n_steps = int(round(spec.h * spec.n_steps / h))

    def Ht(t: float) -> np.ndarray:
        return np.tensordot(spec.evaluate(t), gens, axes=1)

    U = np.eye(N, dtype=complex)
    A1 = Ht(0.0)
    for k in range(n_steps):
        t = k * h
        A2, A3 = Ht(t + h / 2), Ht(t + h)
        k1 = -1j * (A1 @ U)
        k2 = -1j * (A2 @ (U + h / 2 * k1))
        k3 = -1j * (A2 @ (U + h / 2 * k2))
        k4 = -1j * (A3 @ (U + h * k3))
        U = U + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        A1 = A3  # the step's end is the next step's start
    interior = N - 4
    gram = U.conj().T @ U
    drift = float(np.max(np.abs(gram[:interior, :interior] - np.eye(interior))))
    if drift > 1e-6:
        raise UnitarityDriftError(drift, n_steps)
    return U


def state_fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """|<psi|phi>|² with both states normalized (global phase dropped)."""
    psi = psi / np.linalg.norm(psi)
    phi = phi / np.linalg.norm(phi)
    return float(abs(np.vdot(psi, phi)) ** 2)
