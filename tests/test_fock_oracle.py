"""Truncated number-basis matrices as independent floating-point checks."""

import warnings

import numpy as np
import pytest
from scipy.linalg.blas import zaxpy, zgbmv

from skewweyl import fock_oracle
from skewweyl.fock_oracle import (_STAGED_STEPS, UnitarityDriftError,
                                  _band_table, direct_propagator,
                                  hermitian_generators, state_fidelity)
from skewweyl.weyl_core import (CONTROL_GENERATORS, GR_I, NEG_INF,
                                GaussianRational, WeylPoly)
from skewweyl.wei_norman import ControlSpec


# ---------------------------------------------------------------------------
# Reference: the matrix of a `WeylPoly` from dense powers of the
# annihilator, and checks of the exact normal-ordered ring against it
# ---------------------------------------------------------------------------

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


def _degrees(p: WeylPoly, q: WeylPoly, N: int) -> int:
    """deg p + deg q (the zero polynomial counts 0), if N leaves room."""
    dp = 0 if p.degree is NEG_INF else p.degree
    dq = 0 if q.degree is NEG_INF else q.degree
    if N < dp + dq + 2:
        raise ValueError("need N >= deg p + deg q + 2")
    return dp + dq


def commutator_crosscheck(p: WeylPoly, q: WeylPoly, N: int) -> float:
    """Max interior-block deviation between the symbolic commutator and the
    matrix commutator."""
    d = _degrees(p, q, N)
    Mp, Mq = fock_matrix(p, N), fock_matrix(q, N)
    return interior_error(
        fock_matrix(p.commutator(q), N) - (Mp @ Mq - Mq @ Mp), d)


def product_crosscheck(p: WeylPoly, q: WeylPoly, N: int) -> float:
    """Same leak-free comparison for the associative product."""
    d = _degrees(p, q, N)
    return interior_error(
        fock_matrix(p * q, N) - fock_matrix(p, N) @ fock_matrix(q, N), d)


class TestMatrices:
    def test_annihilator_entries(self):
        a = annihilator(6)
        for n in range(1, 6):
            assert a[n - 1, n] == pytest.approx(np.sqrt(n))
        assert np.count_nonzero(a) == 5

    def test_number_operator_diagonal(self):
        M = fock_matrix(WeylPoly.term(1, 1), 8)
        assert np.allclose(M, np.diag(np.arange(8)))

    def test_canonical_commutation_interior(self):
        N = 12
        a = annihilator(N)
        comm = a @ a.conj().T - a.conj().T @ a
        # exact identity on the leak-free block, broken only at the edge
        assert interior_error(comm - np.eye(N), 2) < 1e-12
        assert abs(comm[N - 1, N - 1] + (N - 1)) < 1e-12

    def test_skew_element_matrix_is_antihermitian(self):
        p = (WeylPoly.term(2, 0, GR_I) + WeylPoly.term(0, 2, GR_I)
             + WeylPoly.term(1, 1, GaussianRational.imag(3)))
        M = fock_matrix(p, 10)
        assert np.max(np.abs(M + M.conj().T)) < 1e-12

    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            fock_matrix(WeylPoly.term(3, 3), 6)


class TestCrosschecks:
    def test_normal_ordering_example(self):
        # (a†²a)(a†a²) = a†³a³ + a†²a²: the oracle freezes the coefficient 1
        p = WeylPoly.term(2, 1)
        q = WeylPoly.term(1, 2)
        want = WeylPoly.term(3, 3) + WeylPoly.term(2, 2)
        assert p * q == want
        assert product_crosscheck(p, q, 24) < 1e-10

    def test_commutator_examples(self):
        pairs = [
            (WeylPoly.term(1, 1), WeylPoly.term(0, 1)),
            (WeylPoly.term(2, 0), WeylPoly.term(0, 2)),
            (WeylPoly.term(2, 1), WeylPoly.term(1, 2)),
            (WeylPoly.term(3, 0, GR_I), WeylPoly.term(1, 2)),
        ]
        for p, q in pairs:
            assert commutator_crosscheck(p, q, 32) < 1e-10

    def test_crosscheck_requires_headroom(self):
        with pytest.raises(ValueError):
            commutator_crosscheck(WeylPoly.term(3, 0), WeylPoly.term(0, 3), 7)

    def test_interior_stable_under_truncation_growth(self):
        p = WeylPoly.term(2, 2) + WeylPoly.term(1, 0)
        small = fock_matrix(p, 16)
        large = fock_matrix(p, 48)
        assert np.max(np.abs(small[:12, :12] - large[:12, :12])) < 1e-12


class TestPropagation:
    def test_free_evolution_is_diagonal_phase(self):
        omega, t = 1.3, 2.0
        spec = ControlSpec.constant("wh2", [omega, 0.0, 0.0], t_final=t, h=1e-3)
        # one state over the 28 levels below the top four: each level's
        # amplitude over its initial one is that level's phase, held to the
        # bound of a diagonal entry of U, and any weight moved off the
        # diagonal shows too
        n = np.arange(32)
        psi0 = np.where(n < 28, 1.0 / np.sqrt(28), 0.0)
        psi = direct_propagator(spec, 32, psi0=psi0)
        want = np.where(n < 28, np.exp(-1j * omega * t * n), 0.0)
        assert np.max(np.abs(np.sqrt(28) * psi - want)) < 1e-8

    def test_zero_hamiltonian_gives_identity(self):
        spec = ControlSpec.constant("wh2", [0.0, 0.0, 0.0], t_final=0.1, h=1e-2)
        U = direct_propagator(spec, 16)
        assert np.max(np.abs(U - np.eye(16))) < 1e-12

    def test_drift_error_raised_for_coarse_step(self):
        spec = ControlSpec.constant("schrodinger",
                                    [1.0, 0.0, 0.0, 0.0, 0.5],
                                    t_final=2.0, h=0.05)
        with pytest.raises(UnitarityDriftError):
            direct_propagator(spec, 96, substeps=1)

    def test_requires_minimum_dimension(self):
        spec = ControlSpec.constant("wh2", [1.0, 0.0, 0.0], t_final=0.05, h=1e-2)
        with pytest.raises(ValueError):
            direct_propagator(spec, 8)

    @pytest.mark.parametrize("substeps", [0, -1])
    def test_requires_a_substep(self, substeps):
        spec = ControlSpec.constant("wh2", [1.0, 0.0, 0.0], t_final=0.05,
                                    h=1e-2)
        with pytest.raises(ValueError, match="substeps"):
            direct_propagator(spec, 16, substeps=substeps)

    def test_generator_count_per_algebra(self):
        assert len(hermitian_generators("wh2", 16)) == 3
        assert len(hermitian_generators("schrodinger", 16)) == 5
        with pytest.raises(ValueError, match="unknown algebra"):
            hermitian_generators("su3", 16)
        with pytest.raises(ValueError, match="must exceed degree 2"):
            hermitian_generators("schrodinger", 2)

    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    def test_cached_tables_are_read_only(self, algebra):
        table = _band_table(algebra, 24)
        assert _band_table(algebra, 24) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        with pytest.raises(ValueError):
            table.reshape(-1)[0] = 1.0

    def test_generators_hermitian(self):
        for H in hermitian_generators("schrodinger", 24):
            assert np.max(np.abs(H - H.conj().T)) < 1e-12


def _hand_written_generators(algebra, N):
    """Reference: the hermitian generators written out from the annihilator
    matrix, as before they were read from the exact skew generators."""
    a = annihilator(N)
    ad = a.conj().T
    gens = [ad @ a, -1j * (a - ad), a + ad]
    if algebra == "schrodinger":
        a2, ad2 = a @ a, ad @ ad
        gens += [-1j * (a2 - ad2), a2 + ad2]
    return gens


#: half-width of each algebra's band: a² and a†² reach two diagonals off
#: the main one, a and a† one
HALF_WIDTH = {"wh2": 1, "schrodinger": 2}


class TestGeneratorTable:
    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    @pytest.mark.parametrize("N", [16, 17, 48, 96, 200])
    def test_table_equals_the_weyl_reference(self, algebra, N):
        # read from the skew keys, the band table holds -i H_j on its
        # diagonals and the dense H_j written out from it equal the
        # reference -i·fock_matrix(X_j) entry for entry
        want = [-1j * fock_matrix(X.to_weyl(), N)
                for X in CONTROL_GENERATORS[algebra]]
        got = hermitian_generators(algebra, N)
        assert len(got) == len(want)
        for H, ref in zip(got, want):
            assert np.array_equal(H, ref)
        table = _band_table(algebra, N)
        b = HALF_WIDTH[algebra]
        for d in range(-b, b + 1):
            cols = np.arange(max(0, d), min(N, N + d))
            assert np.array_equal(table[:, cols, b - d],
                                  -1j * np.stack(want)[:, cols - d, cols])

    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    @pytest.mark.parametrize("N", [16, 96])
    def test_generators_equal_hand_written(self, algebra, N):
        got = hermitian_generators(algebra, N)
        want = _hand_written_generators(algebra, N)
        assert len(got) == len(want)
        for H, ref in zip(got, want):
            assert np.array_equal(H, ref)

    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    @pytest.mark.parametrize("N", [16, 96])
    def test_band_table_unchanged(self, algebra, N):
        # the band storage rebuilds -i H_j exactly: entry [j, c, b - d] is
        # -i H_j[c - d, c], and nothing of H_j lies outside the band
        want = -1j * np.stack(_hand_written_generators(algebra, N))
        table = _band_table(algebra, N)
        b = HALF_WIDTH[algebra]
        assert table.shape == (len(want), N, 2 * b + 1)
        dense = np.zeros_like(want)
        for d in range(-b, b + 1):
            for c in range(max(0, d), min(N, N + d)):
                dense[:, c - d, c] = table[:, c, b - d]
        assert np.array_equal(dense, want)

    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    @pytest.mark.parametrize("N", [16, 48])
    def test_band_holds_every_nonzero(self, algebra, N):
        # the band is the algebra's own, with no padding: its outermost
        # diagonals hold nonzeros
        b = HALF_WIDTH[algebra]
        gens = -1j * np.stack(hermitian_generators(algebra, N))
        rows, cols = np.indices((N, N))
        assert not np.any(gens[:, np.abs(rows - cols) > b])
        assert np.any(gens[:, rows - cols == b])
        assert np.any(gens[:, cols - rows == b])
        table = _band_table(algebra, N)
        assert table.shape == (len(gens), N, 2 * b + 1)
        j, r, c = np.nonzero(gens)
        assert np.array_equal(table[j, c, b - c + r], gens[j, r, c])
        assert np.count_nonzero(table) == len(j)


def _dense_rk4(spec, N, substeps=4):
    """Reference: RK4 on the full propagator with dense H(t) @ U products
    and per-stage control evaluation."""
    gens = np.stack(hermitian_generators(spec.algebra, N))
    h = spec.h / substeps
    U = np.eye(N, dtype=complex)
    for k in range(spec.n_steps * substeps):
        t = k * h
        A1, A2, A3 = (np.tensordot(spec.evaluate(s), gens, axes=1)
                      for s in (t, t + h / 2, t + h))
        k1 = -1j * (A1 @ U)
        k2 = -1j * (A2 @ (U + h / 2 * k1))
        k3 = -1j * (A2 @ (U + h / 2 * k2))
        k4 = -1j * (A3 @ (U + h * k3))
        U = U + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return U


def _sinusoid(algebra, t_final):
    n = 3 if algebra == "wh2" else 5
    return ControlSpec.from_json({
        "algebra": algebra, "preset": "sinusoid",
        "amplitudes": [1.0, 0.3, 0.2, 0.1, 0.15][:n],
        "frequencies": [1.0, 2.0, 3.0, 1.5, 2.5][:n],
        "phases": [0.0, 0.4, 0.8, 1.2, 1.6][:n],
        "t_final": t_final, "h": 1e-3,
    })


def _per_step_setup(spec, N, psi0, substeps):
    """The columns of psi0 (None: the identity), the result shape, the
    RK4 step and step count of `direct_propagator`, the half-width b of
    the table, and the band of -i H(t_j) at the stage time j h/2, formed
    for that stage alone by a complex product with the table."""
    Y0 = np.eye(N, dtype=complex) if psi0 is None else \
        np.array(psi0, dtype=complex)
    shape = Y0.shape
    h = spec.h / substeps
    n_steps = int(round(spec.h * spec.n_steps / h))
    table = _band_table(spec.algebra, N)
    w = table.shape[-1]
    table = table.reshape(-1, N * w)
    u = spec.stage_samples(substeps)

    def band(j):
        return (u[j] @ table).reshape(N, w).T

    return Y0.reshape(N, -1), shape, h, n_steps, w // 2, band


def _banded_rk4_per_step(spec, N, psi0=None, substeps=4):
    """Reference: the banded RK4 of `direct_propagator`, the same BLAS
    operations in the same order, as one loop over the columns and the
    steps that forms each stage's band on its own and allocates every
    intermediate, without the drift check.  The stage arguments a2, a3,
    a4 are y plus a band product, and the update is y + h/6 A_e a4 + D/3
    with D = a2 + 2 a3 + a4 - 4 y."""
    Y0, shape, h, n_steps, b, band = _per_step_setup(spec, N, psi0, substeps)

    def stage(alpha, j, x, y):
        # y + alpha (-i H(t_j)) x
        return zgbmv(N, N, b, b, alpha, band(j), x, beta=1.0, y=y)

    Y = np.empty_like(Y0)
    for col in range(Y0.shape[1]):
        y = Y0[:, col].copy()
        for step in range(n_steps):
            a2 = stage(h / 2, 2 * step, y, y)
            a3 = stage(h / 2, 2 * step + 1, a2, y)
            a4 = stage(h, 2 * step + 1, a3, y)
            D = zaxpy(a3, a2.copy(), a=2.0)
            D = zaxpy(a4, D)
            D = zaxpy(y, D, a=-4.0)
            y = zaxpy(D, stage(h / 6, 2 * step + 2, a4, y), a=1 / 3)
        Y[:, col] = y
    return Y.reshape(shape)


def _textbook_rk4(spec, N, psi0=None, substeps=4):
    """Reference: the same steps in the textbook form, the derivatives
    k1..k4 and then y += h/6 ((k1 + k4) + 2 k2 + 2 k3)."""
    Y0, shape, h, n_steps, b, band = _per_step_setup(spec, N, psi0, substeps)

    def derivative(j, y):
        return zgbmv(N, N, b, b, 1.0, band(j), y)

    Y = np.empty_like(Y0)
    for col in range(Y0.shape[1]):
        y = Y0[:, col].copy()
        for step in range(n_steps):
            k1 = derivative(2 * step, y)
            k2 = derivative(2 * step + 1, zaxpy(k1, y.copy(), a=h / 2))
            k3 = derivative(2 * step + 1, zaxpy(k2, y.copy(), a=h / 2))
            k4 = derivative(2 * step + 2, zaxpy(k3, y.copy(), a=h))
            total = zaxpy(k4, k1.copy())
            total = zaxpy(k2, total, a=2.0)
            total = zaxpy(k3, total, a=2.0)
            y = zaxpy(total, y.copy(), a=h / 6)
        Y[:, col] = y
    return Y.reshape(shape)


def _vacuum(N):
    vac = np.zeros(N)
    vac[0] = 1.0
    return vac


class TestStagedPropagation:
    """The staged loop (stage bands of many steps in one real product on
    the table's (re, im) view, each column stepped in place) against the
    per-step loop (each stage's band by a complex product): the same
    operations in the same order, so the same bits.  Each real entry of a
    band is one product of a control with a table entry, whichever matmul
    forms it, so this holds for any BLAS."""

    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    @pytest.mark.parametrize("substeps", [4, 3])
    def test_state_matches_per_step_loop(self, algebra, substeps):
        # 1200 or 900 RK4 steps: several full stages and a partial one
        N = 48
        spec = _sinusoid(algebra, 0.3)
        vac = _vacuum(N)
        got = direct_propagator(spec, N, psi0=vac, substeps=substeps)
        want = _banded_rk4_per_step(spec, N, psi0=vac, substeps=substeps)
        assert np.array_equal(got, want)
        textbook = _textbook_rk4(spec, N, psi0=vac, substeps=substeps)
        assert np.max(np.abs(got - textbook)) <= 1e-13

    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    def test_full_propagator_matches_per_step_loop(self, algebra):
        # 400 RK4 steps: a full stage and a partial one for every column
        N = 24
        spec = _sinusoid(algebra, 0.1)
        got = direct_propagator(spec, N)
        assert np.array_equal(got, _banded_rk4_per_step(spec, N))
        assert np.max(np.abs(got - _textbook_rk4(spec, N))) <= 1e-13

    def test_block_over_several_chunks_matches_per_step_loop(self):
        # 148 RK4 steps: two full chunks of stage bands and a partial one,
        # for each of three columns
        N = 32
        spec = _sinusoid("schrodinger", 0.037)
        n_steps = 4 * spec.n_steps
        assert n_steps > 2 * _STAGED_STEPS and n_steps % _STAGED_STEPS
        block = np.zeros((N, 3), dtype=complex)
        block[0, 0] = 1.0
        block[1, 1] = block[2, 1] = 1.0 / np.sqrt(2)
        block[:4, 2] = 0.5j
        got = direct_propagator(spec, N, psi0=block)
        assert np.array_equal(got, _banded_rk4_per_step(spec, N, psi0=block))

    def test_no_drift_from_the_textbook_form(self):
        # 20,000 steps: the update scales only the increment D by the
        # inexact 1/3, so the rounding does not build up with the steps.
        # (a2 + 2 a3 + a4 - y)/3 + h/6 k4, which scales the whole state,
        # drifts to 7.6e-13 here
        N = 24
        spec = _sinusoid("schrodinger", 5.0)
        vac = _vacuum(N)
        got = direct_propagator(spec, N, psi0=vac)
        assert np.max(np.abs(got - _textbook_rk4(spec, N, psi0=vac))) <= 5e-14

    def test_four_zgbmv_and_four_zaxpy_calls_a_step(self, monkeypatch):
        # at these sizes a step's time is the BLAS calls it makes
        calls = {"zgbmv": 0, "zaxpy": 0}
        for name in calls:
            blas = getattr(fock_oracle, name)

            def counted(*args, _name=name, _blas=blas, **kwargs):
                calls[_name] += 1
                return _blas(*args, **kwargs)

            monkeypatch.setattr(fock_oracle, name, counted)
        spec = _sinusoid("schrodinger", 0.025)
        assert 4 * spec.n_steps == 100
        direct_propagator(spec, 48, psi0=_vacuum(48))
        assert calls == {"zgbmv": 400, "zaxpy": 400}


def _constant(algebra):
    values = [1.0, 0.3, -0.2, 0.1, 0.15]
    return ControlSpec.constant(algebra, values[:3 if algebra == "wh2" else 5],
                                t_final=0.1, h=1e-3)


class TestConstantControls:
    """Controls equal at every stage time: n RK4 steps as the n-th power
    of one step's matrix, taken in the eigenbasis of H, against the
    stepping loop."""

    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    def test_state_block_and_propagator_match_stepping(self, algebra):
        N = 24
        spec = _constant(algebra)
        vac = np.zeros(N)
        vac[0] = 1.0
        block = np.zeros((N, 2), dtype=complex)
        block[0, 0] = 1.0
        block[1, 1] = block[2, 1] = 1.0 / np.sqrt(2)
        for psi0 in (vac, block, None):
            got = direct_propagator(spec, N, psi0=psi0)
            want = _banded_rk4_per_step(spec, N, psi0=psi0)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    def test_larger_truncation_state_matches_stepping(self, algebra):
        N = 96
        spec = _constant(algebra)
        vac = np.zeros(N)
        vac[0] = 1.0
        got = direct_propagator(spec, N, psi0=vac)
        assert np.max(np.abs(got - _banded_rk4_per_step(spec, N, psi0=vac))) \
            <= 1e-12

    def test_constant_on_nodes_only_takes_the_stepping_loop(self):
        # equal on the grid nodes, different at the stage times between
        # them: the eigenbasis form does not apply, the loop runs
        N, h = 24, 1e-3
        nodes = set((np.arange(101) * h).tolist())
        funcs = [lambda t: 1.0, lambda t: 0.3 if t in nodes else -0.3,
                 lambda t: 0.2]
        spec = ControlSpec.from_funcs("wh2", funcs, t_final=0.1, h=h)
        assert np.all(spec.u == spec.u[:, :1])
        vac = np.zeros(N)
        vac[0] = 1.0
        got = direct_propagator(spec, N, psi0=vac)
        assert np.array_equal(got, _banded_rk4_per_step(spec, N, psi0=vac))

    @pytest.mark.parametrize("values, substeps", [
        ([1.0, 0.0, 0.0, 0.0, 0.5], 1),    # unstable step, |T4| > 1
        ([0.0, 0.0, 0.0, 0.0, 1e300], 4),  # T4(z)^n leaves the float range
        ([0.0, 0.0, 0.0, 0.0, 1e308], 4),  # so does H itself
    ])
    def test_overflow_is_one_drift_error(self, values, substeps):
        spec = ControlSpec.constant("schrodinger", values, t_final=2.0,
                                    h=0.05)
        vac = np.zeros(96)
        vac[0] = 1.0
        for psi0 in (None, vac):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(UnitarityDriftError):
                    direct_propagator(spec, 96, psi0=psi0, substeps=substeps)


class TestStatePropagation:
    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    def test_banded_matches_dense_reference(self, algebra):
        spec = _sinusoid(algebra, 0.1)
        U = direct_propagator(spec, 24)
        assert np.max(np.abs(U - _dense_rk4(spec, 24))) < 1e-12

    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    def test_state_and_block_match_full_propagator(self, algebra):
        N = 48
        spec = _sinusoid(algebra, 0.1)
        U = direct_propagator(spec, N)
        vac = np.zeros(N)
        vac[0] = 1.0
        block = np.zeros((N, 2), dtype=complex)
        block[0, 0] = 1.0
        block[1, 1] = block[2, 1] = 1.0 / np.sqrt(2)
        psi = direct_propagator(spec, N, psi0=vac)
        assert psi.shape == (N,)
        assert np.max(np.abs(psi - U @ vac)) < 1e-12
        Y = direct_propagator(spec, N, psi0=block)
        assert Y.shape == (N, 2)
        assert np.max(np.abs(Y - U @ block)) < 1e-12

    def test_state_drift_error_raised_for_coarse_step(self):
        spec = ControlSpec.constant("schrodinger",
                                    [1.0, 0.0, 0.0, 0.0, 0.5],
                                    t_final=2.0, h=0.05)
        vac = np.zeros(96)
        vac[0] = 1.0
        with pytest.raises(UnitarityDriftError):
            direct_propagator(spec, 96, psi0=vac, substeps=1)

    def test_rejects_mismatched_state(self):
        spec = ControlSpec.constant("wh2", [1.0, 0.0, 0.0], t_final=0.05, h=1e-2)
        with pytest.raises(ValueError):
            direct_propagator(spec, 16, psi0=np.ones(15))
        with pytest.raises(ValueError):
            direct_propagator(spec, 16, psi0=np.ones((16, 2, 2)))


class TestFidelity:
    def test_self_fidelity(self):
        psi = np.array([1.0, 2.0, 0.5j])
        assert state_fidelity(psi, 3 * psi) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        psi = np.array([1.0, 0.0])
        phi = np.array([0.0, 1.0])
        assert state_fidelity(psi, phi) == pytest.approx(0.0)

    def test_global_phase_dropped(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        assert state_fidelity(psi, np.exp(0.7j) * psi) == pytest.approx(1.0)
