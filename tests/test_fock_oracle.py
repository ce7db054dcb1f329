"""Truncated number-basis matrices as independent floating-point checks."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from skewweyl.fock_oracle import (UnitarityDriftError, _band_table,
                                  annihilator, commutator_crosscheck,
                                  direct_propagator, fock_matrix,
                                  hermitian_generators, interior_error,
                                  product_crosscheck, state_fidelity)
from skewweyl.weyl_core import GR_I, GR_ONE, GaussianRational, WeylPoly
from skewweyl.wei_norman import ControlSpec


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
        U = direct_propagator(spec, 32)
        want = np.exp(-1j * omega * t * np.arange(32))
        assert np.max(np.abs(np.diag(U)[:28] - want[:28])) < 1e-8

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

    def test_generator_count_per_algebra(self):
        assert len(hermitian_generators("wh2", 16)) == 3
        assert len(hermitian_generators("schrodinger", 16)) == 5
        with pytest.raises(ValueError):
            hermitian_generators("su3", 16)

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


class TestGeneratorTable:
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
        gens = np.stack(_hand_written_generators(algebra, N))
        want = np.zeros((len(gens), N, 5), dtype=complex)
        for d in range(-2, 3):
            for n in range(max(0, -d), min(N, N - d)):
                want[:, n, 2 + d] = -1j * gens[:, n, n + d]
        assert np.array_equal(_band_table(algebra, N), want)


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


def _banded_rk4_per_step(spec, N, psi0=None, substeps=4):
    """Reference: the banded RK4 of `direct_propagator` as one loop that
    forms each stage's diagonals on its own and allocates every
    intermediate, without the drift check."""
    Y0 = np.eye(N, dtype=complex) if psi0 is None else \
        np.array(psi0, dtype=complex)
    shape = Y0.shape
    Y0 = Y0.reshape(N, -1)
    h = spec.h / substeps
    n_steps = int(round(spec.h * spec.n_steps / h))
    table = _band_table(spec.algebra, N).reshape(-1, N * 5)
    u = spec.stage_samples(substeps)

    def band(j):
        return (u[j] @ table).reshape(N, 1, 5)

    ybuf = np.zeros((N + 4, Y0.shape[1]), dtype=complex)
    sbuf = np.zeros_like(ybuf)
    Y, S = ybuf[2:-2], sbuf[2:-2]
    Y[:] = Y0
    y_win = sliding_window_view(ybuf, 5, axis=0).transpose(0, 2, 1)
    s_win = sliding_window_view(sbuf, 5, axis=0).transpose(0, 2, 1)
    A1 = band(0)
    for step in range(n_steps):
        A2, A3 = band(2 * step + 1), band(2 * step + 2)
        k1 = (A1 @ y_win)[:, 0]
        np.add(Y, h / 2 * k1, out=S)
        k2 = (A2 @ s_win)[:, 0]
        np.add(Y, h / 2 * k2, out=S)
        k3 = (A2 @ s_win)[:, 0]
        np.add(Y, h * k3, out=S)
        k4 = (A3 @ s_win)[:, 0]
        Y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        A1 = A3
    return Y.reshape(shape).copy()


class TestStagedPropagation:
    """The staged loop (stage diagonals of many steps in one product, RK4
    stages in preallocated buffers) against the per-step loop: the same
    operations in the same order, so the same bits.  Each entry of a band
    row is one product of a control with a table entry, whichever matmul
    forms it, so this holds for any BLAS."""

    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    @pytest.mark.parametrize("substeps", [4, 3])
    def test_state_matches_per_step_loop(self, algebra, substeps):
        # 1200 or 900 RK4 steps: several full stages and a partial one
        N = 48
        spec = _sinusoid(algebra, 0.3)
        vac = np.zeros(N)
        vac[0] = 1.0
        got = direct_propagator(spec, N, psi0=vac, substeps=substeps)
        want = _banded_rk4_per_step(spec, N, psi0=vac, substeps=substeps)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    def test_full_propagator_matches_per_step_loop(self, algebra):
        N = 48
        spec = _sinusoid(algebra, 0.1)
        got = direct_propagator(spec, N)
        assert np.array_equal(got, _banded_rk4_per_step(spec, N))


class TestStatePropagation:
    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    def test_banded_matches_dense_reference(self, algebra):
        spec = _sinusoid(algebra, 0.1)
        U = direct_propagator(spec, 24)
        assert np.max(np.abs(U - _dense_rk4(spec, 24))) < 1e-12

    @pytest.mark.parametrize("algebra", ["wh2", "schrodinger"])
    def test_state_and_block_match_full_propagator(self, algebra):
        N = 48
        spec = _sinusoid(algebra, 0.5)
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
