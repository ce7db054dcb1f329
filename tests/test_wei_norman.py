"""Factor functions, residuals, and factored propagators."""

import math

import numpy as np
import pytest

from skewweyl.fock_oracle import direct_propagator, state_fidelity
from skewweyl.wei_norman import (ControlSpec, FactorSolution,
                                 SqueezeBlowUpError, factored_propagator,
                                 reconstructed_controls, residual_check,
                                 schrodinger_factors, wh2_factors)


class TestControlSpec:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ControlSpec("wh2", 0.1, 10, np.zeros((2, 11)))

    def test_unknown_algebra(self):
        with pytest.raises(ValueError):
            ControlSpec("virasoro", 0.1, 10, np.zeros((3, 11)))

    def test_nonpositive_step(self):
        with pytest.raises(ValueError):
            ControlSpec("wh2", 0.0, 10, np.zeros((3, 11)))

    def test_grid(self):
        spec = ControlSpec.constant("wh2", [1, 0, 0], t_final=1.0, h=0.25)
        assert np.allclose(spec.grid, [0, 0.25, 0.5, 0.75, 1.0])

    def test_from_json_presets(self):
        spec = ControlSpec.from_json({
            "algebra": "wh2", "preset": "constant", "values": [1, 2, 3],
            "t_final": 0.5, "h": 0.1,
        })
        assert np.allclose(spec.evaluate(0.3), [1, 2, 3])
        sin = ControlSpec.from_json({
            "algebra": "wh2", "preset": "sinusoid",
            "amplitudes": [0, 1, 0], "frequencies": [1, 2, 1],
            "t_final": 0.5, "h": 0.1,
        })
        assert sin.evaluate(0.25)[1] == pytest.approx(math.sin(0.5))

    def test_from_json_raw_samples(self):
        u = np.zeros((3, 6))
        u[0] = np.linspace(0, 1, 6)
        spec = ControlSpec.from_json({"algebra": "wh2", "h": 0.2,
                                      "controls": u.tolist()})
        assert spec.n_steps == 5
        # spline evaluation reproduces nodes exactly
        assert spec.evaluate(0.4)[0] == pytest.approx(0.4)


class TestWh2Factors:
    def test_pure_rotation(self):
        omega = 1.7
        spec = ControlSpec.constant("wh2", [omega, 0, 0], t_final=2.0, h=1e-3)
        sol = wh2_factors(spec)
        assert sol.method == "ClosedFormQuadrature"
        assert np.allclose(sol.f[0], omega * spec.grid, atol=1e-10)
        assert np.max(np.abs(sol.f[1:])) < 1e-12
        assert np.max(np.abs(sol.phase)) < 1e-12

    def test_corotating_drive_closed_form(self):
        # u1 = w, u2 = eps cos(wt), u3 = eps sin(wt):
        # then f1 = wt, f2 = eps t, f3 = 0 exactly
        w, eps = 1.0, 0.2
        spec = ControlSpec.from_funcs(
            "wh2",
            [lambda t: w,
             lambda t: eps * math.cos(w * t),
             lambda t: eps * math.sin(w * t)],
            t_final=2.0, h=1e-3)
        sol = wh2_factors(spec)
        assert np.max(np.abs(sol.f[1] - eps * spec.grid)) < 1e-10
        assert np.max(np.abs(sol.f[2])) < 1e-10
        assert np.max(np.abs(sol.phase)) < 1e-10

    def test_rejects_wrong_algebra(self):
        spec = ControlSpec.constant("schrodinger", [1, 0, 0, 0, 0],
                                    t_final=0.1, h=0.01)
        with pytest.raises(ValueError):
            wh2_factors(spec)

    def test_residual_small(self):
        spec = ControlSpec.from_json({
            "algebra": "wh2", "preset": "sinusoid",
            "amplitudes": [1.0, 0.3, 0.2], "frequencies": [1.0, 2.0, 3.0],
            "t_final": 2.0, "h": 1e-3,
        })
        sol = wh2_factors(spec)
        assert residual_check(spec, sol, derivatives="stored") < 1e-10
        assert residual_check(spec, sol, derivatives="fd") < 1e-7


class TestSchrodingerFactors:
    def test_reduction_matches_wh2(self):
        spec5 = ControlSpec.from_json({
            "algebra": "schrodinger", "preset": "sinusoid",
            "amplitudes": [1.0, 0.3, 0.2, 0.0, 0.0],
            "frequencies": [1.0, 2.0, 3.0, 1.0, 1.0],
            "t_final": 1.0, "h": 1e-3,
        })
        spec3 = ControlSpec.from_json({
            "algebra": "wh2", "preset": "sinusoid",
            "amplitudes": [1.0, 0.3, 0.2], "frequencies": [1.0, 2.0, 3.0],
            "t_final": 1.0, "h": 1e-3,
        })
        sol5 = schrodinger_factors(spec5)
        sol3 = wh2_factors(spec3)
        assert np.max(np.abs(sol5.f[:3] - sol3.f)) < 1e-8
        assert np.max(np.abs(sol5.f[3:])) < 1e-12
        assert np.max(np.abs(sol5.phase - sol3.phase)) < 1e-8

    def test_zero_controls(self):
        spec = ControlSpec.constant("schrodinger", [0] * 5, t_final=0.5,
                                    h=1e-2)
        sol = schrodinger_factors(spec)
        assert np.max(np.abs(sol.f)) == 0.0
        assert np.max(np.abs(sol.phase)) == 0.0

    def test_error_estimate_present(self):
        spec = ControlSpec.constant("schrodinger", [1, 0, 0, 0, 0.1],
                                    t_final=0.5, h=1e-2)
        sol = schrodinger_factors(spec)
        assert sol.method == "RK4"
        assert sol.error_estimate is not None
        assert sol.error_estimate < 1e-8

    def test_adjoint_reconstruction_matches_input(self):
        # independent consistency check: controls recovered through the
        # adjoint product agree with the inputs
        spec = ControlSpec.constant("schrodinger", [1.0, 0.2, 0.1, 0.05, 0.1],
                                    t_final=1.0, h=1e-2)
        sol = schrodinger_factors(spec)
        assert np.max(np.abs(reconstructed_controls(sol) - spec.u)) < 1e-7

    def test_residual_refines_at_fourth_order(self):
        def make(h):
            return ControlSpec.from_json({
                "algebra": "schrodinger", "preset": "sinusoid",
                "amplitudes": [1.0, 0.3, 0.2, 0.05, 0.1],
                "frequencies": [1.0, 2.0, 3.0, 1.0, 2.0],
                "t_final": 1.0, "h": h,
            })
        coarse = make(2e-2)
        fine = make(1e-2)
        r_coarse = residual_check(coarse, schrodinger_factors(coarse), "fd")
        r_fine = residual_check(fine, schrodinger_factors(fine), "fd")
        assert r_coarse / r_fine >= 8.0

    def test_blow_up_detected(self):
        spec = ControlSpec.constant("schrodinger", [0, 0, 0, 10.0, 0],
                                    t_final=12.0, h=1e-2)
        with pytest.raises(SqueezeBlowUpError) as exc:
            schrodinger_factors(spec)
        assert exc.value.t <= 12.0

    def test_residual_rejects_bad_mode(self):
        spec = ControlSpec.constant("wh2", [1, 0, 0], t_final=0.1, h=0.01)
        sol = wh2_factors(spec)
        with pytest.raises(ValueError):
            residual_check(spec, sol, derivatives="exact")


class TestFactoredPropagator:
    def test_pure_rotation_diagonal(self):
        spec = ControlSpec.constant("wh2", [1.0, 0, 0], t_final=math.pi,
                                    h=math.pi / 1000)
        sol = wh2_factors(spec)
        U = factored_propagator(sol, spec.n_steps, 16)
        want = np.exp(-1j * math.pi * np.arange(16))
        assert np.max(np.abs(np.diag(U) - want)) < 1e-9
        off = U - np.diag(np.diag(U))
        assert np.max(np.abs(off)) < 1e-12

    def test_unitary(self):
        spec = ControlSpec.constant("schrodinger", [1.0, 0.2, 0.1, 0.0, 0.1],
                                    t_final=1.0, h=1e-2)
        sol = schrodinger_factors(spec)
        U = factored_propagator(sol, spec.n_steps, 48)
        gram = U.conj().T @ U
        assert np.max(np.abs(gram - np.eye(48))) < 1e-9

    def test_matches_direct_propagator_wh2(self):
        spec = ControlSpec.from_json({
            "algebra": "wh2", "preset": "sinusoid",
            "amplitudes": [1.0, 0.3, 0.2], "frequencies": [1.0, 2.0, 3.0],
            "t_final": 1.0, "h": 1e-3,
        })
        sol = wh2_factors(spec)
        Uf = factored_propagator(sol, spec.n_steps, 48)
        psi0 = np.zeros(48)
        psi0[0] = 1.0
        psi = direct_propagator(spec, 48, psi0=psi0)
        assert state_fidelity(Uf @ psi0, psi) >= 1 - 1e-8

    def test_rejects_tiny_truncation(self):
        spec = ControlSpec.constant("wh2", [1, 0, 0], t_final=0.1, h=0.01)
        sol = wh2_factors(spec)
        with pytest.raises(ValueError):
            factored_propagator(sol, 0, 4)
