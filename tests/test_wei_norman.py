"""Factor functions, residuals, and factored propagators."""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from scipy.linalg import expm

from skewweyl.fock_oracle import MIN_DIM, direct_propagator, state_fidelity
from skewweyl.lie_engine import LieSpan, bracket
from skewweyl.wei_norman import (ControlSpec, FactorSolution,
                                 SqueezeBlowUpError, _adjoints, _cumquad,
                                 _adjoint_frames, _generator_eighs,
                                 _reconstruct, _rhs, _rk4,
                                 factored_propagator,
                                 reconstructed_controls, residual_check,
                                 schrodinger_factors, wh2_factors)
from skewweyl.weyl_core import MINUS, PLUS, SkewPoly, number_op, unit_i


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

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_needs_one_step(self, n_steps):
        with pytest.raises(ValueError, match="at least one"):
            ControlSpec("wh2", 0.1, n_steps, np.zeros((3, n_steps + 1)))

    def test_short_t_final_has_no_step(self):
        with pytest.raises(ValueError, match="at least one"):
            ControlSpec.constant("wh2", [1, 0, 0], t_final=0.004, h=0.01)

    def test_raw_controls_need_two_dimensions(self):
        with pytest.raises(ValueError):
            ControlSpec.from_json({"algebra": "wh2", "h": 0.1,
                                   "controls": [0.0, 1.0, 2.0]})

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

    @pytest.mark.parametrize("lists", [
        {"amplitudes": [1, 2, 3, 4], "frequencies": [1, 2, 3]},
        {"amplitudes": [1, 2, 3, 4], "frequencies": [1, 2, 3, 4]},
        {"amplitudes": [1, 2], "frequencies": [1, 2]},
        {"amplitudes": [1, 2, 3], "frequencies": [1, 2, 3],
         "phases": [0, 0]},
        {"amplitudes": [1, 2, 3], "frequencies": [1, 2, 3],
         "phases": [0, 0, 0, 0]},
    ])
    def test_sinusoid_needs_one_entry_per_control(self, lists):
        # zip would drop the entries past the shortest list
        with pytest.raises(ValueError, match="one per control"):
            ControlSpec.from_json({"algebra": "wh2", "preset": "sinusoid",
                                   "t_final": 0.5, "h": 0.1, **lists})

    @pytest.mark.parametrize("substeps", [0, -1])
    def test_stage_grid_needs_a_substep(self, substeps):
        spec = ControlSpec.constant("wh2", [1, 0, 0], t_final=0.5, h=0.1)
        spec.stage_samples(2)
        with pytest.raises(ValueError, match="substeps"):
            spec.stage_samples(substeps)

    def test_from_json_raw_samples(self):
        u = np.zeros((3, 6))
        u[0] = np.linspace(0, 1, 6)
        spec = ControlSpec.from_json({"algebra": "wh2", "h": 0.2,
                                      "controls": u.tolist()})
        assert spec.n_steps == 5
        # the spline is the spec's sampler once it is built
        assert np.allclose(spec.sampler(spec.grid).T, u)
        # spline evaluation reproduces nodes exactly
        assert spec.evaluate(0.4)[0] == pytest.approx(0.4)

    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("h", [1e-3, 0.0137])
    def test_stage_grid_read_from_a_kept_finer_one(self, raw, h):
        # each grid is sampled when asked for, read-only, and is the grid a
        # fresh spec takes, whatever the spec sampled before
        def make():
            if raw:
                u = np.random.default_rng(5).normal(size=(5, 41))
                return ControlSpec("schrodinger", h, 40, u)
            return ControlSpec.from_json({
                "algebra": "wh2", "preset": "sinusoid",
                "amplitudes": [1.0, 0.3, 0.2], "frequencies": [1.0, 2.0, 3.0],
                "phases": [0.3, 1.7, 4.1], "t_final": 40 * h, "h": h})

        spec = make()
        fine = spec.stage_samples(8)
        assert not fine.flags.writeable
        for substeps in (8, 4, 2, 1, 3):
            got = spec.stage_samples(substeps)
            want = make().stage_samples(substeps)
            assert np.array_equal(got, want)


def _preset_number():
    return st.one_of(st.integers(-10 ** 6, 10 ** 6),
                     st.floats(-1e3, 1e3, allow_nan=False))


class TestPresetSampler:
    """A preset is sampled by one numpy expression over a whole time array.
    Its samples must be the bits of the expression taken at one time at a
    time, `A * math.sin(w * t + p)` or `float(v)`: a platform whose float64
    `np.sin` is not libm's `sin` fails here."""

    @staticmethod
    def _times(spec, substeps):
        m = 2 * substeps * spec.n_steps + 1
        return (np.arange(m) * (spec.h / (2 * substeps))).tolist()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_samples_are_the_scalar_expression(self, data):
        algebra = data.draw(st.sampled_from(["wh2", "schrodinger"]))
        n = 3 if algebra == "wh2" else 5
        h = data.draw(st.floats(1e-3, 0.5))
        t_final = data.draw(st.floats(h, 60 * h))
        entries = st.lists(_preset_number(), min_size=n, max_size=n)
        if data.draw(st.booleans()):
            values = data.draw(entries)
            spec = ControlSpec.from_json({
                "algebra": algebra, "preset": "constant", "values": values,
                "t_final": t_final, "h": h})
            controls = [lambda t, v=v: float(v) for v in values]
        else:
            amps, freqs, phases = (data.draw(entries) for _ in range(3))
            spec = ControlSpec.from_json({
                "algebra": algebra, "preset": "sinusoid",
                "amplitudes": amps, "frequencies": freqs, "phases": phases,
                "t_final": t_final, "h": h})
            controls = [lambda t, A=A, w=w, p=p: A * math.sin(w * t + p)
                        for A, w, p in zip(amps, freqs, phases)]
        nodes = (np.arange(spec.n_steps + 1) * h).tolist()
        want = np.array([[f(t) for t in nodes] for f in controls])
        assert spec.u.tobytes() == want.tobytes()
        substeps = data.draw(st.integers(1, 4))
        times = self._times(spec, substeps)
        stages = spec.stage_samples(substeps)
        want = np.array([[f(t) for f in controls] for t in times])
        assert stages.tobytes() == want.tobytes()
        # one time at a time gives the row of its grid
        for j in data.draw(st.lists(st.integers(0, len(times) - 1),
                                    min_size=1, max_size=5)):
            assert spec.evaluate(times[j]).tobytes() == stages[j].tobytes()
        for k in (0, spec.n_steps):
            assert spec.evaluate(nodes[k]).tobytes() == \
                spec.u[:, k].tobytes()

    def test_callables_get_python_floats(self):
        # math.sin takes no array, and `strict` takes Python floats only:
        # the sampler calls each once per time
        def strict(t):
            assert type(t) is float, type(t)
            return 0.5 * t

        funcs = [math.sin, math.cos, strict]
        spec = ControlSpec.from_funcs("wh2", funcs, t_final=0.1, h=0.01)
        nodes = spec.grid.tolist()
        assert spec.u.tobytes() == np.array(
            [[f(t) for t in nodes] for f in funcs]).tobytes()
        times = self._times(spec, 2)
        assert spec.stage_samples(2).tobytes() == np.array(
            [[f(t) for f in funcs] for t in times]).tobytes()
        assert spec.evaluate(0.037).tobytes() == np.array(
            [f(0.037) for f in funcs]).tobytes()

    def test_sinusoid_past_the_float_range_is_rejected(self):
        # w t overflows: the call at one time raises, the array form is
        # NaN, and neither becomes a control
        with pytest.raises(ValueError):
            ControlSpec.from_json({
                "algebra": "wh2", "preset": "sinusoid",
                "amplitudes": [1, 1, 1], "frequencies": [1, 1e308, 1],
                "t_final": 3.0, "h": 1.0})


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
        assert np.max(np.abs(reconstructed_controls(sol) - spec.u)) < 1e-10
        assert residual_check(spec, sol) < 1e-7

    def test_overflow_names_first_grid_node(self):
        # the phase integrand 2 f2 df3/dt leaves the float range at the
        # first node after t = 0
        spec = ControlSpec.constant("wh2", [1, 1e300, 1e300],
                                    t_final=0.01, h=1e-3)
        with pytest.raises(OverflowError, match=r"grid index 1 "):
            wh2_factors(spec)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_phase_is_the_closed_form_quadrature(self, data):
        # the central row of the forward map is 2 f2 df3/dt, formed from
        # exact scalings, so the phase is the closed form to the bit
        h = data.draw(st.floats(1e-3, 0.1))
        n_steps = data.draw(st.integers(1, int(3.0 / h)))
        values = st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3)
        kind = data.draw(st.sampled_from(["constant", "sinusoid", "raw"]))
        if kind == "constant":
            spec = ControlSpec.constant("wh2", data.draw(values),
                                        n_steps * h, h)
        elif kind == "sinusoid":
            spec = ControlSpec.from_json({
                "algebra": "wh2", "preset": "sinusoid",
                "amplitudes": data.draw(values),
                "frequencies": data.draw(values),
                "phases": data.draw(values),
                "t_final": n_steps * h, "h": h})
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
            spec = ControlSpec("wh2", h, n_steps,
                               rng.uniform(-5.0, 5.0, (3, n_steps + 1)))
        sol = wh2_factors(spec)
        want = _cumquad(2.0 * sol.f[1] * sol.fdot[2], sol.h)
        assert sol.phase.tobytes() == want.tobytes()


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
        r_coarse = residual_check(coarse, schrodinger_factors(coarse))
        r_fine = residual_check(fine, schrodinger_factors(fine))
        assert r_coarse / r_fine >= 8.0

    def test_blow_up_detected(self):
        spec = ControlSpec.constant("schrodinger", [0, 0, 0, 10.0, 0],
                                    t_final=12.0, h=1e-2)
        with pytest.raises(SqueezeBlowUpError) as exc:
            schrodinger_factors(spec)
        assert exc.value.t <= 12.0

    def test_overflow_inside_a_step_is_blow_up(self):
        # f4 leaves the float range inside the first step's stages, before
        # the check at the node: cosh(4 f4) overflows there
        spec = ControlSpec.constant("schrodinger", [1, 0, 0, 1e200, 0],
                                    t_final=0.01, h=1e-3)
        with pytest.raises(SqueezeBlowUpError) as exc:
            schrodinger_factors(spec)
        assert exc.value.step == 1

    def test_phase_overflow_names_first_grid_node(self):
        # the central row 2 f2 df3/dt is infinite from node 8 on; the
        # Simpson parts of the interval 6..7 read node 8, so the phase
        # leaves the float range at node 7
        f = np.zeros((5, 21))
        f[1] = 1.0
        fdot = np.zeros((5, 21))
        fdot[2, 8:] = 1e308
        with pytest.raises(OverflowError,
                           match=r"schrodinger factors overflow at grid "
                                 r"index 7 "):
            FactorSolution("schrodinger", 0.1, f, fdot, "RK4")


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

    def test_minimum_truncation_is_the_oracle_minimum(self):
        spec = ControlSpec.constant("wh2", [1, 0, 0], t_final=0.1, h=0.01)
        sol = wh2_factors(spec)
        with pytest.raises(ValueError):
            factored_propagator(sol, 0, MIN_DIM - 1)
        assert factored_propagator(sol, 0, MIN_DIM).shape == (MIN_DIM,) * 2


def _expm_product(sol, t_index, N):
    """Reference: the factored propagator as the product of scipy's
    matrix exponentials of the truncated generators."""
    from skewweyl.fock_oracle import hermitian_generators

    U = np.eye(N, dtype=complex)
    for f_j, H_j in zip(sol.f[:, t_index], hermitian_generators(sol.algebra, N)):
        U = U @ expm(-1j * f_j * H_j)
    return U * np.exp(-1j * sol.phase[t_index])


class TestFactoredPropagatorOnStates:
    """The factors applied to a state from their cached eigenbases, against
    the full product and against scipy's `expm`."""

    @staticmethod
    def _solution():
        spec = ControlSpec.from_json({
            "algebra": "schrodinger", "preset": "sinusoid",
            "amplitudes": [1.2, -0.3, 0.3, 0.3, -0.3],
            "frequencies": [1.0, 2.0, 3.0, 1.5, 2.5],
            "phases": [0.0, 0.4, 0.8, 1.2, 1.6],
            "t_final": 1.0, "h": 1e-2,
        })
        return schrodinger_factors(spec)

    @pytest.mark.parametrize("N", [16, 48, 96])
    def test_state_is_the_propagator_times_the_state(self, N):
        sol = self._solution()
        rng = np.random.default_rng(N)
        v = rng.normal(size=N) + 1j * rng.normal(size=N)
        v /= np.linalg.norm(v)
        k = sol.f.shape[1] - 1
        got = factored_propagator(sol, k, N, psi0=v)
        assert got.shape == (N,)
        U = factored_propagator(sol, k, N)
        assert np.max(np.abs(got - U @ v)) <= 1e-12
        ref = _expm_product(sol, k, N)
        assert np.max(np.abs(got - ref @ v)) <= 1e-12
        assert np.max(np.abs(U - ref)) <= 1e-12

    def test_block_of_states(self):
        sol = self._solution()
        block = np.eye(24)[:, :3]
        got = factored_propagator(sol, 50, 24, psi0=block)
        assert got.shape == (24, 3)
        assert np.max(np.abs(got - _expm_product(sol, 50, 24) @ block)) \
            <= 1e-12

    def test_rejects_a_state_of_the_wrong_size(self):
        with pytest.raises(ValueError):
            factored_propagator(self._solution(), 0, 24, psi0=np.ones(16))

    def test_cached_eigenbases_are_read_only(self):
        for lam, V in _generator_eighs("schrodinger", 24):
            for a in (lam, V):
                with pytest.raises(ValueError):
                    a[0] = 1.0
        assert _generator_eighs("schrodinger", 24) \
            is _generator_eighs("schrodinger", 24)

    def test_solution_arrays_are_read_only(self):
        sol = self._solution()
        assert np.array_equal(sol.frames, _adjoint_frames(sol.f))
        for a in (sol.f, sol.fdot, sol.frames, sol.phase):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0
        with pytest.raises(FrozenInstanceError):
            sol.f = sol.f.copy()

    def test_replace_forms_frames_and_phase_again(self):
        sol = self._solution()
        g = sol.f.copy()
        g[1, 10:] += 1e-3
        moved = replace(sol, f=g)
        frames = _adjoint_frames(g)
        assert np.array_equal(moved.frames, frames)
        assert not np.array_equal(moved.frames, sol.frames)
        want = _cumquad(-_reconstruct(frames, sol.fdot)[0], sol.h)
        assert moved.phase.tobytes() == want.tobytes()
        assert not np.array_equal(moved.phase, sol.phase)
        # the solution keeps its own copy of f
        g[1, 10] = 5.0
        assert moved.f[1, 10] != 5.0


class TestResidualDetectsWrongFactors:
    """The residual compares the solver's factor curves with the forward
    map of the exact structure constants: a curve off by a smooth 1e-6
    bump must show."""

    SPECS = {
        "wh2": {"algebra": "wh2", "preset": "sinusoid",
                "amplitudes": [1.0, 0.3, 0.2],
                "frequencies": [1.0, 2.0, 3.0],
                "t_final": 1.0, "h": 1e-3},
        "schrodinger": {"algebra": "schrodinger", "preset": "sinusoid",
                        "amplitudes": [1.0, 0.3, 0.2, 0.05, 0.1],
                        "frequencies": [1.0, 2.0, 3.0, 1.0, 2.0],
                        "t_final": 1.0, "h": 1e-3},
    }

    @pytest.mark.parametrize("algebra,row", [
        ("wh2", 0), ("wh2", 2), ("schrodinger", 1), ("schrodinger", 3)])
    def test_bump_raises_residual(self, algebra, row):
        spec = ControlSpec.from_json(self.SPECS[algebra])
        solve = wh2_factors if algebra == "wh2" else schrodinger_factors
        sol = solve(spec)
        clean = residual_check(spec, sol)
        f = sol.f.copy()
        t = sol.grid / sol.grid[-1]
        f[row] += 1e-6 * np.sin(np.pi * t) ** 2
        bumped = residual_check(spec, replace(sol, f=f))
        assert clean < 1e-8
        assert bumped > 1e-6
        assert bumped > 100 * clean


# ---------------------------------------------------------------------------
# The numerical kernels against the implementations they replaced, kept here
# as references: numpy-array RK4, scipy's Simpson quadrature, and expm.
# ---------------------------------------------------------------------------

def _rhs_numpy(f, u):
    f1, f2, f3, f4, _ = f
    u1, u2, u3, u4, u5 = u
    th = math.tanh(4 * f4)
    ch = math.cosh(4 * f4)
    s1, c1 = math.sin(f1), math.cos(f1)
    s2, c2 = math.sin(2 * f1), math.cos(2 * f1)
    return np.array([
        u1 - 2 * u4 * s2 * th + 2 * u5 * c2 * th,
        u2 * c1 + u3 * s1
        - 2 * u4 * (f3 * s2 * (1 + th) - f2 * c2)
        + 2 * u5 * (f3 * c2 * (1 + th) + f2 * s2),
        -u2 * s1 + u3 * c1
        - 2 * u4 * (f2 * s2 * (1 - th) + f3 * c2)
        + 2 * u5 * (f2 * c2 * (1 - th) - f3 * s2),
        u4 * c2 + u5 * s2,
        -u4 * s2 / ch + u5 * c2 / ch,
    ])


def _integrate_numpy(spec, substeps, u):
    n = spec.n_steps
    out = np.zeros((5, n + 1))
    f = np.zeros(5)
    hh = spec.h / substeps
    for k in range(n):
        for m in range(substeps):
            j = 2 * (k * substeps + m)
            start, mid, end = u[j:j + 3].tolist()
            k1 = _rhs_numpy(f, start)
            k2 = _rhs_numpy(f + hh / 2 * k1, mid)
            k3 = _rhs_numpy(f + hh / 2 * k2, mid)
            k4 = _rhs_numpy(f + hh * k3, end)
            f = f + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(f)) or abs(4 * f[3]) > 350.0:
            raise SqueezeBlowUpError(k + 1, (k + 1) * spec.h)
        out[:, k + 1] = f
    return out


def _reconstruct_expm(f, fdot):
    ads = [ad for ad, _ in _adjoints()]
    n_factors, n = f.shape
    acc = np.zeros((6, n))
    left = np.broadcast_to(np.eye(6), (n, 6, 6))
    for j in range(n_factors):
        acc += fdot[j] * left[:, :, j + 1].T
        if j + 1 < n_factors:
            left = left @ expm(-f[j][:, None, None] * ads[j])
    return acc


def _schrodinger_specs():
    return {
        "constant": ControlSpec.constant(
            "schrodinger", [1.0, 0.2, -0.1, 0.05, 0.1], t_final=0.5, h=1e-3),
        "sinusoid": ControlSpec.from_json({
            "algebra": "schrodinger", "preset": "sinusoid",
            "amplitudes": [1.2, -0.3, 0.3, 0.3, -0.3],
            "frequencies": [1.0, 2.0, 3.0, 1.5, 2.5],
            "phases": [0.0, 0.4, 0.8, 1.2, 1.6],
            "t_final": 1.0, "h": 1e-3,
        }),
    }


class TestNumericalKernels:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 1000, 1001])
    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("h", [1e-3, 0.37])
    def test_cumquad_is_scipy_cumulative_simpson(self, n, rows, h):
        rng = np.random.default_rng(n)
        y = rng.normal(size=n if rows is None else (rows, n))
        want = cumulative_simpson(y, dx=h, initial=0.0)
        got = _cumquad(y, h)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_cumquad_signed_zeros(self, n):
        # partial sums of -0.0, which scipy's added initial value turns
        # into 0.0
        y = np.array([-0.0, -0.0, 0.0, -0.0, -0.0, 0.0][:n])
        want = cumulative_simpson(y, dx=0.5, initial=0.0)
        assert _cumquad(y, 0.5).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["constant", "sinusoid"])
    @pytest.mark.parametrize("substeps", [1, 2])
    def test_integrate_is_the_numpy_loop(self, name, substeps):
        spec = _schrodinger_specs()[name]
        u = spec.stage_samples(substeps)
        got = _rk4(spec, substeps, u)[0]
        want = _integrate_numpy(spec, substeps, u)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("h", [1e-3, 0.0125, 1 / 3, 7e-4])
    @pytest.mark.parametrize("raw", [False, True])
    def test_stored_fdot_reads_the_node_controls(self, h, raw):
        # the controls at the nodes are taken from the stage samples; they
        # are the controls at t = k h to the bit, preset or spline
        spec = ControlSpec.from_json({
            "algebra": "schrodinger", "preset": "sinusoid",
            "amplitudes": [1.2, -0.3, 0.3, 0.3, -0.3],
            "frequencies": [1.0, 2.0, 3.0, 1.5, 2.5],
            "t_final": 0.5, "h": h,
        })
        if raw:
            spec = ControlSpec("schrodinger", h, spec.n_steps, spec.u)
        sol = schrodinger_factors(spec)
        want = np.array([_rhs(*fk[:4], *spec.evaluate(k * h).tolist())
                         for k, fk in enumerate(sol.f.T.tolist())]).T
        assert sol.fdot.tobytes() == want.tobytes()

    def test_integrate_blow_up_at_the_same_step(self):
        spec = ControlSpec.constant("schrodinger", [0, 0, 0, 10.0, 0],
                                    t_final=12.0, h=1e-2)
        u = spec.stage_samples(1)
        with pytest.raises(SqueezeBlowUpError) as got:
            _rk4(spec, 1, u)
        with pytest.raises(SqueezeBlowUpError) as want:
            _integrate_numpy(spec, 1, u)
        assert got.value.step == want.value.step

    def test_adjoints_are_the_exact_brackets(self):
        M = SkewPoly.monomial
        basis = [unit_i(), number_op(), M(MINUS, (1, 0)), M(PLUS, (1, 0)),
                 M(MINUS, (2, 0)), M(PLUS, (2, 0))]
        span = LieSpan(basis)
        for j, (ad, _) in enumerate(_adjoints(), start=1):
            want = np.array([[float(c) for c in
                              span.coordinates(bracket(basis[j], b))]
                             for b in basis]).T
            assert ad.tobytes() == want.tobytes(), j

    def test_nilpotent_adjoints(self):
        for j in (1, 2):  # X2, X3
            ad = _adjoints()[j][0]
            assert np.any(ad @ ad)
            assert not np.any(ad @ ad @ ad)

    def test_adjoint_exponentials_match_expm(self):
        # within |f| <= 0.5 expm itself is accurate to 1e-14 relative to
        # the largest entry on these matrices; beyond it drifts (next test)
        f = np.linspace(-0.5, 0.5, 41)
        for ad, exp_ad in _adjoints():
            for x, got in zip(f, exp_ad(f)):
                want = expm(-x * ad)
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= 1e-14 * scale

    def test_adjoint_exponentials_exact_to_1e_14(self):
        # 40-digit reference over |f| <= 3; expm's own error reaches 7e-14
        # on the rotation and 1e-12 (relative) on the boosts there
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        f = np.linspace(-3.0, 3.0, 25)
        for ad, exp_ad in _adjoints():
            got = exp_ad(f)
            for x, g in zip(f, got):
                want = np.array(
                    mpmath.expm(mpmath.matrix((-x * ad).tolist())).tolist(),
                    dtype=float)
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(g - want)) <= 1e-14 * scale

    @pytest.mark.parametrize("name", ["constant", "sinusoid"])
    def test_reconstruct_matches_expm_product(self, name):
        spec = _schrodinger_specs()[name]
        sol = schrodinger_factors(spec)
        want = _reconstruct_expm(sol.f, sol.fdot)
        got = _reconstruct(_adjoint_frames(sol.f), sol.fdot)
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.max(np.abs(sol.phase - _cumquad(-want[0], spec.h))) <= 1e-16
