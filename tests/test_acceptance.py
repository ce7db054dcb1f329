"""End-to-end acceptance gate: one test per criterion, each with its own
runtime budget and tolerance."""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from skewweyl.classify import (derived_series, fingerprint,
                               lower_central_series, nullity_witness,
                               reference_structure)
from skewweyl.enumerate import (brute_force_subalgebras,
                                enumerate_subalgebras, glossary_report)
from skewweyl.fock_oracle import direct_propagator, state_fidelity
from skewweyl.igusa import (chain_degrees, identity_check, symplectic_search,
                            verify_certificate)
from skewweyl.lie_engine import (Budget, LieSpan, _raw_closure, bracket,
                                 chain_witness, decide_with_free_hamiltonian,
                                 lie_closure, verify_chain_witness)
from skewweyl.wei_norman import (ControlSpec, factored_propagator,
                                 residual_check, schrodinger_factors,
                                 wh2_factors)
from skewweyl.weyl_core import (MINUS, PLUS, SkewPoly, number_op,
                                schrodinger_monomials, unit_i)

from test_fock_oracle import commutator_crosscheck

M = SkewPoly.monomial


@contextmanager
def runtime_budget(seconds: float):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeds {seconds}s"


def test_01_bracket_table_reproduction():
    """Every entry of the six-monomial bracket table, exact, including the
    structural zeros."""
    with runtime_budget(1.0):
        basis = schrodinger_monomials()
        span = LieSpan(basis)
        ref = reference_structure("Schrodinger")
        checked = 0
        for i in range(6):
            for j in range(6):
                got = span.coordinates(bracket(basis[i], basis[j]))
                entry = ref.table.get((i, j), {})
                want = [entry.get(k, Fraction(0)) for k in range(6)]
                assert got == want, (i, j)
                checked += 1
        assert checked == 36


def test_02_glossary_reproduction():
    with runtime_budget(5.0):
        report = glossary_report()
        assert report["total_spans"] == 22
        assert report["dims"] == {1: 6, 2: 7, 3: 4, 4: 4, 6: 1}
        assert report["mismatches"] == {}
        counts = report["counts"]
        assert counts["aff(1)"] == 2
        assert counts["aff(1)+R"] == 2
        assert counts["h1"] == 1
        assert counts["sl2"] == 1
        assert counts["wh1"] == 2
        assert counts["wh2"] == 1
        assert counts["sl2+R"] == 1
        assert counts["Schrodinger"] == 1


def test_03_enumeration_oracle_equivalence():
    """Pruned enumeration equals brute-force subset closure for every basis
    drawn from the six low-degree monomials."""
    with runtime_budget(30.0):
        monos = schrodinger_monomials()
        for r in range(1, 7):
            for subset in itertools.combinations(monos, r):
                pruned = {rec.span.canonical_key()
                          for rec in enumerate_subalgebras(subset)}
                oracle = {sp.canonical_key()
                          for sp in brute_force_subalgebras(subset)}
                assert pruned == oracle, r


def test_04_free_hamiltonian_decisions():
    """20 drift-containing generator sets spanning all four combinations of
    (Kerr-type support, linear/quadratic support); exact verdicts match
    budgeted closure and infinite cases carry verified chain witnesses."""
    with runtime_budget(30.0):
        drift = number_op()
        drift_c = number_op() + unit_i()
        kerr2, kerr3 = M(PLUS, (2, 2)), M(PLUS, (3, 3))
        disp_p, disp_m = M(PLUS, (1, 0)), M(MINUS, (1, 0))
        sq_p, sq_m = M(PLUS, (2, 0)), M(MINUS, (2, 0))

        finite_sets = [
            # neither Kerr nor linear/quadratic beyond the drift
            [drift], [drift_c], [drift, unit_i()],
            # linear/quadratic, no Kerr
            [drift, disp_p], [drift, disp_p, disp_m],
            [drift, sq_p, sq_m], [drift_c, disp_m, sq_p],
            [drift, disp_p, sq_m],
            # Kerr, no linear/quadratic
            [drift, kerr2], [drift, kerr3], [drift_c, kerr2, kerr3],
            [drift, kerr2 + unit_i()],
        ]
        mixed_sets = [
            # both Kerr and linear/quadratic support: infinite
            [drift, kerr2, disp_p], [drift, kerr2, sq_m],
            [drift, kerr3, disp_m], [drift_c, kerr2 + unit_i(), disp_p],
        ]
        perp_sets = [
            [drift, M(PLUS, (2, 1))], [drift, M(MINUS, (3, 0))],
            [drift_c, M(PLUS, (3, 1))], [drift, M(MINUS, (4, 1))],
        ]
        assert len(finite_sets) + len(mixed_sets) + len(perp_sets) == 20

        for gens in finite_sets:
            out = decide_with_free_hamiltonian(gens)
            assert out.outcome == "finite"
            assert out.span.dim <= 6
            raw = _raw_closure(gens, Budget(max_dim=16, max_degree=24))
            assert raw.outcome == "finite"
            assert raw.span == out.span

        for gens in mixed_sets:
            out = decide_with_free_hamiltonian(gens)
            assert out.outcome == "infinite"
            kerr = next(g for g in gens if g.project("Aeq"))
            seed = next(g for g in gens
                        if g.project("A1") or g.project("A2"))
            w = chain_witness(seed, kerr)
            assert w is not None and verify_chain_witness(w)

        for gens in perp_sets:
            out = decide_with_free_hamiltonian(gens)
            assert out.outcome == "infinite"
            assert out.witness.rule == "PerpWithFreeHam"
            perp = next(g for g in gens if g.project("Aperp"))
            partner = bracket(gens[0], perp)  # same degree, opposite sign
            w = chain_witness(partner, perp)
            assert w is not None and verify_chain_witness(w)


def test_05_classification_invariants():
    with runtime_budget(1.0):
        h1 = lie_closure([M(PLUS, (1, 0)), M(MINUS, (1, 0))]).span
        assert [s.dim for s in lower_central_series(h1)] == [3, 1, 0]

        full = LieSpan(schrodinger_monomials())
        ds = derived_series(full)
        assert ds[-1].dim == 6  # stabilizes at full dimension: not solvable

        wh1 = lie_closure([M(PLUS, (1, 0)) + M(MINUS, (1, 0)),
                           M(MINUS, (2, 0))]).span
        wh2 = lie_closure([number_op(), M(MINUS, (1, 0))]).span
        f1, f2 = fingerprint(wh1), fingerprint(wh2)
        assert f1.dim == f2.dim == 4
        assert f1.killing_signature != f2.killing_signature


def test_06_nullity_pairs():
    """The known two-element generating sets regenerate their algebras;
    single elements never do."""
    with runtime_budget(5.0):
        pairs = {
            "wh2": (LieSpan([unit_i(), number_op(),
                             M(PLUS, (1, 0)), M(MINUS, (1, 0))]),
                    (number_op(), M(MINUS, (1, 0)))),
            "sl2": (lie_closure([M(PLUS, (2, 0)), M(MINUS, (2, 0))]).span,
                    (M(PLUS, (2, 0)), M(MINUS, (2, 0)))),
            "wh1": (lie_closure([M(PLUS, (1, 0)) + M(MINUS, (1, 0)),
                                 M(MINUS, (2, 0))]).span,
                    (M(PLUS, (1, 0)) + M(MINUS, (1, 0)), M(MINUS, (2, 0)))),
            "sl2+R": (lie_closure([M(PLUS, (2, 0)),
                                   M(MINUS, (2, 0)) + unit_i()]).span,
                      (M(PLUS, (2, 0)), M(MINUS, (2, 0)) + unit_i())),
            "Schrodinger": (LieSpan(schrodinger_monomials()),
                            (number_op(),
                             M(MINUS, (1, 0)) + M(MINUS, (2, 0)))),
        }
        for name, (span, pair) in pairs.items():
            assert nullity_witness(span, pair), name

        rng = random.Random(23)
        for name, (span, _) in pairs.items():
            if span.dim < 2:
                continue
            for _ in range(5):
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in span.basis]
                x = SkewPoly.zero()
                for c, b in zip(coeffs, span.basis):
                    x = x + b.scale(c)
                if not x:
                    continue
                single = lie_closure([x])
                assert single.outcome == "finite"
                assert single.span.dim < span.dim, name


def test_07_wh2_constant_drive():
    """Constant (omega, eps) drive: quadratures match the analytic factor
    functions to 1e-10 and the factored propagator agrees with direct
    time-ordered integration."""
    with runtime_budget(20.0):
        omega, eps, t_final, h = 1.0, 0.2, 2.0, 1e-3
        spec = ControlSpec.constant("wh2", [omega, eps, 0.0], t_final, h)
        sol = wh2_factors(spec)
        t = spec.grid
        f1 = omega * t
        f2 = eps * np.sin(omega * t) / omega
        f3 = eps * (np.cos(omega * t) - 1.0) / omega
        phase = (-eps ** 2 * t / omega
                 + eps ** 2 * np.sin(2 * omega * t) / (2 * omega ** 2))
        assert np.max(np.abs(sol.f[0] - f1)) < 1e-10
        assert np.max(np.abs(sol.f[1] - f2)) < 1e-10
        assert np.max(np.abs(sol.f[2] - f3)) < 1e-10
        assert np.max(np.abs(sol.phase - phase)) < 1e-10

        N = 64
        Uf = factored_propagator(sol, spec.n_steps, N)
        vac = np.zeros(N)
        vac[0] = 1.0
        plus = np.zeros(N)
        plus[0] = plus[1] = 1.0 / math.sqrt(2)
        block = np.column_stack([vac, plus])
        Yd = direct_propagator(spec, N, psi0=block)
        for j, psi in enumerate((vac, plus)):
            assert state_fidelity(Uf @ psi, Yd[:, j]) >= 1 - 1e-6


def test_08_schrodinger_factorization():
    """Five-factor solver: reduces to the three-factor quadratures without
    squeezing, and self-consistent + oracle-accurate with small squeezing."""
    with runtime_budget(60.0):
        h, t_final = 1e-3, 1.0
        amps3 = [1.0, 0.3, 0.2]
        freqs3 = [1.0, 2.0, 3.0]
        spec5 = ControlSpec.from_json({
            "algebra": "schrodinger", "preset": "sinusoid",
            "amplitudes": amps3 + [0.0, 0.0], "frequencies": freqs3 + [1, 1],
            "t_final": t_final, "h": h,
        })
        spec3 = ControlSpec.from_json({
            "algebra": "wh2", "preset": "sinusoid",
            "amplitudes": amps3, "frequencies": freqs3,
            "t_final": t_final, "h": h,
        })
        sol5, sol3 = schrodinger_factors(spec5), wh2_factors(spec3)
        assert np.max(np.abs(sol5.f[:3] - sol3.f)) < 1e-8

        squeeze = ControlSpec.constant(
            "schrodinger", [1.0, 0.2, 0.1, 0.0, 0.1], t_final, h)
        sol = schrodinger_factors(squeeze)
        assert residual_check(squeeze, sol) < 1e-8

        N = 96
        Uf = factored_propagator(sol, squeeze.n_steps, N)
        vac = np.zeros(N)
        vac[0] = 1.0
        psi = direct_propagator(squeeze, N, psi0=vac)
        assert state_fidelity(Uf @ vac, psi) >= 1 - 1e-5


def test_09_leading_coefficient_certificates():
    """The pure-minus/pure-plus cubic pair: inconclusive at the identity
    frame, certified infinite after a frame change, confirmed by degree
    growth."""
    with runtime_budget(10.0):
        e1 = M(MINUS, (3, 0))
        e2 = M(PLUS, (3, 0))
        assert identity_check(e1, e2) == "inconclusive"
        cert = symplectic_search(e1, e2)
        assert cert is not None
        assert cert.verdict == "infinite"
        assert verify_certificate(cert, e1, e2)
        degrees = chain_degrees(e1, e2, cert.params, steps=4)
        growth = sum(1 for a, b in zip(degrees, degrees[1:]) if b > a)
        assert growth >= 3


def test_10_randomized_property_sweep():
    """Exact bracket axioms on 500 triples, 100 Fock cross-checks, and 500
    skew-closure pairs, all under one seed."""
    with runtime_budget(60.0):
        rng = random.Random(2024)
        keys = [(sigma, (a, b))
                for a in range(6) for b in range(a + 1) if a + b <= 5
                for sigma in (PLUS, MINUS)
                if not (sigma == MINUS and a == b)]

        def rand_skew(max_terms=3):
            out = SkewPoly.zero()
            for _ in range(rng.randint(1, max_terms)):
                sigma, gamma = rng.choice(keys)
                out = out + M(sigma, gamma, Fraction(rng.randint(-3, 3)))
            return out

        for _ in range(500):
            x, y, z = rand_skew(2), rand_skew(2), rand_skew(2)
            assert bracket(x, y) == bracket(y, x).scale(-1)
            jac = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                   + bracket(z, bracket(x, y)))
            assert jac == SkewPoly.zero()

        low_keys = [k for k in keys if sum(k[1]) <= 3]
        for _ in range(100):
            # degree <= 3 keeps matrix entries small enough that 1e-10
            # absolute interior error is meaningful in double precision
            out = []
            for _k in range(2):
                x = SkewPoly.zero()
                for _t in range(rng.randint(1, 2)):
                    sigma, gamma = rng.choice(low_keys)
                    x = x + M(sigma, gamma, Fraction(rng.randint(-3, 3)))
                out.append(x.to_weyl())
            assert commutator_crosscheck(out[0], out[1], 24) < 1e-10

        for _ in range(500):
            x, y = rand_skew(), rand_skew()
            z = bracket(x, y)
            # closed under the skew structure: roundtrips through the
            # normal-ordered representation without loss
            assert SkewPoly.from_weyl(z.to_weyl()) == z
            w = z.to_weyl()
            assert w.dagger().terms == {k: -v for k, v in w.terms.items()}
