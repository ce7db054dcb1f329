"""Series, Killing forms, fingerprints, and catalog identification."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewweyl.classify import (
    _CONCRETE_SC,
    CatalogEntry,
    Fingerprint,
    StructureConstants,
    _chain_ext_sc,
    _chain_sc,
    _fingerprint_from_sc,
    _identify_table,
    _killing_from_sc,
    catalog_fingerprints,
    center,
    derived_series,
    fingerprint,
    identify,
    killing_form,
    lower_central_series,
    nilpotent_chain_basis,
    nullity_witness,
)
from skewweyl.enumerate import enumerate_subalgebras
from skewweyl.lie_engine import LieSpan, bracket, lie_closure
from skewweyl.weyl_core import (
    MINUS,
    PLUS,
    GaussianRational,
    SkewPoly,
    number_op,
    schrodinger_monomials,
    skew_from_json,
    unit_i,
)

from test_linalg import from_sympy
from test_weyl_core import assert_record_contract


def gp(a, b, c=1):
    return SkewPoly.monomial(PLUS, (a, b), Fraction(c))


def gm(a, b, c=1):
    return SkewPoly.monomial(MINUS, (a, b), Fraction(c))


def span_of(*gens):
    out = lie_closure(list(gens))
    assert out.outcome == "finite"
    return out.span


def skew_power(x, k):
    """x^k as a skew element (times i for even k)."""
    w = x.to_weyl()
    out = w
    for _ in range(k - 1):
        out = out * w
    if k % 2 == 0:
        out = out.scale(GaussianRational.imag(1))
    return SkewPoly.from_weyl(out)


def displacement_power(k):
    """(a - a†)^k as a skew element (times i for even k)."""
    return skew_power(gm(1, 0), k)


FULL = span_of(*schrodinger_monomials())
H1 = span_of(unit_i(), gp(1, 0), gm(1, 0))
WH1 = span_of(unit_i(), gp(1, 0), gm(1, 0), gm(2, 0))
WH2 = span_of(number_op(), gm(1, 0))
SL2 = span_of(gp(2, 0), gm(2, 0))
SL2R = span_of(unit_i(), number_op(), gp(2, 0), gm(2, 0))

#: Bianchi IV, [w, d1] = d1 and [w, d2] = d1 + d2: ad w is a Jordan block
BIANCHI_IV = StructureConstants(3, {(0, 1): {1: 1}, (0, 2): {1: 1, 2: 1}})
#: Bianchi V, [w, d1] = d1 and [w, d2] = d2: the same fingerprint, r(1, 1)
BIANCHI_V = StructureConstants(3, {(0, 1): {1: 1}, (0, 2): {2: 1}})
#: a Jordan block of weight 1 beside the weight 2, and its diagonal twin
JORDAN_4 = StructureConstants(4, {(0, 1): {1: 1}, (0, 2): {1: 1, 2: 1},
                                  (0, 3): {3: 2}})
DIAGONAL_4 = StructureConstants(4, {(0, 1): {1: 1}, (0, 2): {2: 1},
                                    (0, 3): {3: 2}})


class TestSeries:
    def test_full_algebra_not_solvable(self):
        dims = [s.dim for s in derived_series(FULL)]
        assert dims == [6]  # stabilizes immediately: [S, S] = S

    def test_heisenberg_series(self):
        assert [s.dim for s in derived_series(H1)] == [3, 1, 0]
        assert [s.dim for s in lower_central_series(H1)] == [3, 1, 0]

    def test_abelian(self):
        ab = LieSpan([unit_i(), number_op()])
        assert [s.dim for s in derived_series(ab)] == [2, 0]
        assert [s.dim for s in lower_central_series(ab)] == [2, 0]

    def test_chain_realization_lcs(self):
        # x = i(a+a†) together with (a-a†)^k, k <= 3: a 5-dim nilpotent chain
        sp = span_of(gp(1, 0), displacement_power(3))
        assert sp.dim == 5
        assert [s.dim for s in lower_central_series(sp)] == [5, 3, 2, 1, 0]

    def test_requires_closed_span(self):
        with pytest.raises(ValueError):
            derived_series(LieSpan([gp(1, 0), gm(1, 0)]))

    def test_center_of_full_algebra(self):
        z = center(FULL)
        assert z.dim == 1 and z.contains(unit_i())


class TestKilling:
    def test_sl2_signature(self):
        gram, rank, sig = killing_form(SL2)
        assert rank == 3 and sig == (2, 1, 0)

    def test_nilpotent_killing_vanishes(self):
        gram, rank, sig = killing_form(H1)
        assert all(x == 0 for row in gram for x in row) and sig == (0, 0, 3)

    def test_wh1_wh2_distinct_signatures(self):
        _, _, sig1 = killing_form(WH1)
        _, _, sig2 = killing_form(WH2)
        assert sig1 != sig2
        assert sig1 == (1, 0, 3) and sig2 == (0, 1, 3)

    def test_congruence_invariance(self):
        # recompute in a rationally transformed basis of sl2+R
        import random
        rng = random.Random(3)
        base = SL2R.basis
        while True:
            mix = [
                sum((b.scale(Fraction(rng.randint(-2, 2))) for b in base),
                    SkewPoly.zero())
                for _ in base
            ]
            new = LieSpan(mix)
            if new.dim == len(base):
                break
        _, rank1, sig1 = killing_form(SL2R)
        _, rank2, sig2 = killing_form(new)
        assert (rank1, sig1) == (rank2, sig2)


def dense_killing(sc):
    """Reference Gram matrix Tr(ad_i ad_j) from dense ad matrices, whose
    column j holds the coordinates of [b_i, b_j]."""
    n = sc.n
    ads = [[[sc.table.get((i, j), {}).get(k, Fraction(0)) for j in range(n)]
            for k in range(n)] for i in range(n)]
    return [[sum((P[k][l] * Q[l][k] for k in range(n) for l in range(n)),
                 Fraction(0)) for Q in ads] for P in ads]


def _table_cases():
    """The concrete catalog, L_2..L_7, Ltilde_2..Ltilde_5 and the 22
    glossary spans."""
    cases = list(_CONCRETE_SC.items())
    cases += [(f"L_{n}", _chain_sc(n)) for n in range(2, 8)]
    cases += [(f"Ltilde_{n}", _chain_ext_sc(n)) for n in range(2, 6)]
    records = enumerate_subalgebras(schrodinger_monomials())
    assert len(records) == 22
    cases += [(f"glossary_{k}", StructureConstants.from_span(r.span))
              for k, r in enumerate(records)]
    return [pytest.param(sc, id=name) for name, sc in cases]


class TestKillingAgainstDenseReference:
    @pytest.mark.parametrize("sc", _table_cases())
    def test_gram_rank_and_signature(self, sc):
        want = dense_killing(sc)
        gram, rank, sig = _killing_from_sc(sc)
        assert gram == want
        assert rank == sympy.Matrix(want).rank()
        assert rank == sig[0] + sig[1] and sum(sig) == sc.n
        assert _fingerprint_from_sc(sc).killing_rank == rank


class TestSparseTable:
    @pytest.mark.parametrize("sc", _table_cases())
    def test_antisymmetric_without_zero_entries(self, sc):
        for (i, j), v in sc.table.items():
            assert i != j and 0 <= min(i, j) and max(i, j) < sc.n
            assert v and all(v.values()) and set(v) <= set(range(sc.n))
            assert sc.table[j, i] == {k: -c for k, c in v.items()}

    def test_derived_algebra_is_formed_once(self, monkeypatch):
        from skewweyl import classify

        path = Path(__file__).parent / "data" / "classify_graded_chain.json"
        span = LieSpan(skew_from_json(e) for e in json.loads(path.read_text()))
        n = span.dim
        # fill the reference caches first, so only the span's own table runs
        assert identify(span).name == "Unrecognized"
        full = []
        real = classify._subspace_product

        def counted(sc, A, B):
            if len(A) == len(B) == n:
                full.append(sc)
            return real(sc, A, B)

        monkeypatch.setattr(classify, "_subspace_product", counted)
        assert identify(span).name == "Unrecognized"
        assert len(full) == 1


_FP_FIELDS = (3, (3, 1, 0), (3, 1, 1), 1, True, False, 0, (0, 0, 3))
_FP = Fingerprint(*_FP_FIELDS)


class TestFingerprintAndIdentify:
    @pytest.mark.parametrize("cls, values", [
        (Fingerprint, _FP_FIELDS),
        (CatalogEntry, ("L_n", (2,), _FP, "structural")),
        (CatalogEntry, ("Unrecognized", (), None, "none")),
    ], ids=["Fingerprint", "CatalogEntry", "CatalogEntry_unrecognized"])
    def test_record_contract(self, cls, values):
        assert_record_contract(cls, values, hashable=True)

    def test_catalog_entry_defaults(self):
        assert CatalogEntry("R^n") == CatalogEntry("R^n", (), None,
                                                   "fingerprint")

    def test_catalog_distinct(self):
        fps = catalog_fingerprints()
        assert len(set(fps.values())) == len(fps)

    def test_named_realizations(self):
        assert identify(WH1).name == "wh1"
        assert identify(WH2).name == "wh2"
        assert identify(SL2).name == "sl2"
        assert identify(SL2R).name == "sl2+R"
        assert identify(H1).name == "h1"
        assert identify(FULL).name == "Schrodinger"

    def test_abelian_identification(self):
        entry = identify(LieSpan([unit_i(), gp(2, 2), gp(3, 3)]))
        assert entry.name == "R^n" and entry.parameters == (3,)

    def test_chain_family(self):
        sp = span_of(gp(1, 0), displacement_power(4))
        entry = identify(sp)
        assert entry.name == "L_n" and entry.parameters == (5,)

    def test_fingerprint_consistency(self):
        fp = fingerprint(WH2)
        assert fp.solvable and not fp.nilpotent
        assert fp.killing_rank == sum(fp.killing_signature[:2])
        assert fp.nilpotent <= fp.solvable

    def test_non_catalog_fingerprint_matches_nothing(self):
        # h1 + R (abstract) is outside the catalog and outside the chain
        # family; its fingerprint must collide with neither
        from skewweyl.classify import (StructureConstants, _chain_sc,
                                       _fingerprint_from_sc)

        h1_plus_r = StructureConstants(4, {(0, 1): {2: Fraction(1)}})
        fp = _fingerprint_from_sc(h1_plus_r)
        assert fp not in set(catalog_fingerprints().values())
        assert fp != _fingerprint_from_sc(_chain_sc(3))

    def test_diagonal_weights_independent_of_basis_sign(self):
        # a²-a†² acts on the abelian span of the powers of i(a+a†) with
        # weights 1 : 2/3 : 1/3, whichever sign the basis carries
        x = gp(1, 0)
        sp = span_of(gm(2, 0), x, skew_power(x, 2), skew_power(x, 3))
        negated = LieSpan([b.scale(-1) for b in sp.basis])
        want = (Fraction(1), Fraction(2, 3), Fraction(1, 3))
        for b in (sp, negated):
            entry = identify(b)
            assert entry.name == "r(j1..jn)" and entry.parameters == want

    def test_diagonal_weights_independent_of_basis_order(self):
        # the generator acting on the derived algebra is read off a
        # different basis vector in different orders; the normalised
        # weights are the same
        x = gp(1, 0)
        sp = span_of(gm(2, 0), x, skew_power(x, 2), skew_power(x, 3))
        want = (Fraction(1), Fraction(2, 3), Fraction(1, 3))
        orders = list(itertools.permutations(sp.basis))
        assert len(orders) == 24
        for order in orders:
            entry = identify(LieSpan(order))
            assert entry.name == "r(j1..jn)" and entry.parameters == want

    def test_chain_reference_fingerprint_is_computed_once(self, monkeypatch):
        # the benchmark's set-up fills `_catalog()` and relies on each
        # dimension's reference fingerprints being kept after that
        from skewweyl import classify

        chain = span_of(gp(1, 0), displacement_power(4))
        cases = [(lambda: identify(chain), "L_n"),
                 (lambda: identify(WH2), "wh2"),
                 (lambda: _identify_table(_chain_ext_sc(3)), "Ltilde_n")]
        classify._catalog()
        calls = []
        real = classify._fingerprint_from_sc
        monkeypatch.setattr(classify, "_fingerprint_from_sc",
                            lambda sc: calls.append(sc) or real(sc))
        for lookup, name in cases:
            assert lookup().name == name
            calls.clear()
            assert lookup().name == name
            # only the table's own fingerprint, not the references' again
            assert len(calls) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chain_extension_family(self, n):
        entry = _identify_table(_chain_ext_sc(n))
        assert entry.name == "Ltilde_n" and entry.parameters == (n,)

    def test_a_jordan_block_is_not_diagonal(self):
        # equal fingerprints, but only Bianchi V is r(1, 1): a claim for
        # Bianchi IV would name an isomorphism that does not exist
        fp = _fingerprint_from_sc(BIANCHI_V)
        assert _fingerprint_from_sc(BIANCHI_IV) == fp
        assert _identify_table(BIANCHI_V) == CatalogEntry(
            "r(j1..jn)", (1, 1), fp, "structural")
        assert _identify_table(BIANCHI_IV) == CatalogEntry(
            "Unrecognized", (), fp, "none")
        assert _identify_table(JORDAN_4).name == "Unrecognized"
        assert _identify_table(DIAGONAL_4).parameters == (
            1, Fraction(1, 2), Fraction(1, 2))

    def test_identification_json(self):
        obj = identify(WH2).to_json()
        assert obj["name"] == "wh2"
        assert obj["fingerprint"]["killing_signature"] == [0, 1, 3]


def reference_tables():
    """Every table the lookup names: the concrete catalog, R^n for n <= 4,
    L_2..L_7 and Ltilde_2..Ltilde_5."""
    return (list(_CONCRETE_SC.values())
            + [StructureConstants(n, {}) for n in range(1, 5)]
            + [_chain_sc(n) for n in range(2, 8)]
            + [_chain_ext_sc(n) for n in range(2, 6)])


@st.composite
def diagonal_tables(draw):
    """r(j1..jn): [w, d_k] = j_k d_k for nonzero integer weights."""
    weights = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=1,
                            max_size=4))
    return StructureConstants(len(weights) + 1, {
        (0, k): {k: j} for k, j in enumerate(weights, 1)})


def change_basis(sc, P):
    """sc's table in the basis b'_i = sum_j P[i][j] b_j, P invertible: a
    bracket with old coordinates v has new coordinates v P^-1."""
    n = sc.n
    inv = sympy.Matrix(P).inv()
    entries = {}
    for i, j in itertools.combinations(range(n), 2):
        old = {}
        for (k, l), v in sc.table.items():
            for m, c in v.items():
                old[m] = old.get(m, 0) + P[i][k] * P[j][l] * c
        entries[i, j] = {r: sum(c * from_sympy(inv[m, r])
                                for m, c in old.items()) for r in range(n)}
    return StructureConstants(n, entries)


class TestLookupInAnyBasis:
    @given(st.one_of(st.sampled_from(reference_tables()), diagonal_tables()),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_integer_change_of_basis_keeps_the_entry(self, sc, data):
        n = sc.n
        P = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                        max_size=n), min_size=n, max_size=n))
        assume(sympy.Matrix(P).det() != 0)
        entry = _identify_table(sc)
        assert entry.name != "Unrecognized"
        assert _identify_table(change_basis(sc, P)) == entry


class TestNullity:
    def test_wh2_pair(self):
        assert nullity_witness(WH2, (number_op(), gm(1, 0)))

    def test_repeated_element_fails(self):
        assert not nullity_witness(WH2, (gm(1, 0), gm(1, 0)))

    def test_outside_element_rejected(self):
        with pytest.raises(ValueError):
            nullity_witness(WH2, (number_op(), gp(2, 0)))


class TestNilpotentChainBasis:
    def test_heisenberg(self):
        ys, x = nilpotent_chain_basis(H1)
        assert len(ys) == 2
        assert not bracket(ys[0], ys[1])
        assert bracket(x, ys[1]) == ys[0]
        assert not bracket(x, ys[0])

    def test_longer_chain(self):
        sp = span_of(gp(1, 0), displacement_power(3))
        ys, x = nilpotent_chain_basis(sp)
        assert len(ys) == sp.dim - 1
        for u in ys:
            for v in ys:
                assert not bracket(u, v)
        for j in range(1, len(ys)):
            assert bracket(x, ys[j]) == ys[j - 1]

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError):
            nilpotent_chain_basis(SL2)
