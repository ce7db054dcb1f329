"""Seeded task lists for the four workloads.

A task is one or two calls to `skewweyl.cli.run` on JSON input files that are
generated here, before any timing starts.  `build` returns one *pass*: a
fixed mix of task shapes with seeded contents, so two seeds give lists with
the same composition and nearly the same work.  `run.py` repeats the pass
in a closed loop for the run's length and reports medians over the passes,
so a faster program completes each pass sooner, which is what `wall_s`
measures.  `PASS_BLOCKS` sets how many blocks of shapes one pass holds; on
the program as it was when the benchmark was written (2-core x86-64
container, Python 3.11) one pass takes 3 to 14 seconds, so a 20-second run
makes two to six passes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence

from skewweyl.weyl_core import (
    MINUS,
    PLUS,
    GaussianRational,
    SkewPoly,
    WeylPoly,
    mdeg,
    number_op,
    schrodinger_monomials,
    skew_to_json,
    unit_i,
)

PASS_BLOCKS = {"glossary": 2, "chains": 1, "verdicts": 24, "dynamics": 1}

M = SkewPoly.monomial

#: skew monomial keys of degree <= 4
KEYS4 = [(s, (a, b)) for a in range(5) for b in range(a + 1) if a + b <= 4
         for s in (PLUS, MINUS) if not (s == MINUS and a == b)]
#: linear and quadratic keys (subspaces A1 and A2)
LOW_KEYS = [(PLUS, (1, 0)), (MINUS, (1, 0)), (PLUS, (2, 0)), (MINUS, (2, 0))]
KERR_KEY = (PLUS, (2, 2))
#: i and i a†a (subspace A0)
A0_KEYS = [(PLUS, (0, 0)), (PLUS, (1, 1))]


@dataclass
class Task:
    """One unit of closed-loop work.

    `argv` names input files by their keys in `files`; `materialise`
    writes the files and turns those names into paths.  `expect` holds what
    the output check needs.
    """
    kind: str  # glossary | oracle | chain | closure | igusa | simulate
    files: Dict[str, object]
    argv: List[str]
    expect: dict = field(default_factory=dict)


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _elements(elems: Sequence[SkewPoly]) -> list:
    return [skew_to_json(e) for e in elems]


# ---------------------------------------------------------------------------
# glossary: enumerate over a basis of the six degree-<=2 monomials
# ---------------------------------------------------------------------------

_PAIRS = [(i, j) for i in range(6) for j in range(i)]


def _glossary_shape(slot: int):
    """(order, mixed positions) of a slot of a pass.  The order of the basis
    and the monomials a mixture joins set the cost of the enumeration, so
    they come from the slot, the same for every seed; the seed draws the
    scales and the mixing coefficients."""
    rng = random.Random(f"glossary-shape:{slot}")
    return rng.sample(range(6), 6), rng.sample(_PAIRS, 2)


def _rescaled_basis(rng: random.Random, order) -> List[SkewPoly]:
    monomials = schrodinger_monomials()
    return [monomials[k].scale(rng.choice((-3, -2, -1, 1, 2, 3)))
            for k in order]


def _unipotent_basis(rng: random.Random, order, entries) -> List[SkewPoly]:
    """The monomials in `order` times a unipotent lower-triangular integer
    matrix with seeded values at the two off-diagonal `entries`."""
    perm = [schrodinger_monomials()[k] for k in order]
    basis = []
    for i, v in enumerate(perm):
        for j in (j for (r, j) in entries if r == i):
            v = v + perm[j].scale(rng.choice((-2, -1, 1, 2)))
        basis.append(v)
    return basis


def _glossary(rng: random.Random, blocks: int, tiny: bool) -> List[Task]:
    # two monomial bases to one mixture: the median task is then a
    # monomial basis rather than the boundary between the two kinds
    tasks = []
    for b in range(blocks):
        shapes = [_glossary_shape(3 * b + k) for k in range(3)]
        for kind, basis in (
                ("glossary", _rescaled_basis(rng, shapes[0][0])),
                ("glossary", _rescaled_basis(rng, shapes[1][0])),
                ("oracle", _unipotent_basis(rng, *shapes[2]))):
            doc = _elements(basis)
            tasks.append(Task(kind, {"basis.json": doc},
                              ["enumerate", "--basis", "basis.json"],
                              {"basis": doc}))
    return tasks


# ---------------------------------------------------------------------------
# chains: {x, i P(q_theta)} generates the filiform chain L_{n+1}
# ---------------------------------------------------------------------------

#: rational angles: t -> (cos, sin) = ((1-t^2), 2t) / (1+t^2); all eight
#: give cos and sin in {±3/5, ±4/5}, so the exact arithmetic does the same
#: amount of work whichever is drawn
_HALF_TANGENTS = tuple(Fraction(s * k) for s in (1, -1)
                       for k in (Fraction(1, 2), Fraction(1, 3), 2, 3))


def _times_i(p: WeylPoly) -> SkewPoly:
    return SkewPoly.from_weyl(p.scale(GaussianRational.imag(1)))


def chain_generators(rng: random.Random, n: int) -> List[SkewPoly]:
    """x = i p_theta and i P(q_theta) for a seeded rational angle theta and
    a degree-n polynomial P whose coefficient of q^k has magnitude
    k mod 3 + 1 and a seeded sign: every seed gives numbers of the same
    size, so the exact arithmetic costs the same whichever seed is drawn.

    With q_theta = cos(theta)(a + a†) - i sin(theta)(a - a†) and p_theta its
    conjugate quadrature, [x, i q^k] = 2ik q^(k-1): ad_x walks i P down
    through its derivatives, so the closure is x plus n+1 commuting
    elements, dim n+2, the nilpotent chain L_n with parameter n+1.
    """
    t = rng.choice(_HALF_TANGENTS)
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    q = WeylPoly({(0, 1): GaussianRational(c, -s),
                  (1, 0): GaussianRational(c, s)})
    p = WeylPoly({(0, 1): GaussianRational(-s, -c),
                  (1, 0): GaussianRational(-s, c)})
    poly, power = WeylPoly(), WeylPoly({(0, 0): GaussianRational.real(1)})
    for k in range(n + 1):
        c = rng.choice((-1, 1)) * (k % 3 + 1)
        poly = poly + power.scale(GaussianRational.real(c))
        power = power * q
    return [_times_i(p), _times_i(poly)]


def _chain_task(rng: random.Random, n: int, budget_dim=None) -> Task:
    gens = _elements(chain_generators(rng, n))
    argv = ["closure", "--gens", "gens.json"]
    expect = {"n": n, "gens": gens}
    if budget_dim is not None:
        argv += ["--budget-dim", str(budget_dim)]
        expect["budget_dim"] = budget_dim
    return Task("chain", {"gens.json": gens}, argv, expect)


def _chains(rng: random.Random, blocks: int, tiny: bool) -> List[Task]:
    # n = 3..7, n = 4 three times, and two capped tasks, (n, budget) =
    # (4, 3) and (5, 4), which stop early and skip classify: the block's
    # median is then always the middle of the three full n = 4 tasks.  n = 8
    # and 9 (6 and 11 s a task) would leave no room for a second pass in a
    # run.
    degrees = (3, 4) if tiny else (3, 4, 4, 4, 5, 6, 7)
    capped = ((3, 2),) if tiny else ((4, 3), (5, 4))
    tasks = []
    for _ in range(blocks):
        block = [_chain_task(rng, n) for n in degrees]
        block += [_chain_task(rng, n, budget) for n, budget in capped]
        rng.shuffle(block)
        tasks += block
    return tasks


# ---------------------------------------------------------------------------
# verdicts: many cheap closures and the igusa frame search
# ---------------------------------------------------------------------------

def _random_element(shape: random.Random, rng: random.Random, keys,
                    max_terms: int) -> SkewPoly:
    """Up to `max_terms` monomials from `keys` drawn by `shape`, with
    coefficients drawn by `rng`."""
    out = SkewPoly()
    while not out:
        for _ in range(shape.randint(1, max_terms)):
            out = out + M(*shape.choice(keys), _coeff(rng))
    return out


def _top(rng: random.Random, degree: int, mixed: bool) -> SkewPoly:
    """a^d terms and, when `mixed`, a† a^(d-1) terms: the data the
    leading-coefficient tests work on."""
    tops = [(degree, 0)] + ([(degree - 1, 1)] if mixed else [])
    return SkewPoly({(s, g): _coeff(rng) for g in tops for s in (PLUS, MINUS)})


def _leading_element(shape: random.Random, rng: random.Random,
                     degree: int) -> SkewPoly:
    """A degree-d element: a `_top`, mixed half of the time, and one or
    two random lower terms."""
    below = [k for k in KEYS4 if mdeg(k[1]) < degree]
    return (_top(rng, degree, shape.random() < 0.5)
            + _random_element(shape, rng, below, 2))


def _igusa_element(rng: random.Random, degree: int, mixed: bool) -> SkewPoly:
    """A degree-d element of fixed shape, a `_top` and the lower terms
    g+(d-2, 0) and g-(1, 0), with seeded coefficients: the frame search
    costs nearly the same for every seed."""
    return (_top(rng, degree, mixed) + M(PLUS, (degree - 2, 0), _coeff(rng))
            + M(MINUS, (1, 0), _coeff(rng)))


def _closure_generators(shape: random.Random, rng: random.Random,
                        family: str) -> List[SkewPoly]:
    """A generator set of the family: `shape` draws its monomials and
    degrees, `rng` its coefficients."""
    if family == "monomial":
        return [M(*k, _coeff(rng))
                for k in shape.sample(KEYS4, shape.randint(2, 3))]
    if family == "drift":
        drift = (number_op().scale(shape.randint(1, 3))
                 + unit_i().scale(shape.randint(-2, 2)))
        gens = [drift]
        for _ in range(shape.randint(1, 2)):
            pool = shape.choices((LOW_KEYS, LOW_KEYS + [KERR_KEY], KEYS4),
                                 weights=(5, 2, 3))[0]
            gens.append(_random_element(shape, rng, pool, 2))
        return gens
    kind = shape.randrange(3)
    if kind == 0:
        return [_leading_element(shape, rng, shape.randint(3, 4))
                for _ in range(2)]
    keys = KEYS4 if kind == 1 else LOW_KEYS + A0_KEYS
    return [_random_element(shape, rng, keys, 3) for _ in range(2)]


def _igusa_task(rng: random.Random, degree: int, proportional: bool,
                mixed: bool) -> Task:
    e1 = _igusa_element(rng, degree, mixed)
    if proportional:
        e2 = e1.scale(_coeff(rng))
    else:
        e2 = _igusa_element(rng, 3 + (degree - 2) % 4, mixed)
    d1, d2 = skew_to_json(e1), skew_to_json(e2)
    return Task("igusa", {"e1.json": d1, "e2.json": d2},
                ["igusa", "--e1", "e1.json", "--e2", "e2.json"],
                {"e1": d1, "e2": d2, "proportional": proportional})


def _verdicts(rng: random.Random, blocks: int, tiny: bool) -> List[Task]:
    families = ("monomial", "drift", "general") * 3
    # igusa pairs: every other one proportional; over 8 blocks each kind
    # sees the first element's degrees 3..6 once, with the a† a^(d-1) top
    # terms in the first and third run of 8 blocks.  The shape of the pair
    # is fixed by the block and only its coefficients by the seed, so the
    # proportional pairs, whose full frame search makes them the slowest
    # tasks, cost the same whatever the seed.  With 24 blocks there are 12
    # of them, and `task_tail_ms`, the 11th slowest task, is the second
    # cheapest of them, a mixed degree-3 or plain degree-4 pair, well above
    # the slowest closures.
    # The closures' monomials, degrees and budgets come from the block's
    # own stream, the same for every seed, and only their coefficients from
    # the seed, so the median closure costs the same whatever the seed.
    tasks = []
    for b in range(blocks):
        shape = random.Random(f"verdicts-shape:{b}")
        tight = set(shape.sample(range(len(families)), 2))
        block = []
        for j, family in enumerate(families):
            gens = _elements(_closure_generators(shape, rng, family))
            argv = ["closure", "--gens", "gens.json"]
            expect = {"gens": gens}
            if j in tight:
                expect["budget_dim"] = shape.randint(2, 7)
                argv += ["--budget-dim", str(expect["budget_dim"])]
            block.append(Task("closure", {"gens.json": gens}, argv, expect))
        block.append(_igusa_task(rng, 3 + (b // 2) % 4, b % 2 == 0,
                                 (b // 8) % 2 == 0))
        rng.shuffle(block)
        tasks += block
    return tasks


# ---------------------------------------------------------------------------
# dynamics: simulate = Wei–Norman factors + direct Fock propagation
# ---------------------------------------------------------------------------

def _controls(rng: random.Random, algebra: str, t_final: float,
              preset: str) -> dict:
    """Drift u1 near 1 at frequency 1 and the other controls within
    |u_j| <= 0.3, the ranges of the acceptance tests."""
    nc = 3 if algebra == "wh2" else 5
    amps = [rng.uniform(0.8, 1.2)] + [rng.uniform(-0.3, 0.3)
                                      for _ in range(nc - 1)]
    obj = {"algebra": algebra, "t_final": t_final, "h": 1e-3}
    if preset == "constant":
        obj.update(preset="constant", values=amps)
    else:
        obj.update(preset="sinusoid", amplitudes=amps,
                   frequencies=[1.0] + [rng.uniform(1.0, 3.0)
                                        for _ in range(nc - 1)],
                   phases=[rng.uniform(0.0, 2 * math.pi) for _ in range(nc)])
    return obj


def _dynamics(rng: random.Random, blocks: int, tiny: bool) -> List[Task]:
    dims, t_final = ((16, 20), 0.05) if tiny else ((48, 64, 96), 1.0)
    tasks = []
    for _ in range(blocks):
        block = []
        # the preset alternates along the block, the same for every seed
        for k, (algebra, dim) in enumerate(
                (a, d) for a in ("wh2", "schrodinger") for d in dims):
            preset = ("constant", "sinusoid")[k % 2]
            block.append(Task(
                "simulate",
                {"controls.json": _controls(rng, algebra, t_final, preset)},
                ["simulate", "--algebra", algebra, "--controls",
                 "controls.json", "--fock-dim", str(dim)],
                {"algebra": algebra, "n_steps": round(t_final / 1e-3)}))
        rng.shuffle(block)
        tasks += block
    return tasks


_BUILDERS = {"glossary": _glossary, "chains": _chains,
             "verdicts": _verdicts, "dynamics": _dynamics}


def build(workload: str, seed: int, tiny: bool = False,
          blocks: int = 0) -> List[Task]:
    """One pass of the workload for a seed, `PASS_BLOCKS` blocks unless
    `blocks` is given; the same seed gives the same list.  `tiny` shrinks
    the chains and dynamics tasks for smoke tests."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, blocks or PASS_BLOCKS[workload], tiny)


def materialise(tasks: Sequence[Task], workdir) -> List[List[str]]:
    """Write every task's input files under `workdir`; return each task's
    argv with file keys replaced by paths."""
    argvs = []
    for idx, task in enumerate(tasks):
        paths = {}
        for name, doc in task.files.items():
            path = workdir / f"t{idx}-{name}"
            path.write_text(json.dumps(doc))
            paths[name] = str(path)
        argvs.append([paths.get(a, a) for a in task.argv])
    return argvs
