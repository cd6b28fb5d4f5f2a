"""The library's code-built tables against their pointwise defining formulas.

Each reference below builds a table entry by entry from the formula the
paper gives for it; the library builds the same table from row-major codes,
lifts and gathers.  They must agree table for table.
"""

import itertools
import random

import pytest

from skewtwist.braces import braiding_from_brace, trivial_brace
from skewtwist.generators import flip_solution, gen, lyubashenko_solution, s4_solution, z4_brace
from skewtwist.groups import FiniteGroup, cyclic, klein, symmetric, z4_radical_group
from skewtwist.matched import (
    ThetaMap,
    enumerate_thetas,
    f_theta,
    pair_from_brace,
    triple_from_theta,
)
from skewtwist.solutions import TwistTriple, conjugate_twist, doikou_twist, kappa_twist
from skewtwist.tables import PairMap, TripleMap, perm_compose, perm_inverse

from pointwise import table_of
from test_acceptance import involutive_nondegenerate_solutions


def ref_doikou_twist(s):
    sigma, gamma = s.sigma, s.gamma
    return TwistTriple(
        table_of(PairMap, s.n, lambda x, y: (x, sigma[x][y])),
        table_of(TripleMap, s.n, lambda x, y, z: (x, sigma[x][y], sigma[gamma[y][x]][z])),
        table_of(TripleMap, s.n, lambda x, y, z: (x, y, sigma[x][sigma[y][z]])),
    )


def ref_kappa_twist(s, kappa):
    return TwistTriple(
        table_of(PairMap, s.n, lambda x, y: (x, kappa[y])),
        table_of(TripleMap, s.n, lambda x, y, z: (x, kappa[y], kappa[z])),
        table_of(TripleMap, s.n, lambda x, y, z: (x, y, kappa[kappa[z]])),
    )


def ref_conjugate_twist(t, f):
    n, fi = len(f), perm_inverse(f)
    return TwistTriple(
        table_of(PairMap, n, lambda x, y: tuple(f[c] for c in t.F(fi[x], fi[y]))),
        table_of(TripleMap, n, lambda x, y, z: tuple(f[c] for c in t.Phi(fi[x], fi[y], fi[z]))),
        table_of(TripleMap, n, lambda x, y, z: tuple(f[c] for c in t.Psi(fi[x], fi[y], fi[z]))),
    )


def ref_braiding(dot, star):
    """The r of braiding_from_brace(dot, star): sigma_x inverts y -> x^-1 . (x * y)."""
    n = dot.n
    sigma = [perm_inverse(tuple(dot.op(dot.inv[x], star.op(x, y)) for y in range(n))) for x in range(n)]

    def build(x, y):
        a = sigma[x][y]
        return a, dot.op(dot.op(dot.inv[a], x), y)

    return table_of(PairMap, n, build)


def ref_lyubashenko_r(n, sigma, gamma):
    return table_of(PairMap, n, lambda x, y: (sigma[y], gamma[x]))


def ref_f_theta(p, theta):
    actL = p.act_left

    def fn(g, h):
        u, v = theta(g, h)
        return actL[u][g], actL[v][h]

    return table_of(PairMap, p.gminus.n, fn)


def ref_triple_from_theta(p, theta):
    mm = p.gminus
    actL, actR = p.act_left, p.act_right

    def phi_fn(a, b, c):
        u, v = theta(a, mm.op(b, c))
        return actL[u][a], actL[v][b], actL[actR[v][b]][c]

    def psi_fn(a, b, c):
        u, v = theta(mm.op(a, b), c)
        return actL[u][a], actL[actR[u][a]][b], actL[v][c]

    return TwistTriple(
        ref_f_theta(p, theta), table_of(TripleMap, mm.n, phi_fn), table_of(TripleMap, mm.n, psi_fn)
    )


def opposite(group):
    return FiniteGroup.from_table([[group.mul[b][a] for b in range(group.n)] for a in range(group.n)])


BRACES = {
    "z4-brace": z4_brace,
    "Klein": lambda: trivial_brace(klein()),
    "S3": lambda: trivial_brace(symmetric(3)),
    "S3-op": lambda: braiding_from_brace(symmetric(3), opposite(symmetric(3))),
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_doikou_twist_on_involutive_solutions(n):
    solutions = involutive_nondegenerate_solutions(n)
    assert solutions
    for s in solutions:
        assert doikou_twist(s) == ref_doikou_twist(s)


@pytest.mark.parametrize("name", sorted(BRACES))
def test_doikou_twist_on_braces(name):
    s = BRACES[name]().solution
    assert doikou_twist(s) == ref_doikou_twist(s)


@pytest.mark.parametrize("s", [s4_solution(), flip_solution(4)], ids=["s4", "flip4"])
def test_kappa_twist(s):
    sigma, gamma = s.sigma[0], s.gamma[0]
    kappas = [
        k for k in itertools.permutations(range(s.n))
        if perm_compose(k, sigma) == perm_compose(sigma, k)
        and perm_compose(k, gamma) == perm_compose(gamma, k)
    ]
    assert len(kappas) == (4 if s.n == 4 and sigma != gamma else 24)
    for kappa in kappas:
        assert kappa_twist(s, kappa) == ref_kappa_twist(s, kappa)


def test_conjugate_twist_on_seeded_relabellings():
    s4 = s4_solution()
    twists = [doikou_twist(s4), kappa_twist(s4, (1, 0, 3, 2))] + [
        doikou_twist(make().solution) for make in BRACES.values()
    ]
    rng = random.Random(5)
    for t in twists:
        for _ in range(4):
            f = list(range(t.n))
            rng.shuffle(f)
            f = tuple(f)
            assert conjugate_twist(t, f) == ref_conjugate_twist(t, f)


GENERATED_BRACES = [
    ("cyclic-trivial-brace", [str(n)], lambda n=n: (cyclic(n), cyclic(n))) for n in range(1, 7)
] + [
    ("sym-trivial-brace", [str(k)], lambda k=k: (symmetric(k), symmetric(k))) for k in range(1, 5)
] + [
    ("klein-trivial-brace", [], lambda: (klein(), klein())),
    ("z4-brace", [], lambda: (z4_radical_group(), cyclic(4))),
]


@pytest.mark.parametrize(
    "name, params, groups", GENERATED_BRACES, ids=[f"{g[0]}{g[1]}" for g in GENERATED_BRACES]
)
def test_braiding_from_brace_on_generated_braces(name, params, groups):
    dot, star = groups()
    expected = ref_braiding(dot, star)
    assert braiding_from_brace(dot, star).r == expected
    assert gen(name, params).r == expected


def test_braiding_from_brace_on_opposite_braces():
    s3 = symmetric(3)
    for dot, star in ((s3, opposite(s3)), (opposite(s3), s3)):
        assert braiding_from_brace(dot, star).r == ref_braiding(dot, star)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lyubashenko_solution_on_commuting_pairs(n):
    perms = list(itertools.permutations(range(n)))
    pairs = [(s, g) for s in perms for g in perms if perm_compose(s, g) == perm_compose(g, s)]
    assert len(pairs) == {1: 1, 2: 4, 3: 18, 4: 120}[n]
    for sigma, gamma in pairs:
        assert lyubashenko_solution(n, sigma, gamma).r == ref_lyubashenko_r(n, sigma, gamma)


PAIR_BRACES = {
    "Z3": lambda: trivial_brace(cyclic(3)),
    "Z4": lambda: trivial_brace(cyclic(4)),
    "z4-brace": z4_brace,
    "Klein": lambda: trivial_brace(klein()),
    "S3": lambda: trivial_brace(symmetric(3)),
}


@pytest.mark.parametrize("name", sorted(PAIR_BRACES))
def test_theta_builders_on_canonical_and_constant_thetas(name):
    b = PAIR_BRACES[name]()
    p = pair_from_brace(b)
    for theta in (ThetaMap.canonical(p), ThetaMap.constant_identity(p)):
        assert f_theta(p, theta) == ref_f_theta(p, theta)
        assert triple_from_theta(p, theta, b) == ref_triple_from_theta(p, theta)


def test_theta_builders_on_every_z3_theta():
    b = trivial_brace(cyclic(3))
    p = pair_from_brace(b)
    thetas = list(enumerate_thetas(p))
    assert len(thetas) == 27
    for theta in thetas:
        assert f_theta(p, theta) == ref_f_theta(p, theta)
        assert triple_from_theta(p, theta, b) == ref_triple_from_theta(p, theta)
