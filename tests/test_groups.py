"""Finite groups as multiplication tables; isomorphism enumeration."""

from itertools import product

import pytest

from skewtwist.classification import count_families, enumerate_families
from skewtwist.errors import AxiomFails
from skewtwist.groups import (
    FiniteGroup,
    are_isomorphic,
    cyclic,
    direct_product,
    enumerate_isomorphisms,
    generating_sequence,
    klein,
    symmetric,
    z4_radical_group,
)


def brute_force_isomorphisms(g, h, fixed=None):
    """Independent oracle: filter all bijections for the homomorphism law."""
    from itertools import permutations

    out = []
    for f in permutations(range(g.n)):
        if fixed is not None and f[fixed[0]] != fixed[1]:
            continue
        if all(
            f[g.op(a, b)] == h.op(f[a], f[b])
            for a in range(g.n)
            for b in range(g.n)
        ):
            out.append(tuple(f))
    return out


def test_cyclic_group_axioms():
    for n in range(1, 7):
        g = cyclic(n)
        assert g.e == 0
        for a in range(n):
            assert g.op(a, g.inv[a]) == 0
            for b in range(n):
                assert g.op(a, b) == (a + b) % n


def test_from_table_rejects_bad_tables():
    with pytest.raises(AxiomFails):
        FiniteGroup.from_table(((0, 1), (0, 1)))  # no inverses for 1
    with pytest.raises(AxiomFails):
        FiniteGroup.from_table(((0, 0), (0, 0)))  # not even a quasigroup


def test_klein_group():
    k = klein()
    assert k.n == 4
    for a in range(4):
        assert k.op(a, a) == 0
        for b in range(4):
            assert k.op(a, b) == a ^ b


def test_symmetric_group():
    s3 = symmetric(3)
    assert s3.n == 6
    assert s3.e == 0
    # element 0 is the identity permutation under the lexicographic listing
    orders = sorted(
        next(k for k in range(1, 7) if _power(s3, a, k) == s3.e) for a in range(6)
    )
    assert orders == [1, 2, 2, 2, 3, 3]


def _power(g, a, k):
    out = g.e
    for _ in range(k):
        out = g.op(out, a)
    return out


def test_z4_radical_group_structure():
    # x o y = x + y + 2xy mod 4: every element squares to 0, so (Z4, o) is
    # the Klein group even though the carrier is Z4.
    g = z4_radical_group()
    for x in range(4):
        for y in range(4):
            assert g.op(x, y) == (x + y + 2 * x * y) % 4
        assert g.op(x, x) == 0
    assert are_isomorphic(g, klein())
    assert not are_isomorphic(g, cyclic(4))


def test_direct_product():
    g = direct_product(cyclic(2), cyclic(2))
    assert are_isomorphic(g, klein())
    assert not are_isomorphic(g, cyclic(4))


def test_enumerate_isomorphisms_matches_oracle():
    cases = [
        (cyclic(4), cyclic(4)),
        (klein(), klein()),
        (cyclic(4), klein()),
        (symmetric(3), symmetric(3)),
        (z4_radical_group(), cyclic(4)),
    ]
    for g, h in cases:
        got = list(enumerate_isomorphisms(g, h))
        assert got == brute_force_isomorphisms(g, h)


def test_enumerate_isomorphisms_with_fixed_point():
    # The stabilizer of each x, the isomorphisms fixing x, is filtered from
    # the one unrestricted search; the families are their product in lex order.
    p = (0, 2, 1, 3)  # Z4 with 1 and 2 exchanged: no isomorphism from Z4 fixes 1
    z4_swapped = FiniteGroup.from_table([[p[(p[x] + p[y]) % 4] for y in range(4)] for x in range(4)])
    cases = [
        (klein(), klein()),
        (cyclic(4), cyclic(4)),
        (symmetric(3), symmetric(3)),
        (cyclic(4), klein()),
        (cyclic(4), z4_swapped),
    ]
    for g, h in cases:
        stabilizers = [brute_force_isomorphisms(g, h, fixed=(x, x)) for x in range(g.n)]
        got = [fam.maps for fam in enumerate_families(g, h)]
        assert got == list(product(*stabilizers))
        assert count_families(g, h) == len(got)


def test_automorphism_counts():
    # |Aut(Z2)| = 1, |Aut(Z3)| = 2, |Aut(Z4)| = 2, |Aut(Klein)| = 6
    assert len(list(enumerate_isomorphisms(cyclic(2), cyclic(2)))) == 1
    assert len(list(enumerate_isomorphisms(cyclic(3), cyclic(3)))) == 2
    assert len(list(enumerate_isomorphisms(cyclic(4), cyclic(4)))) == 2
    assert len(list(enumerate_isomorphisms(klein(), klein()))) == 6


def test_isomorphism_stream_is_lexicographic():
    got = list(enumerate_isomorphisms(klein(), klein()))
    assert got == sorted(got)


def subgroup_generated(g, gens):
    """The subgroup generated by gens: e and all products, until nothing new."""
    out = {g.e}
    while True:
        grown = out | {g.op(x, y) for x in out for y in out | set(gens)}
        if grown == out:
            return out
        out = grown


def relabelled(g, p):
    """g with every element x renamed p[x]."""
    q = [0] * g.n
    for x, y in enumerate(p):
        q[y] = x
    return FiniteGroup.from_table([[p[g.op(q[a], q[b])] for b in range(g.n)] for a in range(g.n)])


GENERATED = {
    **{f"Z{n}": cyclic(n) for n in range(1, 9)},
    "Klein": klein(),
    "S3": symmetric(3),
    "S4": symmetric(4),
    "Z2xZ4": direct_product(cyclic(2), cyclic(4)),
    "z4-radical": z4_radical_group(),
    # Relabellings that move the identity off 0.
    "S3-moved": relabelled(symmetric(3), (3, 5, 0, 1, 4, 2)),
    "S4-moved": relabelled(symmetric(4), tuple(range(23, -1, -1))),
    "Z2xZ4-moved": relabelled(direct_product(cyclic(2), cyclic(4)), (6, 2, 7, 0, 4, 1, 5, 3)),
    "z4-radical-moved": relabelled(z4_radical_group(), (2, 0, 3, 1)),
}


@pytest.mark.parametrize("name", list(GENERATED))
def test_generating_sequence_is_greedy_and_generates(name):
    g = GENERATED[name]
    gens = generating_sequence(g.mul, g.e)
    assert g.generators == gens
    for i, a in enumerate(gens):
        assert a == min(set(range(g.n)) - subgroup_generated(g, gens[:i]))
    assert subgroup_generated(g, gens) == set(range(g.n))
    assert 2 ** len(gens) <= g.n


def test_generating_sequence_pins():
    assert [cyclic(n).generators for n in range(1, 6)] == [(), (1,), (1,), (1,), (1,)]
    assert klein().generators == (1, 2)
    assert GENERATED["S3-moved"].e == 3
