"""Encoded pair/triple map tables: composition, inversion, lifts."""

import itertools
import random

import pytest

from skewtwist.errors import NotBijective, SizeMismatch
from skewtwist.tables import (
    PairMap,
    TripleMap,
    all_pair_bijections,
    compose_pairmaps,
    compose_triplemaps,
    decode_pair,
    decode_triple,
    first_pair_difference,
    invert_table,
    lift_1,
    lift_2,
    lift_3,
    lift_12,
    lift_13,
    lift_23,
    perm_compose,
    perm_identity,
    perm_inverse,
    perm_order,
)


def test_perm_basics():
    p = (1, 2, 0)
    assert perm_compose(p, perm_inverse(p)) == perm_identity(3)
    assert perm_compose(perm_inverse(p), p) == perm_identity(3)
    assert perm_order(p) == 3
    assert perm_order(perm_identity(5)) == 1
    assert perm_order((1, 0, 3, 2)) == 2
    assert perm_order((1, 2, 0, 4, 3)) == 6


def test_pairmap_identity_and_flip():
    ident = PairMap.identity(3)
    flip = PairMap.flip(3)
    for x in range(3):
        for y in range(3):
            assert ident(x, y) == (x, y)
            assert flip(x, y) == (y, x)
    assert compose_pairmaps(flip, flip) == ident
    assert flip.inverse() == flip
    assert flip.order() == 2
    assert ident.order() == 1


def test_pairmap_from_callable_roundtrip():
    f = PairMap.from_callable(4, lambda x, y: ((x + y) % 4, y))
    assert f.is_bijective
    g = f.inverse()
    assert compose_pairmaps(f, g) == PairMap.identity(4)
    assert compose_pairmaps(g, f) == PairMap.identity(4)
    assert invert_table(f) == g
    assert invert_table(lift_12(f)) == lift_12(g)


def test_noninvertible_pairmap_detected():
    squash = PairMap.from_callable(2, lambda x, y: (0, y))
    assert not squash.is_bijective
    with pytest.raises(NotBijective):
        squash.inverse()


def test_size_mismatch_raises():
    with pytest.raises(SizeMismatch):
        compose_pairmaps(PairMap.identity(2), PairMap.identity(3))
    with pytest.raises(SizeMismatch):
        compose_triplemaps(TripleMap.identity(2), TripleMap.identity(3))


def test_lifts_are_homomorphisms():
    # Composition commutes with lifting, checked over a small sample.
    n = 3
    a = PairMap.from_callable(n, lambda x, y: ((x + y) % n, y))
    b = PairMap.from_callable(n, lambda x, y: (x, (x + 2 * y) % n))
    for lift in (lift_12, lift_23, lift_13):
        assert lift(compose_pairmaps(a, b)) == compose_triplemaps(lift(a), lift(b))
        assert lift(PairMap.identity(n)) == TripleMap.identity(n)
    # lift_12 and lift_23 are index arithmetic on the table; they must agree
    # with their per-entry definitions on arbitrary (also non-bijective) maps.
    rng = random.Random(12)
    for n in range(1, 6):
        for _ in range(4):
            f = PairMap(n, tuple(rng.randrange(n * n) for _ in range(n * n)))
            g = PairMap(n, tuple(rng.sample(range(n * n), n * n)))
            for h in (f, g):
                assert lift_12(h) == TripleMap.from_callable(n, lambda x, y, z: (*h(x, y), z))
                assert lift_23(h) == TripleMap.from_callable(n, lambda x, y, z: (x, *h(y, z)))


def test_lift_positions():
    n = 3
    f = PairMap.from_callable(n, lambda x, y: ((x + 1) % n, (y + 2) % n))
    for x, y, z in itertools.product(range(n), repeat=3):
        assert lift_12(f)(x, y, z) == (*f(x, y), z)
        assert lift_23(f)(x, y, z) == (x, *f(y, z))
        a, c = f(x, z)
        assert lift_13(f)(x, y, z) == (a, y, c)
    p = (1, 2, 0)
    for x, y, z in itertools.product(range(n), repeat=3):
        assert lift_1(p)(x, y, z) == (p[x], y, z)
        assert lift_2(p)(x, y, z) == (x, p[y], z)
        assert lift_3(p)(x, y, z) == (x, y, p[z])


def test_decode_helpers():
    n = 4
    for x in range(n):
        for y in range(n):
            assert decode_pair(n, x * n + y) == (x, y)
            for z in range(n):
                assert decode_triple(n, (x * n + y) * n + z) == (x, y, z)


def test_first_pair_difference_is_lex_minimal():
    a = PairMap.identity(2)
    b = PairMap.flip(2)
    assert first_pair_difference(a, b) == (0, 1)
    assert first_pair_difference(a, a) is None


def test_all_pair_bijections_count():
    assert sum(1 for _ in all_pair_bijections(1)) == 1
    maps = list(all_pair_bijections(2))
    assert len(maps) == 24
    assert all(m.is_bijective for m in maps)
    # lexicographic order of the underlying tables
    tables = [m.table for m in maps]
    assert tables == sorted(tables)


def test_triplemap_order():
    p = (1, 0)
    assert lift_1(p).order() == 2
    n = 2
    rot = TripleMap.from_callable(n, lambda x, y, z: (y, z, x))
    assert rot.order() == 3
