"""Encoded pair/triple map tables: the point codec, composition, inversion,
lifts, and the compose-and-compare kernel (pooled lifts, perm_chain,
first_failure)."""

import itertools
import math
import random

import pytest

from skewtwist import tables
from skewtwist.errors import NotBijective, SizeMismatch
from skewtwist.serialize import _rows
from skewtwist.tables import (
    PairMap,
    TripleMap,
    _codec,
    all_pair_bijections,
    first_failure,
    lift_12_table,
    lift_23_table,
    perm_chain,
    perm_compose,
    perm_identity,
    perm_inverse,
    perm_order,
)

from pointwise import lift_12_reference, lift_23_reference, table_of


def triple_map(n, fn):
    """A TripleMap from its per-point definition, independent of the kernel."""
    return table_of(TripleMap, n, fn)


def lift_12(f):
    return TripleMap(f.n, lift_12_table(f.table, f.n))


def lift_23(f):
    return TripleMap(f.n, lift_23_table(f.table, f.n))


def compose(f, g):
    """f o g for two tables of one type and size."""
    return type(f)(f.n, perm_compose(f.table, g.table))


def apply_chain(chain, i):
    """chain[0] o chain[1] o ... applied to the code i, entry by entry."""
    for t in reversed(chain):
        i = t[i]
    return i


def pointwise_first_failure(shape, *equations):
    """(name, point) of the first failing equation, point by point in
    lexicographic order and equation by equation at each point."""
    for code, point in enumerate(itertools.product(*map(range, shape))):
        for name, lhs, rhs in equations:
            if apply_chain(lhs, code) != apply_chain(rhs, code):
                return name, point
    return None


def moved(table, i):
    """table with the entry at code i changed, and nothing else."""
    out = list(table)
    out[i] = (out[i] + 1) % len(out)
    return tuple(out)


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
    assert compose(flip, flip) == ident
    assert flip.inverse() == flip
    assert flip.order() == 2
    assert ident.order() == 1


def test_pairmap_from_callable_roundtrip():
    f = table_of(PairMap, 4, lambda x, y: ((x + y) % 4, y))
    assert f.is_bijective
    g = f.inverse()
    assert compose(f, g) == PairMap.identity(4)
    assert compose(g, f) == PairMap.identity(4)
    assert lift_12(f).inverse() == lift_12(g)
    assert lift_23(f).inverse() == lift_23(g)


def test_noninvertible_pairmap_detected():
    squash = table_of(PairMap, 2, lambda x, y: (0, y))
    assert not squash.is_bijective
    with pytest.raises(NotBijective):
        squash.inverse()


def test_size_mismatch_raises():
    with pytest.raises(SizeMismatch):
        PairMap(2, perm_identity(9))
    with pytest.raises(SizeMismatch):
        TripleMap(3, perm_identity(8))
    with pytest.raises(SizeMismatch):
        PairMap(2, (0, 1, 2, 4))
    with pytest.raises(SizeMismatch):
        TripleMap(2, (-1,) + perm_identity(8)[1:])


def test_lifts_are_homomorphisms():
    # Composition commutes with lifting, checked over a small sample.
    n = 3
    a = table_of(PairMap, n, lambda x, y: ((x + y) % n, y))
    b = table_of(PairMap, n, lambda x, y: (x, (x + 2 * y) % n))
    for lift in (lift_12, lift_23):
        assert lift(compose(a, b)) == compose(lift(a), lift(b))
        assert lift(PairMap.identity(n)) == TripleMap.identity(n)
    # lift_12 and lift_23 are slices and gathers of the int pool; they must
    # agree with their per-entry definitions on arbitrary (also non-bijective)
    # maps, and so must the multiplication lifts m12 and m23 built the same way.
    rng = random.Random(12)
    for n in range(1, 6):
        for _ in range(4):
            f = PairMap(n, tuple(rng.randrange(n * n) for _ in range(n * n)))
            g = PairMap(n, tuple(rng.sample(range(n * n), n * n)))
            for h in (f, g):
                assert lift_12(h) == triple_map(n, lambda x, y, z: (*h(x, y), z))
                assert lift_23(h) == triple_map(n, lambda x, y, z: (x, *h(y, z)))
            mul = tuple(rng.randrange(n) for _ in range(n * n))
            m12 = tuple(mul[x * n + y] * n + z for x, y, z in itertools.product(range(n), repeat=3))
            m23 = tuple(x * n + mul[y * n + z] for x, y, z in itertools.product(range(n), repeat=3))
            assert lift_12_table(mul, n) == m12
            assert lift_23_table(mul, n, n) == m23


def test_pooled_lifts_share_int_objects():
    # Equal entries of independently built lifts are one object: the lifts
    # are slices and gathers of a shared pool, not fresh ints (n^3 > 256, so
    # the interpreter's small-int cache does not explain it).
    n = 7
    rng = random.Random(3)
    f = PairMap(n, tuple(rng.sample(range(n * n), n * n)))
    g = PairMap(n, tuple(rng.sample(range(n * n), n * n)))
    seen = {}
    for table in (lift_12(f).table, lift_23(f).table, lift_12(g).table, lift_23(g).table):
        for v in table:
            assert seen.setdefault(v, v) is v
    assert perm_identity(n ** 3)[300] is seen[300]


def lift_cases(rng, n):
    """(table, m) for lift_23_table's value count m: random and bijective pair
    maps, a flat multiplication-like table and a permutation of X."""
    nn = n * n
    return [
        (tuple(rng.randrange(nn) for _ in range(nn)), nn),
        (tuple(rng.sample(range(nn), nn)), nn),
        (tuple(rng.randrange(n) for _ in range(nn)), n),
        (tuple(rng.sample(range(n), n)), n),
    ]


@pytest.mark.parametrize("n", range(1, 10))
def test_lifts_match_pointwise_references(n):
    rng = random.Random(100 + n)
    for table, m in lift_cases(rng, n):
        assert lift_12_table(table, n) == lift_12_reference(table, n)
        assert lift_23_table(table, n, m) == lift_23_reference(table, n, m)


def test_lifts_of_single_entry_tables():
    # At n = 1 every table has one entry, which a one-index gather returns
    # as the entry itself rather than as a 1-tuple.
    for table in ((0,), perm_identity(1)):
        assert lift_12_table(table, 1) == lift_12_reference(table, 1) == (0,)
        assert lift_23_table(table, 1) == lift_23_reference(table, 1) == (0,)
        assert lift_23_table(table, 1, 1) == (0,)
    assert lift_12(PairMap.identity(1)) == TripleMap.identity(1)


@pytest.fixture
def short_pool(monkeypatch):
    """A pool cut back to 5 ints and no cached row blocks, restored after the
    test, so the next lift has to grow the pool."""
    monkeypatch.setattr(tables, "_POOL", tables._POOL[:5])
    tables._row_blocks.cache_clear()
    yield
    tables._row_blocks.cache_clear()


def test_large_lifts_leave_no_cached_blocks(short_pool):
    # Blocks above _CACHED_BLOCK_ENTRIES are built per lift and freed with
    # it; the lifts of the universes the benchmark uses (n <= 24) stay cached.
    n = 33
    assert n ** 3 > tables._CACHED_BLOCK_ENTRIES >= 24 ** 3
    flip = PairMap.flip(n).table
    assert lift_12_table(flip, n) == lift_12_reference(flip, n)
    assert lift_23_table(flip, n) == lift_23_reference(flip, n)
    assert tables._row_blocks.cache_info().currsize == 0
    flip = PairMap.flip(24).table
    assert lift_12_table(flip, 24) == lift_12_reference(flip, 24)
    assert lift_23_table(flip, 24) == lift_23_reference(flip, 24)
    assert tables._row_blocks.cache_info().currsize == 2


def test_lifts_grow_the_pool(short_pool):
    rng = random.Random(9)
    n = 7  # n^3 > 256, so identity is not the small-int cache's
    for table, m in lift_cases(rng, n):
        start = len(tables._POOL)
        got12, got23 = lift_12_table(table, n), lift_23_table(table, n, m)
        assert got12 == lift_12_reference(table, n)
        assert got23 == lift_23_reference(table, n, m)
        assert len(tables._POOL) >= max(start, len(table) * n)
        # The grown pool keeps the ints it had, and the lifts hold its objects.
        pool = tables._POOL
        assert all(pool[v] is v for v in got12) and all(pool[v] is v for v in got23)


def test_lift_positions():
    n = 3
    f = table_of(PairMap, n, lambda x, y: ((x + 1) % n, (y + 2) % n))
    for x, y, z in itertools.product(range(n), repeat=3):
        assert lift_12(f)(x, y, z) == (*f(x, y), z)
        assert lift_23(f)(x, y, z) == (x, *f(y, z))


def test_decode_helpers():
    # The codec lists the points of X^k in code order and maps each back to
    # its row-major code, for every arity a table uses.
    for n in (1, 2, 4):
        for k in (1, 2, 3):
            points, codes = _codec(n, k)
            assert points == tuple(itertools.product(range(n), repeat=k))
            for v, point in enumerate(points):
                code = 0
                for c in point:
                    code = code * n + c
                assert code == v and codes[point] == v
    # __call__ and the serializer's rows decode through it.
    n = 4
    rng = random.Random(7)
    f = PairMap(n, tuple(rng.randrange(n * n) for _ in range(n * n)))
    g = TripleMap(n, tuple(rng.randrange(n ** 3) for _ in range(n ** 3)))
    for x, y in itertools.product(range(n), repeat=2):
        assert PairMap.identity(n)(x, y) == (x, y)
        assert f(x, y) == divmod(f.table[x * n + y], n)
    assert _rows(f) == [list(divmod(v, n)) for v in f.table]
    assert _rows(g) == [[v // (n * n), v // n % n, v % n] for v in g.table]
    # Triples are decoded inside first_failure: a table that differs from
    # the identity at one point only is reported at exactly that point.
    ident = perm_identity(n ** 3)
    for x, y, z in itertools.product(range(n), repeat=3):
        i = (x * n + y) * n + z
        assert first_failure((n, n, n), ("id", (moved(ident, i),), (ident,))) == ("id", (x, y, z))


def test_perm_compose_and_chain():
    rng = random.Random(5)
    for size in (0, 1, 2, 9):
        f = tuple(rng.randrange(size) for _ in range(size)) if size else ()
        g = tuple(rng.randrange(size) for _ in range(size)) if size else ()
        h = tuple(rng.randrange(size) for _ in range(size)) if size else ()
        assert perm_compose(f, g) == tuple(f[i] for i in g)
        assert perm_chain(f, g, h) == tuple(f[g[i]] for i in h)
        assert perm_chain(h) == h


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17])
def test_first_mismatch_matches_pointwise_scan(n):
    # One equation on X^3; n = 17 spans two comparison blocks, the others fit in one.
    rng = random.Random(n)
    size = n ** 3
    cube = (n, n, n)
    tables = [tuple(rng.sample(range(size), size)) for _ in range(3)]
    a, b, c = tables
    assert first_failure(cube, ("eq", (a, b, c), (a, b, c))) is None
    for lhs, rhs in (((a, b), (b, a)), ((a, b, c), (c, b, a)), ((a,), (b,)), ((a, b), (a, c))):
        want = pointwise_first_failure(cube, ("eq", lhs, rhs))
        assert first_failure(cube, ("eq", lhs, rhs)) == want
    # A single differing entry, at the start, in the middle, at the end.
    for i in sorted({0, size // 2, size - 1}) if size > 1 else ():
        want = pointwise_first_failure(cube, ("eq", (a, b, c), (a, b, moved(c, i))))
        assert want is not None
        assert first_failure(cube, ("eq", (a, b, c), (a, b, moved(c, i)))) == want


def test_first_difference_is_lex_minimal():
    a = PairMap.identity(2)
    b = PairMap.flip(2)
    assert first_failure((2, 2), ("eq", (a.table,), (b.table,))) == ("eq", (0, 1))
    assert first_failure((2, 2), ("eq", (a.table,), (a.table,))) is None
    # Any arity: the least differing point is reported, decoded by the shape.
    n = 3
    ident = perm_identity(n ** 3)
    for i in (0, 13, n ** 3 - 1):
        got = first_failure((n, n, n), ("eq", (ident,), (moved(ident, i),)))
        assert got == ("eq", _codec(n, 3)[0][i])
    assert first_failure((n,), ("eq", ((0, 1, 2),), ((0, 2, 2),))) == ("eq", (1,))


SHAPES = [(n,) * k for k in (1, 2, 3) for n in (1, 2, 3, 5, 17)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_first_failure_matches_pointwise_reference(shape):
    # (17, 17, 17) spans two comparison blocks; every other box fits in one.
    size = math.prod(shape)
    rng = random.Random(str(shape))
    a, b, c = (tuple(rng.randrange(size) for _ in range(size)) for _ in range(3))
    p = tuple(rng.sample(range(size), size))
    ident = perm_identity(size)

    def check(*equations):
        want = pointwise_first_failure(shape, *equations)
        assert first_failure(shape, *equations) == want
        return want

    # All equations hold: None.
    assert check(("ab", (a, b), (a, b)), ("c", (c,), (c,))) is None
    # One equation, random chains of maps (not necessarily bijective).
    check(("ab", (a, b), (b, a)))
    check(("abc", (a, b, c), (c, b, a)))
    if size == 1:
        return
    codes = sorted({0, 1, size // 2, 4095 % size, 4096 % size, size - 1})
    for i in codes:
        # One equation failing at exactly one point.
        assert check(("one", (ident,), (moved(ident, i),)))[0] == "one"
        # Two equations failing first at the same point: the first listed wins.
        tie = ("left", (p, ident), (p, moved(ident, i))), ("right", (moved(ident, i),), (ident,))
        assert check(*tie)[0] == "left"
        assert check(*tie[::-1])[0] == "right"
        for j in codes:
            if j < i:
                # The second-listed equation fails first (for 17^3, possibly a
                # block earlier): it is reported.
                early = ("late", (moved(ident, i),), (ident,)), ("early", (ident,), (moved(ident, j),))
                assert check(*early)[0] == "early"


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
    assert triple_map(2, lambda x, y, z: (p[x], y, z)).order() == 2
    n = 2
    rot = table_of(TripleMap, n, lambda x, y, z: (y, z, x))
    assert rot.order() == 3
