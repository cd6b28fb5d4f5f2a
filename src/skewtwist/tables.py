"""Total maps on X^2 and X^3 stored as flat lookup tables.

Elements of the universe are the integers 0..n-1.  A pair (x, y) is encoded
as x*n + y and a triple (x, y, z) as x*n^2 + y*n + z, so every map is a
tuple of encoded outputs and composition is plain indexing.  Library tables
are built from codes only: index arithmetic on rows, lifts and gathers, each
derived table once.  Evaluating a table at a point and reading or writing its
rows go through one codec per (n, k), _codec.

Every table axiom is an equation of composed tables decided by one scan,
first_failure; lifts are slices and gathers of a shared pool of ints, no int
per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, compress, count, permutations, product, repeat
from math import lcm, prod
from operator import itemgetter, ne
from typing import Iterator, Sequence

from .errors import NotBijective, SizeMismatch

Perm = tuple[int, ...]

_POOL: Perm = ()


def _ints(size: int) -> Perm:
    """The ints 0..size-1 (at least) as shared objects; the pool only grows.
    The local copy is returned, so a concurrent caller cannot shorten it."""
    global _POOL
    pool = _POOL
    if len(pool) < size:
        pool = _POOL = pool + tuple(range(len(pool), size))
    return pool


@lru_cache(maxsize=16)
def _codec(n: int, arity: int) -> tuple[tuple[Perm, ...], dict[Perm, int]]:
    """(points, codes): the points of X^arity in lexicographic order, which is
    code order, so points[v] decodes v; and codes[point], the code of a point.
    Shared between callers, so read only; the cache bounds what stays alive."""
    points = tuple(product(range(n), repeat=arity))
    return points, dict(zip(points, _ints(len(points))))


def perm_identity(n: int) -> Perm:
    return _ints(n)[:n]


def perm_compose(f: Perm, g: Perm) -> Perm:
    """(f o g)(i) = f(g(i)); the entries are f's own int objects."""
    # itemgetter with one index returns the item itself, not a 1-tuple.
    return itemgetter(*g)(f) if len(g) > 1 else tuple(f[i] for i in g)


def perm_chain(*tables: Perm) -> Perm:
    """tables[0] o tables[1] o ... o tables[-1]."""
    out = tables[-1]
    for t in tables[-2::-1]:
        out = perm_compose(t, out)
    return out


def perm_inverse(f: Perm) -> Perm:
    if len(set(f)) != len(f):
        raise NotBijective(f"not a permutation: {f}")
    out = [0] * len(f)
    for i, v in enumerate(f):
        out[v] = i
    return tuple(out)


def perm_is_bijective(f: Perm) -> bool:
    return len(set(f)) == len(f)


def perm_order(f: Perm) -> int:
    """Order of f in the symmetric group: lcm of its cycle lengths."""
    seen = [False] * len(f)
    order = 1
    for start in range(len(f)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = f[i]
            length += 1
        order = lcm(order, length)
    return order


@dataclass(frozen=True)
class Table:
    """A total map X^k -> X^k over {0..n-1}; PairMap has k = 2, TripleMap k = 3."""

    n: int
    table: Perm
    kind = ""
    arity = 0

    def __post_init__(self):
        size = self.n ** self.arity
        if len(self.table) != size:
            raise SizeMismatch(f"{self.kind} table has {len(self.table)} entries, expected {size}")
        if self.table and (min(self.table) < 0 or max(self.table) >= size):
            raise SizeMismatch(f"{self.kind} table entry out of range")

    @classmethod
    def identity(cls, n: int):
        return cls(n, perm_identity(n ** cls.arity))

    def __call__(self, *point: int) -> tuple[int, ...]:
        points, codes = _codec(self.n, self.arity)
        return points[self.table[codes[point]]]

    @cached_property
    def is_bijective(self) -> bool:
        return perm_is_bijective(self.table)

    def inverse(self):
        if not self.is_bijective:
            raise NotBijective(f"{self.kind} table is not a permutation")
        return type(self)(self.n, perm_inverse(self.table))

    def order(self) -> int:
        if not self.is_bijective:
            raise NotBijective("order is only defined for bijective tables")
        return perm_order(self.table)


@dataclass(frozen=True)
class PairMap(Table):
    """A total map X^2 -> X^2 over the universe {0..n-1}."""

    kind = "pair"
    arity = 2

    @classmethod
    def flip(cls, n: int) -> "PairMap":
        return cls(n, tuple(y * n + x for x in range(n) for y in range(n)))


@dataclass(frozen=True)
class TripleMap(Table):
    """A total map X^3 -> X^3 over the universe {0..n-1}."""

    kind = "triple"
    arity = 3


_CACHED_BLOCK_ENTRIES = 32 ** 3  # the lifts of universes up to n = 32


@lru_cache(maxsize=32)
def _row_blocks(n: int, rows: int) -> tuple[Perm, ...]:
    """The blocks pool[v*n:v*n+n] for v < rows, which the lifts gather from;
    shared between callers, so read only."""
    pool = _ints(rows * n)
    return tuple(pool[v * n:v * n + n] for v in range(rows))


def _blocks(n: int, rows: int) -> tuple[Perm, ...]:
    """_row_blocks, cached only up to _CACHED_BLOCK_ENTRIES entries, so that
    the blocks of a larger lift are freed with it."""
    if rows * n > _CACHED_BLOCK_ENTRIES:
        return _row_blocks.__wrapped__(n, rows)
    return _row_blocks(n, rows)


def lift_12_table(table: Perm, n: int) -> Perm:
    """table x id: (u, z) -> table[u]*n + z, for a table whose values lie below
    len(table) (pair maps, multiplication tables, permutations of X); one
    gather of row blocks, flattened."""
    return tuple(chain.from_iterable(perm_compose(_blocks(n, len(table)), table)))


def lift_23_table(table: Perm, n: int, m: int | None = None) -> Perm:
    """id x table: (x, u) -> x*m + table[u] for x < n, for a table with m values
    (n^2 by default, as for pair maps; n for a permutation of X); a gather of
    table from each of n row blocks, flattened."""
    m = n * n if m is None else m
    return tuple(chain.from_iterable(map(perm_compose, _blocks(m, n), repeat(table))))


_BLOCK = 4096  # points per comparison step: amortises its cost, still stops early

def first_failure(
    shape: tuple[int, ...], *equations: tuple[str, Sequence[Perm], Sequence[Perm]]
) -> tuple[str, tuple[int, ...]] | None:
    """(name, point) for the least point of the box range(shape[0]) x ... (coded
    row-major) at which an equation (name, lhs, rhs) fails, the one listed first
    at a tie; or None.  Each side is the chain side[0] o side[1] o ... of tables,
    composed and compared _BLOCK points at a time; only a differing block is
    searched for the point."""
    for start in range(0, prod(shape), _BLOCK):
        hit = None
        for name, lhs, rhs in equations:
            a = perm_chain(*lhs[:-1], lhs[-1][start:start + _BLOCK])
            b = perm_chain(*rhs[:-1], rhs[-1][start:start + _BLOCK])
            if a != b:
                i = next(compress(count(), map(ne, a, b)))
                if hit is None or i < hit[1]:
                    hit = name, i
        if hit is not None:
            # Decoded by shape arithmetic: a codec of X^3 would keep n^3 tuples alive.
            code = start + hit[1]
            return hit[0], tuple(code // prod(shape[k + 1:]) % side for k, side in enumerate(shape))
    return None


def all_pair_bijections(n: int) -> Iterator[PairMap]:
    """All bijections of X^2 in lexicographic table order ((n^2)! of them)."""
    for p in permutations(range(n * n)):
        yield PairMap(n, p)
