"""Total maps on X^2 and X^3 stored as flat lookup tables.

Elements of the universe are the integers 0..n-1.  A pair (x, y) is encoded
as x*n + y and a triple (x, y, z) as x*n^2 + y*n + z, so every map is a
tuple of encoded outputs and composition is plain indexing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Callable, Iterator

from .errors import NotBijective, SizeMismatch

Perm = tuple[int, ...]


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


def perm_compose(f: Perm, g: Perm) -> Perm:
    """(f o g)(i) = f(g(i))."""
    return tuple(f[i] for i in g)


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
class PairMap:
    """A total map X^2 -> X^2 over the universe {0..n-1}."""

    n: int
    table: Perm

    def __post_init__(self):
        nn = self.n * self.n
        if len(self.table) != nn:
            raise SizeMismatch(f"pair table has {len(self.table)} entries, expected {nn}")
        if self.table and (min(self.table) < 0 or max(self.table) >= nn):
            raise SizeMismatch("pair table entry out of range")

    @classmethod
    def identity(cls, n: int) -> "PairMap":
        return cls(n, perm_identity(n * n))

    @classmethod
    def flip(cls, n: int) -> "PairMap":
        return cls(n, tuple(y * n + x for x in range(n) for y in range(n)))

    @classmethod
    def from_callable(cls, n: int, fn: Callable[[int, int], tuple[int, int]]) -> "PairMap":
        table = []
        for x in range(n):
            for y in range(n):
                a, b = fn(x, y)
                table.append(a * n + b)
        return cls(n, tuple(table))

    def __call__(self, x: int, y: int) -> tuple[int, int]:
        v = self.table[x * self.n + y]
        return divmod(v, self.n)

    @cached_property
    def is_bijective(self) -> bool:
        return perm_is_bijective(self.table)

    def inverse(self) -> "PairMap":
        if not self.is_bijective:
            raise NotBijective("pair table is not a permutation")
        return PairMap(self.n, perm_inverse(self.table))

    def order(self) -> int:
        if not self.is_bijective:
            raise NotBijective("order is only defined for bijective tables")
        return perm_order(self.table)


@dataclass(frozen=True)
class TripleMap:
    """A total map X^3 -> X^3 over the universe {0..n-1}."""

    n: int
    table: Perm

    def __post_init__(self):
        nnn = self.n ** 3
        if len(self.table) != nnn:
            raise SizeMismatch(f"triple table has {len(self.table)} entries, expected {nnn}")
        if self.table and (min(self.table) < 0 or max(self.table) >= nnn):
            raise SizeMismatch("triple table entry out of range")

    @classmethod
    def identity(cls, n: int) -> "TripleMap":
        return cls(n, perm_identity(n ** 3))

    @classmethod
    def from_callable(cls, n: int, fn: Callable[[int, int, int], tuple[int, int, int]]) -> "TripleMap":
        table = []
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    a, b, c = fn(x, y, z)
                    table.append((a * n + b) * n + c)
        return cls(n, tuple(table))

    def __call__(self, x: int, y: int, z: int) -> tuple[int, int, int]:
        v = self.table[(x * self.n + y) * self.n + z]
        ab, c = divmod(v, self.n)
        a, b = divmod(ab, self.n)
        return a, b, c

    @cached_property
    def is_bijective(self) -> bool:
        return perm_is_bijective(self.table)

    def inverse(self) -> "TripleMap":
        if not self.is_bijective:
            raise NotBijective("triple table is not a permutation")
        return TripleMap(self.n, perm_inverse(self.table))

    def order(self) -> int:
        if not self.is_bijective:
            raise NotBijective("order is only defined for bijective tables")
        return perm_order(self.table)


def compose_pairmaps(f: PairMap, g: PairMap) -> PairMap:
    """f o g as tables; bijective exactly when both inputs are."""
    if f.n != g.n:
        raise SizeMismatch(f"universe sizes differ: {f.n} vs {g.n}")
    return PairMap(f.n, perm_compose(f.table, g.table))


def compose_triplemaps(f: TripleMap, g: TripleMap) -> TripleMap:
    if f.n != g.n:
        raise SizeMismatch(f"universe sizes differ: {f.n} vs {g.n}")
    return TripleMap(f.n, perm_compose(f.table, g.table))


def lift_12(f: PairMap) -> TripleMap:
    """f applied to components 1,2 and the identity on component 3.

    The triple (x, y, z) encodes as (x*n + y)*n + z, so its image is v*n + z
    with v = f.table[x*n + y].
    """
    n = f.n
    return TripleMap(n, tuple(v * n + z for v in f.table for z in range(n)))


def lift_23(f: PairMap) -> TripleMap:
    """The identity on component 1 and f on components 2,3: x*n^2 + f.table[y*n + z]."""
    nn = f.n * f.n
    return TripleMap(f.n, tuple(x * nn + v for x in range(f.n) for v in f.table))


def lift_13(f: PairMap) -> TripleMap:
    def fn(x, y, z):
        a, c = f(x, z)
        return a, y, c
    return TripleMap.from_callable(f.n, fn)


def lift_1(p: Perm) -> TripleMap:
    return TripleMap.from_callable(len(p), lambda x, y, z: (p[x], y, z))


def lift_2(p: Perm) -> TripleMap:
    return TripleMap.from_callable(len(p), lambda x, y, z: (x, p[y], z))


def lift_3(p: Perm) -> TripleMap:
    return TripleMap.from_callable(len(p), lambda x, y, z: (x, y, p[z]))


def invert_table(f):
    """Inverse of a bijective PairMap or TripleMap."""
    return f.inverse()


def decode_pair(n: int, v: int) -> tuple[int, int]:
    return divmod(v, n)


def decode_triple(n: int, v: int) -> tuple[int, int, int]:
    ab, c = divmod(v, n)
    a, b = divmod(ab, n)
    return a, b, c


def first_pair_difference(f: PairMap, g: PairMap) -> tuple[int, int] | None:
    for i, (a, b) in enumerate(zip(f.table, g.table)):
        if a != b:
            return decode_pair(f.n, i)
    return None


def first_triple_difference(f: TripleMap, g: TripleMap) -> tuple[int, int, int] | None:
    for i, (a, b) in enumerate(zip(f.table, g.table)):
        if a != b:
            return decode_triple(f.n, i)
    return None


def all_pair_bijections(n: int) -> Iterator[PairMap]:
    """All bijections of X^2 in lexicographic table order ((n^2)! of them)."""
    for p in itertools.permutations(range(n * n)):
        yield PairMap(n, p)
