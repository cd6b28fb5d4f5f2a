"""Finite groups as multiplication tables, plus isomorphism search.

A product axiom is decided on a generating sequence and scanned in full only
to locate a witness.  If the elements a satisfying an axiom in one product
slot (for all values of the other variables) are closed under products and
include e, and every generator satisfies it, then so does every element,
since the closure of {e} under right multiplication by the generators is the
whole group.  Associativity is decided by Light's test (Clifford-Preston,
The Algebraic Theory of Semigroups I, section 1.2): if (xa)y = x(ay) and
(xb)y = x(by) for all x, y, then (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by))
= x((ab)y), and e passes once it is a two-sided identity; the argument
needs no associativity, so it also decides tables that are only loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import AxiomFails, SizeMismatch
from .tables import Perm, first_failure, perm_compose

MulTable = tuple[tuple[int, ...], ...]


def generating_sequence(mul: MulTable, e: int) -> tuple[int, ...]:
    """Generators a_1, a_2, ...: each the least element outside the closure of
    {e} under right multiplication by the earlier ones, until that closure is
    everything.  In a group each closure is a subgroup at least twice the size
    of the one before, so there are at most log2 n generators."""
    gens = []
    closure, seen = [e], [False] * len(mul)
    seen[e] = True
    for x in range(len(mul)):
        if seen[x]:
            continue
        gens.append(x)
        for h in closure:  # grows while it is read
            for a in gens:
                ha = mul[h][a]
                if not seen[ha]:
                    seen[ha] = True
                    closure.append(ha)
    return tuple(gens)


def _associativity_failure(mul: MulTable) -> tuple[str, tuple[int, ...]] | None:
    """The least (a, b, c) with (ab)c != a(bc), by a scan of every point; the
    n^3 tables are freed on return."""
    n = len(mul)
    flat = tuple(itertools.chain.from_iterable(mul))
    ab_c = tuple(itertools.chain.from_iterable(perm_compose(mul, flat)))  # row ab at c
    a_bc = tuple(itertools.chain.from_iterable(perm_compose(row, flat) for row in mul))
    return first_failure((n, n, n), ("associativity", (ab_c,), (a_bc,)))


@dataclass(frozen=True)
class FiniteGroup:
    n: int
    mul: MulTable
    e: int
    inv: Perm

    @classmethod
    def from_table(cls, mul) -> "FiniteGroup":
        """Validate a multiplication table and locate identity and inverses."""
        mul = tuple(tuple(row) for row in mul)
        n = len(mul)
        if any(len(row) != n for row in mul):
            raise SizeMismatch("multiplication table is not square")
        if any(not (0 <= v < n) for row in mul for v in row):
            raise SizeMismatch("multiplication table entry out of range")
        e = None
        for cand in range(n):
            if all(mul[cand][a] == a == mul[a][cand] for a in range(n)):
                e = cand
                break
        if e is None:
            raise AxiomFails("identity", None)
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if mul[a][b] == e and mul[b][a] == e:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise AxiomFails("inverses", a)
        group = cls(n, mul, e, tuple(inv))
        # Light's test: row xa is row x o row a, for each generator a.  Only
        # a failure is scanned for, to locate the least failing triple.
        if not all(
            perm_compose(mul, [row[a] for row in mul])
            == tuple(perm_compose(row, mul[a]) for row in mul)
            for a in group.generators
        ):
            raise AxiomFails(*_associativity_failure(mul))
        return group

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """generating_sequence of the multiplication table."""
        return generating_sequence(self.mul, self.e)

    def op(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def op3(self, a: int, b: int, c: int) -> int:
        return self.mul[self.mul[a][b]][c]


def cyclic(n: int) -> FiniteGroup:
    return FiniteGroup.from_table([[(a + b) % n for b in range(n)] for a in range(n)])


def klein() -> FiniteGroup:
    """Z2 x Z2 with xor multiplication."""
    return FiniteGroup.from_table([[a ^ b for b in range(4)] for a in range(4)])


def symmetric(n: int) -> FiniteGroup:
    """S_n with elements indexed by permutations of 0..n-1 in lex order."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[perm_compose(p, q)] for q in perms] for p in perms]
    return FiniteGroup.from_table(mul)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    n = g.n * h.n
    mul = [[0] * n for _ in range(n)]
    for a1 in range(g.n):
        for a2 in range(h.n):
            for b1 in range(g.n):
                for b2 in range(h.n):
                    mul[a1 * h.n + a2][b1 * h.n + b2] = g.op(a1, b1) * h.n + h.op(a2, b2)
    return FiniteGroup.from_table(mul)


def z4_radical_group() -> FiniteGroup:
    """(Z4, o) with x o y = x + y + 2xy mod 4; identity 0."""
    return FiniteGroup.from_table([[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)])


def enumerate_isomorphisms(g: FiniteGroup, h: FiniteGroup) -> Iterator[Perm]:
    """All group isomorphisms g -> h as image tables, lexicographically.

    Backtracks over images of 0, 1, ... in ascending candidate order,
    pruning on every product already determined by the assigned prefix.
    A complete table has passed consistent(n - 1), which checks every
    product, and `used` keeps it injective, so each one is an isomorphism.
    """
    if g.n != h.n:
        raise SizeMismatch(f"orders differ: {g.n} vs {h.n}")
    n = g.n
    img = [-1] * n
    used = [False] * n

    def consistent(k: int) -> bool:
        for a in range(k + 1):
            for b in range(k + 1):
                c = g.mul[a][b]
                if c <= k and img[c] != h.mul[img[a]][img[b]]:
                    return False
        return True

    def extend(k: int) -> Iterator[Perm]:
        if k == n:
            yield tuple(img)
            return
        for cand in range(n):
            if used[cand]:
                continue
            img[k] = cand
            used[cand] = True
            if consistent(k):
                yield from extend(k + 1)
            img[k] = -1
            used[cand] = False

    yield from extend(0)


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    if g.n != h.n:
        return False
    return next(enumerate_isomorphisms(g, h), None) is not None
