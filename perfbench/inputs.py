"""Seeded inputs: relabelled groups and braces, commuting Lyubashenko pairs
and corrupted copies.

Everything is built with the reference code in ``oracle``; the library only
ever sees the resulting tables.
"""

from __future__ import annotations

import random

import oracle as ref


def rng_for(seed, *tags):
    """An independent deterministic stream per (seed, tags)."""
    return random.Random(":".join(map(str, (seed, *tags))))


def trivial(mul):
    """The trivial skew brace (G, ., .): conjugation braiding."""
    return mul, ref.braiding_from_brace(mul, mul)


def almost_trivial(mul):
    """(G, ., .op) with x * y = y . x; its braiding is x y x^-1 on the left."""
    n = len(mul)
    op = tuple(tuple(mul[y][x] for y in range(n)) for x in range(n))
    return mul, ref.braiding_from_brace(mul, op)


def z4_brace():
    """The skew brace with multiplication x + y + 2xy and additive group Z4."""
    return ref.z4_radical(), ref.braiding_from_brace(ref.z4_radical(), ref.cyclic(4))


BRACES = {
    "Z2": lambda: trivial(ref.cyclic(2)),
    "Z3": lambda: trivial(ref.cyclic(3)),
    "Z4": lambda: trivial(ref.cyclic(4)),
    "Z8": lambda: trivial(ref.cyclic(8)),
    "Klein": lambda: trivial(ref.klein()),
    "Z2xZ4": lambda: trivial(ref.direct_product(ref.cyclic(2), ref.cyclic(4))),
    "S3": lambda: trivial(ref.symmetric(3)),
    "S4": lambda: trivial(ref.symmetric(4)),
    "z4-brace": z4_brace,
    "S3-op": lambda: almost_trivial(ref.symmetric(3)),
    "S4-op": lambda: almost_trivial(ref.symmetric(4)),
}


def permutation(rng, n):
    """A random relabelling of {0..n-1}."""
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def relabel_brace(brace, p):
    mul, r = brace
    return ref.relabel_group(mul, p), ref.relabel_pairs(len(mul), r, p)


def seeded_brace(name, rng):
    brace = BRACES[name]()
    return relabel_brace(brace, permutation(rng, len(brace[0])))


def swap_two(rng, table):
    """A copy of a flat table with two entries of different value swapped."""
    table = list(table)
    while True:
        i, j = rng.sample(range(len(table)), 2)
        if table[i] != table[j]:
            table[i], table[j] = table[j], table[i]
            return tuple(table)


def swap_in_rows(rng, rows):
    """swap_two on a table of rows, keeping its shape."""
    width = len(rows[0])
    flat = swap_two(rng, [v for row in rows for v in row])
    return tuple(flat[k:k + width] for k in range(0, len(flat), width))


def commuting_pair(rng, n):
    """(sigma, gamma) with gamma a power of sigma, so r(x,y) = (sigma y, gamma x)
    is a braid solution."""
    sigma = permutation(rng, n)
    gamma = tuple(range(n))
    for _ in range(rng.randrange(1, n + 1)):
        gamma = tuple(sigma[v] for v in gamma)
    return sigma, gamma


def cycle_notation(perm):
    """Zero-based cycle notation as the CLI's `lyubashenko` generator reads it."""
    seen, out = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(str(i))
            i = perm[i]
        out.append("(" + " ".join(cycle) + ")")
    return "".join(out) or "id"
