"""Tables built point by point, for tests: the pointwise definitions that the
library's code-built tables are compared with."""

from itertools import chain, product


def table_of(cls, n, fn):
    """The cls table (PairMap or TripleMap) of fn, which takes the coordinates
    of a point of X^k and returns its image as a k-tuple; points are encoded
    row-major, x*n + y and x*n^2 + y*n + z."""
    k = cls.arity

    def code(image):
        assert len(image) == k and all(0 <= c < n for c in image), image
        out = 0
        for c in image:
            out = out * n + c
        return out

    return cls(n, tuple(code(fn(*point)) for point in product(range(n), repeat=k)))


def lift_12_reference(table, n):
    """table x id, (u, z) -> table[u]*n + z, as the generator of row slices
    that lift_12_table used to be."""
    ints = tuple(range(len(table) * n))
    return tuple(chain.from_iterable(ints[v * n:v * n + n] for v in table))


def lift_23_reference(table, n, m=None):
    """id x table, (x, u) -> x*m + table[u] for x < n, entry by entry; m is
    the number of values of table (n^2 by default)."""
    m = n * n if m is None else m
    return tuple(x * m + table[u] for x in range(n) for u in range(len(table)))
