"""Tables built point by point, for tests: the pointwise definitions that the
library's code-built tables are compared with."""

from itertools import product


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
