"""Exception types shared across the package.

Validation failures carry the name of the violated axiom and the smallest
witness input, so callers (and the CLI) can report exactly where a table
went wrong.  Each class carries the CLI exit code it maps to: 1 for an axiom
violation (the default), 2 for a malformed input, 3 for work over budget.
"""


class SkewtwistError(Exception):
    exit_code = 1


class SizeMismatch(SkewtwistError):
    exit_code = 2


class NotBijective(SkewtwistError):
    pass


class BraidFails(SkewtwistError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"braid equation fails at {witness}")


class AxiomFails(SkewtwistError):
    def __init__(self, axiom, witness=None):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"axiom {axiom} fails at {witness}")


class InvalidTwist(SkewtwistError):
    pass


class Degenerate(SkewtwistError):
    pass


class ShapeMismatch(SkewtwistError):
    pass


class NonCommuting(SkewtwistError):
    pass


class TooLarge(SkewtwistError):
    exit_code = 3


class NotABrace(SkewtwistError):
    pass


class InvalidFamily(SkewtwistError):
    pass


class NotClassifiable(SkewtwistError):
    pass


class InvalidTheta(SkewtwistError):
    pass


class UnknownGenerator(SkewtwistError):
    exit_code = 2


class BadParams(SkewtwistError):
    exit_code = 2


class DocumentError(SkewtwistError):
    """Malformed document: bad JSON shape, missing keys, out-of-range entries."""

    exit_code = 2
