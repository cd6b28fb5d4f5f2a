"""Named generators for the structures used throughout the test corpus."""

from __future__ import annotations

import re

from .braces import BraidedGroup, braiding_from_brace, trivial_brace
from .errors import BadParams, NotBijective, TooLarge, UnknownGenerator
from .groups import cyclic, klein, symmetric, z4_radical_group
from .matched import DEFAULT_THETA_BUDGET
from .solutions import YbeSolution, _components, _solution
from .tables import PairMap, Perm, perm_compose, perm_identity

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> Perm:
    """Parse zero-based cycle notation like '(0 1)(2 3)'; 'id' or '()' is identity."""
    text = text.strip()
    perm = list(range(n))
    if text in ("id", "()", ""):
        return tuple(perm)
    if _CYCLE_RE.sub("", text).strip():
        raise BadParams(f"cannot parse permutation {text!r}")
    seen: set[int] = set()
    for cycle_text in _CYCLE_RE.findall(text):
        parts = [p for p in re.split(r"[\s,]+", cycle_text.strip()) if p]
        if not parts:
            continue
        try:
            cycle = [int(p) for p in parts]
        except ValueError as exc:
            raise BadParams(f"cannot parse cycle ({cycle_text})") from exc
        if any(not (0 <= v < n) for v in cycle):
            raise BadParams(f"cycle entry out of range in ({cycle_text})")
        if len(set(cycle)) != len(cycle):
            raise BadParams(f"repeated entry in cycle ({cycle_text})")
        if seen.intersection(cycle):
            raise BadParams(f"cycles overlap in {text!r}")
        seen.update(cycle)
        for i, v in enumerate(cycle):
            perm[v] = cycle[(i + 1) % len(cycle)]
    return tuple(perm)


def lyubashenko_solution(n: int, sigma: Perm, gamma: Perm) -> YbeSolution:
    """r(x, y) = (sigma(y), gamma(x)); a braid solution iff sigma and gamma commute.

    At (x, y, z), r12 r23 r12 gives (sigma sigma z, gamma sigma y, gamma gamma x)
    and r23 r12 r23 gives (sigma sigma z, sigma gamma y, gamma gamma x), so the
    commute check decides the braid relation and no scan is run.
    """
    if perm_compose(sigma, gamma) != perm_compose(gamma, sigma):
        raise BadParams("sigma and gamma must commute")
    r = PairMap(n, tuple(sigma[y] * n + gamma[x] for x in range(n) for y in range(n)))
    if not r.is_bijective:
        raise NotBijective("r is not a bijection of X^2")
    return _solution(r, *_components(r))


def s4_solution() -> YbeSolution:
    """The 4-element solution r(x,y) = (sigma(y), gamma(x)), sigma = (0 1), gamma = (2 3)."""
    return lyubashenko_solution(4, (1, 0, 2, 3), (0, 1, 3, 2))


def flip_solution(n: int) -> YbeSolution:
    """r(x, y) = (y, x): the Lyubashenko solution with sigma = gamma = id."""
    return lyubashenko_solution(n, perm_identity(n), perm_identity(n))


def z4_brace() -> BraidedGroup:
    """The skew brace on Z4 with x o y = x + y + 2xy and additive group (Z4, +)."""
    return braiding_from_brace(z4_radical_group(), cyclic(4))


def gen(name: str, params: list[str], budget: int = DEFAULT_THETA_BUDGET):
    """Build a named structure; returns a solution or a brace.  A universe of
    n elements with n^3 > budget is refused (TooLarge) before any table is built."""
    def want(k: int):
        if len(params) != k:
            raise BadParams(f"{name} takes {k} parameter(s), got {len(params)}")

    def size(n: int, label: str | None = None) -> int:
        if n ** 3 > budget:
            raise TooLarge(f"{name} on {label or n} elements exceeds the budget of "
                           f"{budget} triple-table entries")
        return n

    if name == "s4-solution":
        want(0)
        return s4_solution()
    if name == "flip":
        want(1)
        return flip_solution(size(_int_param(params[0])))
    if name == "lyubashenko":
        want(3)
        n = size(_int_param(params[0]))
        return lyubashenko_solution(n, parse_cycles(params[1], n), parse_cycles(params[2], n))
    if name == "cyclic-trivial-brace":
        want(1)
        return trivial_brace(cyclic(size(_int_param(params[0]))))
    if name == "klein-trivial-brace":
        want(0)
        return trivial_brace(klein())
    if name == "sym-trivial-brace":
        want(1)
        k = _int_param(params[0])
        order = 1
        for i in range(1, k + 1):  # k! one factor at a time, so a huge k stops early
            order = size(order * i, f"{k}!")
        return trivial_brace(symmetric(k))
    if name == "z4-brace":
        want(0)
        return z4_brace()
    raise UnknownGenerator(f"unknown generator: {name}")


def _int_param(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise BadParams(f"expected an integer, got {text!r}") from exc
    if n < 1:
        raise BadParams("size must be positive")
    return n
