"""Braid-form Yang-Baxter solutions on finite sets and Drinfeld twists on them.

A solution is an invertible r: X^2 -> X^2 with r23 r12 r23 = r12 r23 r12.
A twist is a triple (F, Phi, Psi) of bijections satisfying

    T1:  F12 . Psi  =  F23 . Phi
    T2:  Phi . r23  =  r23 . Phi
    T3:  Psi . r12  =  r12 . Psi

and conjugating r by F produces a new solution F r F^-1.

check_solution scans the braid relation at every point of X^3, as
B r23 = r12 B with B = r23 r12 built once for both sides.  Braiding
operators and Lyubashenko solutions satisfy it by their own axioms, so
check_braided_group and generators.lyubashenko_solution build the
YbeSolution without the scan (see braces and generators).

Nor is the braid relation of a twisted solution F r F^-1 scanned: it follows
from the twist axioms.  Let J = F12 Psi = F23 Phi (T1).  T3 gives
J r12 J^-1 = F12 Psi r12 Psi^-1 F12^-1 = F12 r12 F12^-1, and T2 gives
J r23 J^-1 = F23 r23 F23^-1.  Conjugating r23 r12 r23 = r12 r23 r12 by J
therefore gives the braid relation of F r F^-1.  So apply_twist and
compose_twists build the twisted solution unscanned (_twisted_solution)
once verify_twist has passed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    BraidFails,
    Degenerate,
    InvalidTwist,
    NonCommuting,
    NotBijective,
    ShapeMismatch,
    SizeMismatch,
    TooLarge,
)
from .tables import (
    PairMap,
    Perm,
    TripleMap,
    all_pair_bijections,
    first_failure,
    lift_12_table,
    lift_23_table,
    perm_chain,
    perm_compose,
    perm_identity,
    perm_inverse,
    perm_is_bijective,
)


@dataclass(frozen=True)
class YbeSolution:
    n: int
    r: PairMap
    sigma: tuple[Perm, ...]   # sigma[x][y] = first component of r(x, y)
    gamma: tuple[Perm, ...]   # gamma[y][x] = second component of r(x, y)
    involutive: bool
    nondegenerate: bool


@dataclass(frozen=True)
class TwistTriple:
    F: PairMap
    Phi: TripleMap
    Psi: TripleMap

    @classmethod
    def identity(cls, n: int) -> "TwistTriple":
        return cls(PairMap.identity(n), TripleMap.identity(n), TripleMap.identity(n))

    @property
    def n(self) -> int:
        return self.F.n


@dataclass(frozen=True)
class TwistReport:
    ok: bool
    axiom: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok

    def require(self, context: str = "") -> None:
        """Raise InvalidTwist naming the violated axiom and its witness,
        prefixed by context, unless the check passed."""
        if not self.ok:
            raise InvalidTwist(f"{context}{self.axiom} fails at {self.witness}")


def check_solution(n: int, r: PairMap) -> YbeSolution:
    """Validate the braid equation and extract the sigma/gamma tables."""
    if r.n != n:
        raise SizeMismatch(f"universe sizes differ: {r.n} vs {n}")
    if not r.is_bijective:
        raise NotBijective("r is not a bijection of X^2")
    failure = _braid_failure(r.table, n)
    if failure is not None:
        raise BraidFails(failure[1])
    return _solution(r, *_components(r))


def _components(r: PairMap) -> tuple[tuple[Perm, ...], tuple[Perm, ...]]:
    """(sigma, gamma): sigma[x][y] and gamma[y][x] are the first and the
    second component of r(x, y)."""
    n, t = r.n, r.table
    first = tuple(itertools.chain.from_iterable(itertools.repeat(x, n) for x in range(n)))
    second = perm_identity(n) * n
    sigma = tuple(perm_compose(first, t[x * n:x * n + n]) for x in range(n))
    gamma = tuple(perm_compose(second, t[y::n]) for y in range(n))
    return sigma, gamma


def _braid_failure(t: Perm, n: int) -> tuple[str, tuple[int, ...]] | None:
    """The first failure of r23 r12 r23 = r12 r23 r12 for the pair table t,
    compared as B r23 = r12 B with the shared B = r23 r12.  The n^3 tables
    are freed on return, so an exception raised for the failure does not
    keep them alive through its traceback."""
    r12, r23 = lift_12_table(t, n), lift_23_table(t, n)
    B = perm_compose(r23, r12)
    return first_failure((n, n, n), ("braid", (B, r23), (r12, B)))


def _solution(r: PairMap, sigma: tuple[Perm, ...], gamma: tuple[Perm, ...]) -> YbeSolution:
    """The YbeSolution of a bijective r that satisfies the braid relation,
    with its components given."""
    n, t = r.n, r.table
    involutive = perm_compose(t, t) == perm_identity(n * n)
    nondegenerate = all(perm_is_bijective(s) for s in sigma) and all(
        perm_is_bijective(g) for g in gamma
    )
    return YbeSolution(n, r, sigma, gamma, involutive, nondegenerate)


def verify_twist(s: YbeSolution, t: TwistTriple) -> TwistReport:
    """Check T1, T2, T3 in order; report the first violation with a witness."""
    if t.n != s.n:
        raise SizeMismatch(f"universe sizes differ: {t.n} vs {s.n}")
    for name, table in (("F-bijective", t.F), ("Phi-bijective", t.Phi), ("Psi-bijective", t.Psi)):
        if not table.is_bijective:
            return TwistReport(False, name, None)
    n, F, Phi, Psi, r = s.n, t.F.table, t.Phi.table, t.Psi.table, s.r.table
    cube = (n, n, n)
    # One call per axiom, in order, each lift of r built only when reached.
    failure = first_failure(cube, ("T1", (lift_12_table(F, n), Psi), (lift_23_table(F, n), Phi)))
    if failure is None:
        r23 = lift_23_table(r, n)
        failure = first_failure(cube, ("T2", (Phi, r23), (r23, Phi)))
    if failure is None:
        r12 = lift_12_table(r, n)
        failure = first_failure(cube, ("T3", (Psi, r12), (r12, Psi)))
    return TwistReport(True) if failure is None else TwistReport(False, *failure)


def _conjugate(t: TwistTriple, r: PairMap) -> PairMap:
    """F r F^-1, the solution a twist produces; F must be bijective."""
    return PairMap(r.n, perm_chain(t.F.table, r.table, t.F.inverse().table))


def _twisted_solution(t: TwistTriple, r: PairMap) -> YbeSolution:
    """The solution F r F^-1 of a twist t that satisfies T1-T3 on r; its braid
    relation follows from them (module docstring), so it is not scanned."""
    twisted = _conjugate(t, r)
    return _solution(twisted, *_components(twisted))


def apply_twist(s: YbeSolution, t: TwistTriple) -> YbeSolution:
    """The twisted solution F r F^-1.  t is verified on s once; the braid
    relation of the result follows from T1-T3 and is not scanned."""
    verify_twist(s, t).require()
    return _twisted_solution(t, s.r)


def _compose(outer: TwistTriple, inner: TwistTriple) -> TwistTriple:
    """The composite twist (G F, F23^-1 phi F23 Phi, F12^-1 psi F12 Psi) of
    outer = (G, phi, psi) after inner = (F, Phi, Psi), with no axiom check."""
    n, F, finv = inner.n, inner.F.table, inner.F.inverse().table
    phi = perm_chain(lift_23_table(finv, n), outer.Phi.table, lift_23_table(F, n), inner.Phi.table)
    psi = perm_chain(lift_12_table(finv, n), outer.Psi.table, lift_12_table(F, n), inner.Psi.table)
    return TwistTriple(PairMap(n, perm_compose(outer.F.table, F)), TripleMap(n, phi), TripleMap(n, psi))


def _invert(t: TwistTriple) -> TwistTriple:
    """The inverse twist (F^-1, F23 Phi^-1 F23^-1, F12 Psi^-1 F12^-1), with no axiom check."""
    n, F, finv = t.n, t.F.table, t.F.inverse()
    return TwistTriple(
        finv,
        TripleMap(n, perm_chain(lift_23_table(F, n), t.Phi.inverse().table, lift_23_table(finv.table, n))),
        TripleMap(n, perm_chain(lift_12_table(F, n), t.Psi.inverse().table, lift_12_table(finv.table, n))),
    )


def compose_twists(outer: TwistTriple, inner: TwistTriple, s: YbeSolution) -> TwistTriple:
    """Groupoid composition: inner twists s, outer twists the result.

    inner is verified on s and outer on the twisted solution F r F^-1, once
    each; that solution is not scanned for the braid relation, which T1-T3 of
    inner imply.  The composite is (G F, F23^-1 phi F23 Phi, F12^-1 psi F12 Psi),
    and its T1-T3 follow from those of inner and outer (see braces).
    """
    verify_twist(s, inner).require("inner twist: ")
    mid = _twisted_solution(inner, s.r)
    verify_twist(mid, outer).require("outer twist: ")
    return _compose(outer, inner)


def invert_twist(t: TwistTriple, s: YbeSolution) -> TwistTriple:
    """The inverse twist (F^-1, F23 Phi^-1 F23^-1, F12 Psi^-1 F12^-1) on F r F^-1;
    t is verified on s once."""
    verify_twist(s, t).require()
    return _invert(t)


def doikou_twist(s: YbeSolution) -> TwistTriple:
    """The twist F(x,y) = (x, sigma_x(y)) that flattens the left action.

    Applied to an involutive solution it yields the flip; on any skew-brace
    braiding it yields the trivial braiding of the additive group.
    """
    if any(not perm_is_bijective(sig) for sig in s.sigma):
        bad = next(x for x, sig in enumerate(s.sigma) if not perm_is_bijective(sig))
        raise Degenerate(f"sigma_{bad} is not a bijection")
    # Phi = F12 r12^-1 F23 r12 and Psi = s23 F12 s23 F23, s the flip.
    n = s.n
    F = tuple(x * n + v for x, row in enumerate(s.sigma) for v in row)
    F12, F23 = lift_12_table(F, n), lift_23_table(F, n)
    r12 = lift_12_table(s.r.table, n)
    s23 = lift_23_table(PairMap.flip(n).table, n)
    Phi = perm_chain(F12, lift_12_table(perm_inverse(s.r.table), n), F23, r12)
    Psi = perm_chain(s23, F12, s23, F23)
    return TwistTriple(PairMap(n, F), TripleMap(n, Phi), TripleMap(n, Psi))


def lyubashenko_shape(s: YbeSolution) -> tuple[Perm, Perm]:
    """The (sigma, gamma) pair when r(x,y) = (sigma(y), gamma(x)); else ShapeMismatch."""
    sigma = s.sigma[0]
    gamma = s.gamma[0]
    if any(s.sigma[x] != sigma for x in range(s.n)):
        raise ShapeMismatch("sigma_x depends on x")
    if any(s.gamma[y] != gamma for y in range(s.n)):
        raise ShapeMismatch("gamma_y depends on y")
    return sigma, gamma


def kappa_twist(s: YbeSolution, kappa: Perm) -> TwistTriple:
    """The twist F(x,y) = (x, kappa(y)) on a solution r(x,y) = (sigma(y), gamma(x)).

    kappa must be a bijection of X commuting with both sigma and gamma.
    """
    sigma, gamma = lyubashenko_shape(s)
    if len(kappa) != s.n or not perm_is_bijective(kappa):
        raise NotBijective("kappa is not a bijection of X")
    if perm_compose(kappa, sigma) != perm_compose(sigma, kappa):
        raise NonCommuting("kappa does not commute with sigma")
    if perm_compose(kappa, gamma) != perm_compose(gamma, kappa):
        raise NonCommuting("kappa does not commute with gamma")
    # F = id x kappa, Phi = (kappa x kappa)23 and Psi = (F F)23.
    n = s.n
    F = lift_23_table(kappa, n, n)
    Phi, Psi = lift_23_table(_cross(kappa, 2), n), lift_23_table(perm_compose(F, F), n)
    return TwistTriple(PairMap(n, F), TripleMap(n, Phi), TripleMap(n, Psi))


def conjugate_twist(t: TwistTriple, f: Perm) -> TwistTriple:
    """Transport a twist along a solution isomorphism f: conjugate every table
    by f x f (and f x f x f)."""
    n, fi = len(f), perm_inverse(f)
    f3, fi3 = _cross(f, 3), _cross(fi, 3)
    return TwistTriple(
        PairMap(n, perm_chain(_cross(f, 2), t.F.table, _cross(fi, 2))),
        TripleMap(n, perm_chain(f3, t.Phi.table, fi3)),
        TripleMap(n, perm_chain(f3, t.Psi.table, fi3)),
    )


def _cross(f: Perm, k: int) -> Perm:
    """f x ... x f (k factors), the map (x1, ..., xk) -> (f(x1), ..., f(xk)) on X^k."""
    n, out = len(f), f
    for _ in range(k - 1):
        out = perm_compose(lift_12_table(out, n), lift_23_table(f, len(out), n))
    return out


def brute_force_twists(s: YbeSolution) -> Iterator[TwistTriple]:
    """Exhaustive twist enumeration at n = 2.

    F ranges over the 24 bijections of X^2 and Phi over the 40320 bijections
    of X^3; Psi is forced by T1 as F12^-1 . F23 . Phi, and candidates are kept
    exactly when T2 and T3 hold.  Output order is lexicographic in (F, Phi).
    """
    if s.n != 2:
        raise TooLarge("brute-force twist enumeration is capped at n = 2")
    n, r = s.n, s.r.table
    r12, r23 = lift_12_table(r, n), lift_23_table(r, n)
    # T2 does not involve F, so the Phi commuting with r23 are found once.
    phis = [
        phi for phi in itertools.permutations(range(n ** 3))
        if perm_compose(phi, r23) == perm_compose(r23, phi)
    ]
    for F in all_pair_bijections(n):
        f12_inv, f23 = perm_inverse(lift_12_table(F.table, n)), lift_23_table(F.table, n)
        for phi in phis:
            psi = perm_chain(f12_inv, f23, phi)
            if perm_compose(psi, r12) == perm_compose(r12, psi):
                yield TwistTriple(F, TripleMap(n, phi), TripleMap(n, psi))
