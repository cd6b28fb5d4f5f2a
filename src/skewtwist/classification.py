"""Classification of twists between skew braces by families of additive-group
isomorphisms.

Every twist between trivial braces (G, *, *) -> (G, *', *') is of the form
F(x, y) = (f_p(x), f_p(y)) with p = x*y, for a family {f_g} of isomorphisms
(G, *) -> (G, *') satisfying f_g(g) = g.  Twists between arbitrary braces
decompose as canonical-twist conjugates of family twists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterator

from .braces import (
    BraidedGroup,
    _brace_twist_report,
    _mul_lifts,
    _twisted_tables,
    theta_canonical_twist,
    trivial_brace,
    verify_brace_twist,
)
from .errors import InvalidFamily, InvalidTwist, NotClassifiable, SizeMismatch
from .groups import FiniteGroup, are_isomorphic, enumerate_isomorphisms
from .solutions import TwistTriple, _compose, _invert
from .tables import PairMap, Perm, TripleMap, first_failure, perm_inverse, perm_is_bijective


@dataclass(frozen=True)
class IsoFamily:
    source: FiniteGroup            # (G, *)
    target: FiniteGroup            # (G, *')
    maps: tuple[Perm, ...]         # maps[g] = image table of f_g

    @property
    def n(self) -> int:
        return self.source.n


def make_iso_family(source: FiniteGroup, target: FiniteGroup, maps) -> IsoFamily:
    """Validate that each f_g is an isomorphism source -> target fixing g."""
    maps = tuple(tuple(m) for m in maps)
    n = source.n
    if target.n != n:
        raise SizeMismatch(f"orders differ: {n} vs {target.n}")
    if source.e != target.e:
        raise InvalidFamily("source and target have different identity elements")
    if len(maps) != n:
        raise InvalidFamily(f"expected {n} maps, got {len(maps)}")
    for g, f in enumerate(maps):
        if len(f) != n or not perm_is_bijective(f):
            raise InvalidFamily(f"f_{g} is not a bijection")
        if f[g] != g:
            raise InvalidFamily(f"f_{g} does not fix {g}")
        for a in range(n):
            for b in range(n):
                if f[source.op(a, b)] != target.op(f[a], f[b]):
                    raise InvalidFamily(f"f_{g} is not a homomorphism at ({a},{b})")
    return IsoFamily(source, target, maps)


def _family_triple(fam: IsoFamily) -> TwistTriple:
    """The family twist of twist_from_family, built with no axiom check.

    With q = x*y*z, alpha = f^-1_{f_q(y*z)} . f_q and beta = f^-1_{f_q(x*y)} . f_q:
    F(x,y) = (f_xy(x), f_xy(y)), Phi(x,y,z) = (f_q(x), alpha(y), alpha(z)) and
    Psi(x,y,z) = (beta(x), beta(y), f_q(z)).
    """
    n = fam.n
    mul = fam.source.mul
    f = fam.maps
    finv = [perm_inverse(m) for m in f]
    F = []
    for x in range(n):
        for y in range(n):
            fp = f[mul[x][y]]
            F.append(fp[x] * n + fp[y])
    Phi = []
    Psi = []
    for x in range(n):
        for y in range(n):
            d = mul[x][y]
            for z in range(n):
                c = mul[y][z]
                fq = f[mul[d][z]]
                alpha = finv[fq[c]]
                beta = finv[fq[d]]
                Phi.append((fq[x] * n + alpha[fq[y]]) * n + alpha[fq[z]])
                Psi.append((beta[fq[x]] * n + beta[fq[y]]) * n + fq[z])
    return TwistTriple(PairMap(n, tuple(F)), TripleMap(n, tuple(Phi)), TripleMap(n, tuple(Psi)))


def twist_from_family(fam: IsoFamily) -> TwistTriple:
    """The twist on the trivial brace of the source given by F(x,y) = (f_xy(x), f_xy(y)).

    Phi and Psi are filled in with the connecting maps
    alpha_{x,c} = f^-1_{f_xc(c)} . f_xc and beta_{c,z} = f^-1_{f_cz(c)} . f_cz,
    with all index products taken in the source group.  The twist is verified
    on the trivial brace of the source.
    """
    triple = _family_triple(fam)
    report = verify_brace_twist(trivial_brace(fam.source), triple)
    if not report:
        raise InvalidFamily(f"family twist fails {report.axiom} at {report.witness}")
    return triple


def family_from_twist(source: FiniteGroup, target: FiniteGroup, t: TwistTriple) -> IsoFamily:
    """Extract the classifying family from a twist between trivial braces.

    f_p(z) is the first component of F(z, z^-1 * p); the extraction is
    validated and round-tripped, failure meaning t is not such a twist.
    """
    n = source.n
    if t.n != n:
        raise SizeMismatch(f"universe sizes differ: {t.n} vs {n}")
    F, mul, inv = t.F.table, source.mul, source.inv
    maps = [tuple(F[z * n + mul[inv[z]][p]] // n for z in range(n)) for p in range(n)]
    try:
        fam = make_iso_family(source, target, maps)
    except (InvalidFamily, SizeMismatch) as exc:
        raise NotClassifiable(str(exc)) from exc
    if twist_from_family(fam) != t:
        raise NotClassifiable("extracted family does not reproduce the twist")
    return fam


def enumerate_families(src: FiniteGroup, tgt: FiniteGroup) -> Iterator[IsoFamily]:
    """Cartesian product over g of the isomorphisms src -> tgt fixing g, in lex order,
    each stabilizer filtered from one search whose maps need no re-validation."""
    isos = list(enumerate_isomorphisms(src, tgt))
    stabilizers = [[f for f in isos if f[g] == g] for g in range(src.n)]
    for choice in product(*stabilizers):
        yield IsoFamily(src, tgt, choice)


def count_families(src: FiniteGroup, tgt: FiniteGroup) -> int:
    """Number of families src -> tgt, i.e. the length of enumerate_families: the
    product of per-element stabilizer sizes, counted in one streaming pass in O(n)
    memory; zero when the orders differ."""
    if src.n != tgt.n:
        return 0
    fixing = [0] * src.n
    for f in enumerate_isomorphisms(src, tgt):
        for g, v in enumerate(f):
            if v == g:
                fixing[g] += 1
    return math.prod(fixing)


def count_twists(b1: BraidedGroup, b2: BraidedGroup) -> int:
    """Number of twists b1 -> b2: the number of families between the additive
    groups on their given labels.  Zero when they are non-isomorphic, but also
    when some g is fixed by no isomorphism (see are_twist_related)."""
    return count_families(b1.star, b2.star)


def _family_twists(b1: BraidedGroup, b2: BraidedGroup) -> Iterator[tuple[IsoFamily, TwistTriple]]:
    """(family, twist) for every twist b1 -> b2, in family order.

    The twist of a family f is Theta2^-1 . T_f . Theta1, built with the
    unchecked groupoid core, canonical twists included.  Only the composite
    is checked: it is verified once on b1 (T1-T3, G1-G4; L1/L2 follow, see
    braces) and checked to map b1 onto b2, which decides every emitted twist.
    """
    n = b1.n
    if n != b2.n:
        return
    theta1 = theta_canonical_twist(b1)
    theta2_inv = _invert(theta_canonical_twist(b2))
    target = tuple(chain(*b2.group.mul))
    lifts = _mul_lifts(b1.group.mul)
    for fam in enumerate_families(b1.star, b2.star):
        twist = _compose(theta2_inv, _compose(_family_triple(fam), theta1))
        _brace_twist_report(b1, twist, lifts).require("composite: ")
        mul, r = _twisted_tables(b1, twist)
        failure = (
            first_failure((n, n), ("braiding", (r.table,), (b2.r.table,)))
            or first_failure((n, n), ("multiplication", (mul,), (target,)))
        )
        if failure is not None:
            raise InvalidTwist(f"composite: {failure[0]} differs from the target at {failure[1]}")
        yield fam, twist


def enumerate_brace_twists(b1: BraidedGroup, b2: BraidedGroup) -> Iterator[TwistTriple]:
    """All twists b1 -> b2, as canonical-twist conjugates of family twists.

    Each emitted twist is verified once on b1 and checked to map b1 onto b2;
    the intermediate compositions are not re-verified.
    """
    for _, twist in _family_twists(b1, b2):
        yield twist


def anytwist_f_matches(
    b1: BraidedGroup, b2: BraidedGroup, fam: IsoFamily, t: TwistTriple
) -> bool:
    """Check the closed form of the F-component of a decomposed twist:
    F(x, y) = (f_p(x), f_p(x)^-1 .2 p) with p = x .1 y, where .1 and .2 are
    the multiplications of b1 and b2."""
    n, mul1, mul2, inv2 = b1.n, b1.group.mul, b2.group.mul, b2.group.inv
    want = tuple(
        u * n + mul2[inv2[u]][p]
        for x in range(n) for p in mul1[x] for u in (fam.maps[p][x],)
    )
    return t.F.table == want


def are_twist_related(b1: BraidedGroup, b2: BraidedGroup) -> bool:
    """True iff the additive groups are isomorphic, up to relabelling.  count_twists
    can still be 0, as it needs an isomorphism fixing each g on the given labels:
    trivial Z4 against Z4 with 1 and 2 exchanged is related but has no twist."""
    return b1.n == b2.n and are_isomorphic(b1.star, b2.star)


def braces_isomorphic(b1: BraidedGroup, b2: BraidedGroup) -> bool:
    """Isomorphism of skew braces: one bijection preserving both operations."""
    if b1.n != b2.n:
        return False
    for f in enumerate_isomorphisms(b1.group, b2.group):
        if all(
            f[b1.star.op(a, b)] == b2.star.op(f[a], f[b])
            for a in range(b1.n)
            for b in range(b1.n)
        ):
            return True
    return False
