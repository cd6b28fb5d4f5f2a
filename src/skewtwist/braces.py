"""Groups with braiding operators, i.e. skew braces, and twists on them.

A braiding operator on (G, ., e) is a YBE solution r: G^2 -> G^2 with

    brd1:     r(e,g) = (g,e)  and  r(g,e) = (e,g)
    brdOpr1:  r . m12 = m23 . r12 . r23   (as maps G^3 -> G^2)
    brdOpr2:  r . m23 = m12 . r23 . r12
    brdcomm:  m . r = m

The derived additive operation x * y = x . sigma_x^-1(y) is again a group,
so the pair is a skew brace.  A twist of braces adds conditions G1-G4 on
top of T1-T3; applying it replaces the multiplication by m . F^-1 and the
braiding by F r F^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AxiomFails, BraidFails, InvalidTwist, NotABrace, NotBijective, ShapeMismatch, SizeMismatch
from .groups import FiniteGroup, MulTable
from .solutions import (
    TwistReport,
    TwistTriple,
    YbeSolution,
    _conjugate,
    _invert,
    check_solution,
    compose_twists,
    doikou_twist,
    verify_twist,
)
from .tables import (
    PairMap,
    TripleMap,
    compose_triplemaps,
    lift_12,
    lift_23,
    perm_inverse,
    perm_is_bijective,
)


@dataclass(frozen=True)
class BraidedGroup:
    group: FiniteGroup          # (G, ., e)
    r: PairMap
    solution: YbeSolution
    star: FiniteGroup           # the additive group (G, *)

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def sigma(self):
        return self.solution.sigma

    @property
    def gamma(self):
        return self.solution.gamma

    def is_trivial(self) -> bool:
        return self.group.mul == self.star.mul


def check_braided_group(group: FiniteGroup, r: PairMap) -> BraidedGroup:
    """Validate the four braiding-operator axioms and build the star group."""
    n = group.n
    if r.n != n:
        raise SizeMismatch(f"universe sizes differ: {r.n} vs {n}")
    e = group.e
    mul = group.mul
    for g in range(n):
        if r(e, g) != (g, e) or r(g, e) != (e, g):
            raise AxiomFails("brd1", g)
    if not r.is_bijective:
        raise NotBijective("r is not a bijection of G^2")
    sigma = [[r(x, y)[0] for y in range(n)] for x in range(n)]
    gamma = [[r(x, y)[1] for x in range(n)] for y in range(n)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                # brdOpr1: r(xy, z) = (sig_x sig_y z, gam_{sig_y z}(x) . gam_z(y))
                a = sigma[x][sigma[y][z]]
                b = mul[gamma[sigma[y][z]][x]][gamma[z][y]]
                if r(mul[x][y], z) != (a, b):
                    raise AxiomFails("brdOpr1", (x, y, z))
                # brdOpr2: r(x, yz) = (sig_x y . sig_{gam_y x} z, gam_z gam_y x)
                a = mul[sigma[x][y]][sigma[gamma[y][x]][z]]
                b = gamma[z][gamma[y][x]]
                if r(x, mul[y][z]) != (a, b):
                    raise AxiomFails("brdOpr2", (x, y, z))
    for x in range(n):
        for y in range(n):
            if mul[sigma[x][y]][gamma[y][x]] != mul[x][y]:
                raise AxiomFails("brdcomm", (x, y))
    try:
        sol = check_solution(n, r)
    except BraidFails as exc:
        raise AxiomFails("braid", exc.witness) from exc
    if not sol.nondegenerate:
        raise AxiomFails("non-degenerate", None)
    sigma_inv = [perm_inverse(tuple(row)) for row in sigma]
    star_table = [[mul[x][sigma_inv[x][y]] for y in range(n)] for x in range(n)]
    try:
        star = FiniteGroup.from_table(star_table)
    except AxiomFails as exc:
        raise AxiomFails(f"star-{exc.axiom}", exc.witness) from exc
    if star.e != e:
        raise AxiomFails("star-identity", star.e)
    return BraidedGroup(group, r, sol, star)


def braiding_from_brace(dot: FiniteGroup, star_op: FiniteGroup) -> BraidedGroup:
    """Rebuild the braiding operator of the skew brace (G, dot, star).

    sigma_x is the inverse of y -> x^-1 . (x * y) and gamma is forced by
    m . r = m; the assembled r is then fully validated.
    """
    if dot.n != star_op.n:
        raise NotABrace("carriers have different sizes")
    if dot.e != star_op.e:
        raise NotABrace("the two operations have different identity elements")
    n = dot.n
    sigma = []
    for x in range(n):
        sigma_inv_x = tuple(dot.op(dot.inv[x], star_op.op(x, y)) for y in range(n))
        if not perm_is_bijective(sigma_inv_x):
            raise NotABrace(f"sigma_{x} is not a bijection")
        sigma.append(perm_inverse(sigma_inv_x))
    def build(x, y):
        a = sigma[x][y]
        return a, dot.op(dot.op(dot.inv[a], x), y)
    r = PairMap.from_callable(n, build)
    try:
        return check_braided_group(dot, r)
    except (AxiomFails, NotBijective) as exc:
        raise NotABrace(str(exc)) from exc


def trivial_brace(group: FiniteGroup) -> BraidedGroup:
    """The trivial skew brace (G, ., .): conjugation braiding, flip when abelian."""
    return braiding_from_brace(group, group)


def verify_brace_twist(b: BraidedGroup, t: TwistTriple) -> TwistReport:
    """Check T1-T3, then G1-G4, then the L1/L2 consequences, first failure wins."""
    base = verify_twist(b.solution, t)
    if not base:
        return base
    n, e, mul = b.n, b.group.e, b.group.mul
    for x in range(n):
        for y in range(n):
            if t.Psi(x, y, e) != (x, y, e) or t.Phi(e, x, y) != (e, x, y):
                return TwistReport(False, "G1", (x, y))
    for x in range(n):
        if t.F(e, x) != (e, x) or t.F(x, e) != (x, e):
            return TwistReport(False, "G2", (x,))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                p, q, w = t.Phi(x, y, z)
                if (p, mul[q][w]) != t.F(x, mul[y][z]):
                    return TwistReport(False, "G3", (x, y, z))
                p, q, w = t.Psi(x, y, z)
                if (mul[p][q], w) != t.F(mul[x][y], z):
                    return TwistReport(False, "G4", (x, y, z))
    # Consequences of the axioms; checked as a guard against table bugs.
    for x in range(n):
        for y in range(n):
            fx, fy = t.F(x, y)
            if t.Phi(x, y, e) != (fx, fy, e) or t.Phi(x, e, y) != (fx, e, fy):
                return TwistReport(False, "L1", (x, y))
            if t.Psi(e, x, y) != (e, fx, fy) or t.Psi(x, e, y) != (fx, e, fy):
                return TwistReport(False, "L2", (x, y))
    return TwistReport(True)


def _twisted_tables(b: BraidedGroup, t: TwistTriple) -> tuple[MulTable, PairMap]:
    """The multiplication m . F^-1 and the braiding F r F^-1, unchecked."""
    n = b.n
    mul = b.group.mul
    flat = tuple(mul[v // n][v % n] for v in t.F.inverse().table)
    return tuple(flat[k:k + n] for k in range(0, n * n, n)), _conjugate(t, b.r)


def _twisted_brace(b: BraidedGroup, t: TwistTriple) -> BraidedGroup:
    """The twisted brace, validated as a braided group; t itself is not checked."""
    mul, r = _twisted_tables(b, t)
    return check_braided_group(FiniteGroup.from_table(mul), r)


def apply_brace_twist(b: BraidedGroup, t: TwistTriple) -> BraidedGroup:
    """The twisted brace: multiplication m . F^-1, braiding F r F^-1.

    t is verified on b once (T1-T3, G1-G4, L1/L2); the result is validated as
    a braided group.
    """
    report = verify_brace_twist(b, t)
    if not report:
        raise InvalidTwist(f"{report.axiom} fails at {report.witness}")
    return _twisted_brace(b, t)


def theta_canonical_twist(b: BraidedGroup) -> TwistTriple:
    """The canonical twist F(x,y) = (x, sigma_x(y)) sending b to its trivial brace."""
    return doikou_twist(b.solution)


def compose_brace_twists(outer: TwistTriple, inner: TwistTriple, b: BraidedGroup) -> TwistTriple:
    """Composition in the subgroupoid of braces.

    compose_twists checks inner on b and outer on the twisted solution (T1-T3,
    once each); the composite is then verified once as a brace twist on b.
    """
    composed = compose_twists(outer, inner, b.solution)
    report = verify_brace_twist(b, composed)
    if not report:
        raise InvalidTwist(f"composite: {report.axiom} fails at {report.witness}")
    return composed


def invert_brace_twist(t: TwistTriple, b: BraidedGroup) -> TwistTriple:
    """Inverse twist, valid on the twisted brace.

    t is verified once as a brace twist on b, and the inverse once on the
    twisted brace.
    """
    report = verify_brace_twist(b, t)
    if not report:
        raise InvalidTwist(f"{report.axiom} fails at {report.witness}")
    inverse = _invert(t)
    report = verify_brace_twist(_twisted_brace(b, t), inverse)
    if not report:
        raise InvalidTwist(f"inverse: {report.axiom} fails at {report.witness}")
    return inverse


def phi_reconstruct(b: BraidedGroup, phi: TripleMap) -> TwistTriple:
    """Rebuild the full twist triple from its single-map form Phi.

    F is read off as Phi-bar from Phi(x, y, e) and Psi is forced by T1;
    the Z1-Z4 conditions are validated along the way.
    """
    n, e, mul = b.n, b.group.e, b.group.mul
    if phi.n != n:
        raise SizeMismatch(f"universe sizes differ: {phi.n} vs {n}")
    if not phi.is_bijective:
        raise NotBijective("Phi is not a bijection of G^3")
    fbar_table = {}
    for x in range(n):
        for y in range(n):
            p, q, w = phi(x, y, e)
            if w != e:
                raise ShapeMismatch(f"Phi({x},{y},e) has third component {w} != e")
            fbar_table[(x, y)] = (p, q)
    fbar = PairMap.from_callable(n, lambda x, y: fbar_table[(x, y)])
    if not fbar.is_bijective:
        raise NotBijective("Phi-bar is not a bijection of G^2")
    for x in range(n):
        for y in range(n):
            if phi(e, x, y) != (e, x, y):
                raise AxiomFails("Z1", (e, x, y))
        if fbar(x, e) != (x, e):
            raise AxiomFails("Z1", (x, e))
    # Z2: m23 . Phi = Phi-bar . m23
    for x in range(n):
        for y in range(n):
            for z in range(n):
                p, q, w = phi(x, y, z)
                if (p, mul[q][w]) != fbar(x, mul[y][z]):
                    raise AxiomFails("Z2", (x, y, z))
    psi = compose_triplemaps(
        lift_12(fbar).inverse(), compose_triplemaps(lift_23(fbar), phi)
    )
    # Z3: m12 . Psi = Phi-bar . m12
    for x in range(n):
        for y in range(n):
            for z in range(n):
                p, q, w = psi(x, y, z)
                if (mul[p][q], w) != fbar(mul[x][y], z):
                    raise AxiomFails("Z3", (x, y, z))
    r12 = lift_12(b.r)
    if compose_triplemaps(r12, psi) != compose_triplemaps(psi, r12):
        raise AxiomFails("Z4", None)
    r23 = lift_23(b.r)
    if compose_triplemaps(phi, r23) != compose_triplemaps(r23, phi):
        raise AxiomFails("T2", None)
    triple = TwistTriple(fbar, phi, psi)
    report = verify_brace_twist(b, triple)
    if not report:
        raise AxiomFails(report.axiom, report.witness)
    return triple
