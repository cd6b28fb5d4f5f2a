"""Groups with braiding operators, i.e. skew braces, and twists on them.

A braiding operator on (G, ., e) is a YBE solution r: G^2 -> G^2 with

    brd1:     r(e,g) = (g,e)  and  r(g,e) = (e,g)
    brdOpr1:  r . m12 = m23 . r12 . r23   (as maps G^3 -> G^2)
    brdOpr2:  r . m23 = m12 . r23 . r12
    brdcomm:  m . r = m

The derived additive operation x * y = x . sigma_x^-1(y) is again a group
(shown below), so the pair is a skew brace.  A twist of braces adds
conditions G1-G4 on top of T1-T3; applying it replaces the multiplication by
m . F^-1 and the braiding by F r F^-1.

brdOpr1/brdOpr2 are decided on the generators of (G, .) and scanned in full
only to locate a witness.  With r(x, y) = (sigma_x(y), tau_y(x)), brdOpr1 is
sigma_{xy} = sigma_x sigma_y and tau_z(xy) = tau_{sigma_y z}(x) . tau_z(y),
and brdOpr2 is sigma_x(yz) = sigma_x(y) . sigma_{tau_y x}(z) and
tau_{yz}(x) = tau_z(tau_y x).  The y at which brdOpr1 holds for all x, z
are closed under products, as are the z at which brdOpr2 holds for all x, y:
expand x(yw) = (xy)w, or y(zw) = (yz)w, through w and then the other factor.
brd1 puts e among both, so each axiom holds everywhere once it holds with
each generator in that slot (see groups).

The braid relation is not scanned: a braiding operator satisfies it
(Lu-Yan-Zhu, Duke Math. J. 2000).  At (x, y, z), with a = sigma_x(y),
b = tau_y(x), c = sigma_y(z) and d = tau_z(y), r12 r23 r12 gives
(sigma_a sigma_b(z), tau_{sigma_b z}(a), tau_z(b)) and r23 r12 r23 gives
(sigma_x(c), sigma_{tau_c x}(d), tau_d tau_c(x)).  The first components
agree, as sigma_a sigma_b = sigma_{ab} (brdOpr1), ab = xy (brdcomm) and
sigma_{xy} = sigma_x sigma_y; the third agree, as tau_d tau_c = tau_{cd}
(brdOpr2), cd = yz (brdcomm) and tau_{yz} = tau_z tau_y.  Multiplied out
with brdcomm, the three components of either side give xyz, so the middle
components agree by cancellation.  brd1 gives sigma_e = tau_e = id, so
sigma_x sigma_{x^-1} = sigma_{x^-1} sigma_x = id and likewise for tau: r is
non-degenerate.

The additive group is assembled, not checked (_braided_group).  As sigma is
a homomorphism (brdOpr1) with sigma_e = id, sigma_x^-1 = sigma_{x^-1} and
x * y = x . sigma_{x^-1}(y).  Each sigma_x preserves *: brdcomm gives
tau_y(x) = sigma_x(y)^-1 x y, so brdOpr2 reads
sigma_x(yz) = sigma_x(y) . sigma_{sigma_x(y)^-1 x y}(z), and at
z = sigma_{y^-1}(w) this is sigma_x(y * w) = sigma_x(y) * sigma_x(w).  With
a = sigma_{x^-1}(y) and b = sigma_{x^-1}(z), x * (y * z) = x . (a * b) and
(x * y) * z = xa . sigma_{a^-1} sigma_{x^-1}(z) are both x a sigma_{a^-1}(b):
* is associative.  sigma_x(e) = e (brd1), so x * e = x and e * y = y, and
x * sigma_x(x^-1) = x x^-1 = e.  So (G, *) is a group with identity e, in
which sigma_x(x^-1) is the inverse of x; FiniteGroup.from_table would find
exactly these, so no group axiom of * can fail.  This is the Lu-Yan-Zhu
correspondence as Guarnieri-Vendramin (Math. Comp. 2017) use it.

A brace twist is verified where it enters, and four checks that the axioms
already imply are not run.  Throughout, t = (F, Phi, Psi) satisfies T1-T3 on
r and J = F12 Psi = F23 Phi (T1); by T2 and T3, J r23 J^-1 = F23 r23 F23^-1
and J r12 J^-1 = F12 r12 F12^-1 (see solutions).

L1/L2.  With (f1, f2) = F(x, y), the points Phi(x, y, e) = (f1, f2, e),
Phi(x, e, y) = (f1, e, f2), Psi(e, x, y) = (e, f1, f2) and
Psi(x, e, y) = (f1, e, f2) follow from T1-T3, G1, G2 and brd1, so
verify_brace_twist does not check them.  T1 at (x, y, e), where Psi is the
identity (G1), gives (F(x, y), e) = (Phi_1, F(Phi_2, Phi_3)), so
F(Phi_2, Phi_3) = (f2, e) = F(f2, e) (G2).  T1 at (e, x, y) gives
F(Psi_1, Psi_2) = (e, f1) = F(e, f1) alike.  As r23(x, e, y) = (x, y, e)
(brd1), T2 at (x, e, y) gives r(Phi_2, Phi_3) = (f2, e) = r(e, f2), and
T3 at (x, e, y) gives r(Psi_1, Psi_2) = (e, f1) = r(f1, e).

Composites.  If the outer twist (G, phi, psi) satisfies T1-T3 on
r' = F r F^-1, the composite (G F, F23^-1 phi F23 Phi, F12^-1 psi F12 Psi)
satisfies them on r, so compose_brace_twists checks only G1-G4 on it.  T1:
G12 psi F12 Psi = G23 phi F12 Psi = G23 phi F23 Phi.  T2: Phi commutes with
r23, phi with r'23 = F23 r23 F23^-1, so F23^-1 phi F23 Phi commutes with r23;
T3 alike.

Inverses.  invert_brace_twist checks neither the twisted brace
b' = (m F^-1, F r F^-1) nor the inverse t* = (F^-1, F23 Phi^-1 F23^-1,
F12 Psi^-1 F12^-1) on it.  Write m' = m F^-1 and r' = F r F^-1.
- b' is a brace.  F^-1 fixes (e, x) and (x, e) (G2), so e is the identity
  of m', and r' satisfies brd1; m' r' = m r F^-1 = m' (brdcomm).  G3 and G4
  read m'23 = F m23 J^-1 and m'12 = F m12 J^-1, so m' m'12 = m m12 J^-1
  and m' m'23 = m m23 J^-1 agree as m is associative; with r'12 = J r12 J^-1
  and r'23 = J r23 J^-1, brdOpr1 and brdOpr2 of r' are those of r
  conjugated: r' m'12 = F r m12 J^-1 and m'23 r'12 r'23 = F m23 r12 r23 J^-1.
  F maps the n points of m^-1(e) onto m'^-1(e), and in a finite monoid
  uv = e implies vu = e, so these are n pairs (u, u^-1): every element is a
  unit.  So _twisted_brace assembles b' as the group whose inverse of x is
  the u with m'(x, u) = e, and its additive group by _braided_group.
- t* is a brace twist on b'.  T1: F^-1_12 Psi* = J^-1 = F^-1_23 Phi*.
  T2: Phi* r'23 = F23 Phi^-1 r23 F23^-1 = r'23 Phi*, and T3 alike.  G1/G2:
  F^-1 fixes what F fixes, F23^-1 and F12^-1 keep the points (e, x, y) and
  (x, y, e) of that form, and Phi^-1 and Psi^-1 fix those (G1).  G3:
  m'23 Phi* = m23 Phi^-1 F23^-1 = F^-1 m'23, as F m23 = m23 Phi; G4 alike.

phi_reconstruct.  The triple (Phi-bar, Phi, Psi) with Psi = F12^-1 F23 Phi
satisfies T1 by construction, and T2, T3 (Z4), G3 (Z2) and G4 (Z3) are
scanned.  Z1 gives Phi(e, x, y) = (e, x, y) and Phi-bar(x, e) = (x, e);
with Phi(x, y, e) = (Phi-bar(x, y), e), Psi(x, y, e) = (x, y, e), and
Phi(e, x, e) = (Phi-bar(e, x), e) = (e, x, e), which is G1 and G2.  So the
triple is returned without verify_brace_twist.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import getitem

from .errors import AxiomFails, NotABrace, NotBijective, ShapeMismatch, SizeMismatch
from .groups import FiniteGroup, MulTable
from .solutions import (
    TwistReport,
    TwistTriple,
    YbeSolution,
    _components,
    _conjugate,
    _invert,
    _solution,
    compose_twists,
    doikou_twist,
    verify_twist,
)
from .tables import (
    PairMap,
    Perm,
    TripleMap,
    first_failure,
    lift_12_table,
    lift_23_table,
    perm_chain,
    perm_compose,
    perm_inverse,
    perm_is_bijective,
)


def _mul_lifts(mul: MulTable) -> tuple[Perm, Perm, Perm]:
    """The flat m and its lifts m12(x, y, z) = (xy, z), m23(x, y, z) = (x, yz);
    never cached, as each lift holds n^3 entries: a twist stream holds one
    set while it runs (classification._family_twists)."""
    n = len(mul)
    flat = tuple(chain.from_iterable(mul))
    return flat, lift_12_table(flat, n), lift_23_table(flat, n, n)


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


def _brdopr_on_generators(
    group: FiniteGroup, sigma: tuple[Perm, ...], gamma: tuple[Perm, ...]
) -> bool:
    """Whether brdOpr1 holds at every (x, a, z) and brdOpr2 at every (x, y, a)
    for each generator a, read off the components (gamma[y] is tau_y)."""
    mul = group.mul
    cols = tuple(zip(*mul))          # cols[w][q] = q . w
    sigma_at = tuple(zip(*sigma))    # sigma_at[y][x] = sigma_x(y)
    for a in group.generators:
        sigma_a, col_a = sigma[a], cols[a]
        # brdOpr1: sigma_{xa} = sigma_x sigma_a; tau_z(xa) = tau_{sigma_a z}(x) . tau_z(a)
        if perm_compose(sigma, col_a) != tuple(perm_compose(s, sigma_a) for s in sigma):
            return False
        for z, tau_z in enumerate(gamma):
            if perm_compose(tau_z, col_a) != perm_compose(cols[tau_z[a]], gamma[sigma_a[z]]):
                return False
        # brdOpr2: tau_{ya} = tau_a tau_y; sigma_x(ya) = sigma_x(y) . sigma_{tau_y x}(a)
        for y, tau_y in enumerate(gamma):
            ya = mul[y][a]
            if gamma[ya] != perm_compose(gamma[a], tau_y):
                return False
            rhs = map(getitem, perm_compose(mul, sigma_at[y]), perm_compose(sigma_at[a], tau_y))
            if sigma_at[ya] != tuple(rhs):
                return False
    return True


def _brdopr_failure(mul: MulTable, t: Perm) -> tuple[str, tuple[int, ...]] | None:
    """The least (x, y, z) at which brdOpr1 or brdOpr2 fails, brdOpr1 first at
    a tie, by a scan of every point; the n^3 lifts are freed on return."""
    n = len(mul)
    _, m12, m23 = _mul_lifts(mul)
    r12, r23 = lift_12_table(t, n), lift_23_table(t, n)
    return first_failure(
        (n, n, n),
        ("brdOpr1", (t, m12), (m23, r12, r23)),
        ("brdOpr2", (t, m23), (m12, r23, r12)),
    )


def check_braided_group(group: FiniteGroup, r: PairMap) -> BraidedGroup:
    """Validate the four braiding-operator axioms and assemble the star group;
    the braid relation, non-degeneracy and the group axioms of star follow
    from them (module docstring)."""
    n = group.n
    if r.n != n:
        raise SizeMismatch(f"universe sizes differ: {r.n} vs {n}")
    e, mul, t = group.e, group.mul, r.table
    for g in range(n):
        if t[e * n + g] != g * n + e or t[g * n + e] != e * n + g:
            raise AxiomFails("brd1", g)
    if not r.is_bijective:
        raise NotBijective("r is not a bijection of G^2")
    sigma, gamma = _components(r)
    if not _brdopr_on_generators(group, sigma, gamma):
        raise AxiomFails(*_brdopr_failure(mul, t))
    flat = tuple(chain.from_iterable(mul))
    failure = first_failure((n, n), ("brdcomm", (flat, t), (flat,)))
    if failure is not None:
        raise AxiomFails(*failure)
    return _braided_group(group, r, sigma, gamma)


def _braided_group(
    group: FiniteGroup, r: PairMap, sigma: tuple[Perm, ...], gamma: tuple[Perm, ...]
) -> BraidedGroup:
    """The braided group of a braiding operator r on group with components
    (sigma, gamma), assembled without checks: the solution, and the additive
    group x * y = x . sigma_{x^-1}(y) with identity e and inverses
    x -> sigma_x(x^-1) (module docstring)."""
    star = tuple(map(perm_compose, group.mul, perm_compose(sigma, group.inv)))
    star_inv = tuple(map(getitem, sigma, group.inv))
    star_group = FiniteGroup(group.n, star, group.e, star_inv)
    return BraidedGroup(group, r, _solution(r, sigma, gamma), star_group)


def braiding_from_brace(dot: FiniteGroup, star_op: FiniteGroup) -> BraidedGroup:
    """Rebuild the braiding operator of the skew brace (G, dot, star).

    sigma_x is the inverse of y -> x^-1 . (x * y) and gamma is forced by
    m . r = m; the assembled r is then fully validated.
    """
    if dot.n != star_op.n:
        raise NotABrace("carriers have different sizes")
    if dot.e != star_op.e:
        raise NotABrace("the two operations have different identity elements")
    n, mul, inv = dot.n, dot.mul, dot.inv
    codes = []
    for x in range(n):
        sigma_inv_x = tuple(mul[inv[x]][star_op.mul[x][y]] for y in range(n))
        if not perm_is_bijective(sigma_inv_x):
            raise NotABrace(f"sigma_{x} is not a bijection")
        # r(x, y) = (a, (a^-1 . x) . y) with a = sigma_x(y)
        codes += (a * n + mul[mul[inv[a]][x]][y] for y, a in enumerate(perm_inverse(sigma_inv_x)))
    r = PairMap(n, tuple(codes))
    try:
        return check_braided_group(dot, r)
    except (AxiomFails, NotBijective) as exc:
        raise NotABrace(str(exc)) from exc


def trivial_brace(group: FiniteGroup) -> BraidedGroup:
    """The trivial skew brace (G, ., .): conjugation braiding, flip when abelian."""
    return braiding_from_brace(group, group)


def verify_brace_twist(b: BraidedGroup, t: TwistTriple) -> TwistReport:
    """Check T1-T3, then G1-G4, first failure wins; L1/L2 follow from them
    (module docstring)."""
    return _brace_twist_report(b, t, None)


def _brace_twist_report(
    b: BraidedGroup, t: TwistTriple, lifts: tuple[Perm, Perm, Perm] | None
) -> TwistReport:
    """verify_brace_twist with _mul_lifts(b.group.mul) given, so that a stream
    of twists on one base builds them once; None builds them if G3/G4 are
    reached."""
    base = verify_twist(b.solution, t)
    return _group_report(b, t, lifts) if base else base


def _group_report(
    b: BraidedGroup, t: TwistTriple, lifts: tuple[Perm, Perm, Perm] | None
) -> TwistReport:
    """G1-G4 of t on b, first failure wins, for a t that satisfies T1-T3."""
    n, nn, e = b.n, b.n * b.n, b.group.e
    F, Phi, Psi = t.F.table, t.Phi.table, t.Psi.table
    for i in range(nn):
        if Psi[i * n + e] != i * n + e or Phi[e * nn + i] != e * nn + i:
            return TwistReport(False, "G1", divmod(i, n))
    for x in range(n):
        if F[e * n + x] != e * n + x or F[x * n + e] != x * n + e:
            return TwistReport(False, "G2", (x,))
    _, m12, m23 = lifts or _mul_lifts(b.group.mul)
    failure = first_failure((n, n, n), ("G3", (m23, Phi), (F, m23)), ("G4", (m12, Psi), (F, m12)))
    return TwistReport(True) if failure is None else TwistReport(False, *failure)


def _twisted_tables(b: BraidedGroup, t: TwistTriple) -> tuple[Perm, PairMap]:
    """The flat multiplication m . F^-1 and the braiding F r F^-1, unchecked."""
    flat = perm_compose(tuple(chain.from_iterable(b.group.mul)), t.F.inverse().table)
    return flat, _conjugate(t, b.r)


def _twisted_brace(b: BraidedGroup, t: TwistTriple) -> BraidedGroup:
    """The twisted brace of a brace twist t, assembled without checks: it is
    a braided group with identity e (module docstring, Inverses)."""
    flat, r = _twisted_tables(b, t)
    rows = tuple(flat[k:k + b.n] for k in range(0, len(flat), b.n))
    group = FiniteGroup(b.n, rows, b.group.e, tuple(row.index(b.group.e) for row in rows))
    return _braided_group(group, r, *_components(r))


def apply_brace_twist(b: BraidedGroup, t: TwistTriple) -> BraidedGroup:
    """The twisted brace: multiplication m . F^-1, braiding F r F^-1.

    t is verified on b once (T1-T3, G1-G4); the result is assembled
    unchecked, as the module docstring shows it is a brace.
    """
    verify_brace_twist(b, t).require()
    return _twisted_brace(b, t)


def theta_canonical_twist(b: BraidedGroup) -> TwistTriple:
    """The canonical twist F(x,y) = (x, sigma_x(y)) sending b to its trivial brace."""
    return doikou_twist(b.solution)


def compose_brace_twists(outer: TwistTriple, inner: TwistTriple, b: BraidedGroup) -> TwistTriple:
    """Composition in the subgroupoid of braces.

    compose_twists checks inner on b and outer on the twisted solution (T1-T3,
    once each).  The composite's T1-T3 follow from theirs (module docstring),
    so only G1-G4 are checked on it, on b.
    """
    composed = compose_twists(outer, inner, b.solution)
    _group_report(b, composed, None).require("composite: ")
    return composed


def invert_brace_twist(t: TwistTriple, b: BraidedGroup) -> TwistTriple:
    """Inverse twist, valid on the twisted brace.

    t is verified once as a brace twist on b.  The twisted brace and the
    inverse on it are not checked: both follow from t (module docstring).
    """
    verify_brace_twist(b, t).require()
    return _invert(t)


def phi_reconstruct(b: BraidedGroup, phi: TripleMap) -> TwistTriple:
    """Rebuild the full twist triple from its single-map form Phi.

    F is read off as Phi-bar from Phi(x, y, e) and Psi is forced by T1;
    the Z1-Z4 conditions and T2 are validated along the way, and they make
    the triple a brace twist (module docstring).
    """
    n, e, mul = b.n, b.group.e, b.group.mul
    if phi.n != n:
        raise SizeMismatch(f"universe sizes differ: {phi.n} vs {n}")
    if not phi.is_bijective:
        raise NotBijective("Phi is not a bijection of G^3")
    fbar = []
    for i in range(n * n):
        pq, w = divmod(phi.table[i * n + e], n)
        if w != e:
            x, y = divmod(i, n)
            raise ShapeMismatch(f"Phi({x},{y},e) has third component {w} != e")
        fbar.append(pq)
    fbar = PairMap(n, tuple(fbar))
    if not fbar.is_bijective:
        raise NotBijective("Phi-bar is not a bijection of G^2")
    for x in range(n):
        for y in range(n):
            code = (e * n + x) * n + y
            if phi.table[code] != code:
                raise AxiomFails("Z1", (e, x, y))
        if fbar.table[x * n + e] != x * n + e:
            raise AxiomFails("Z1", (x, e))
    # Z2: m23 . Phi = Phi-bar . m23, then Z3: m12 . Psi = Phi-bar . m12
    cube, F, r = (n, n, n), fbar.table, b.r.table
    _, m12, m23 = _mul_lifts(mul)
    psi = perm_chain(perm_inverse(lift_12_table(F, n)), lift_23_table(F, n), phi.table)
    failure = (
        first_failure(cube, ("Z2", (m23, phi.table), (F, m23)))
        or first_failure(cube, ("Z3", (m12, psi), (F, m12)))
    )
    if failure is not None:
        raise AxiomFails(*failure)
    # Z4 then T2, reported without a witness.
    r12, r23 = lift_12_table(r, n), lift_23_table(r, n)
    failure = (
        first_failure(cube, ("Z4", (r12, psi), (psi, r12)))
        or first_failure(cube, ("T2", (phi.table, r23), (r23, phi.table)))
    )
    if failure is not None:
        raise AxiomFails(failure[0], None)
    return TwistTriple(fbar, phi, TripleMap(n, psi))
