"""Matched pairs of finite groups and the Theta-maps that induce twists.

A matched pair is (G+, G-) with a left action of G+ on the set G- (written
actL) and a right action of G- on the set G+ (written actR), compatible
with both multiplications.  A Theta-map G-^2 -> G+^2 satisfying the three
cocycle conditions induces a twist triple on G-; specialized to the pair a
skew brace defines on itself (actL = sigma, actR = gamma), Theta(x, y) =
(e, x) recovers the canonical twist onto the trivial brace.

The four product axioms of a matched pair are decided on generators and
scanned pointwise only to locate a witness (see groups): left-action-mul and
right-compat at h = a for each generator a of G+, right-action-mul and
left-compat at c = a for each generator a of G-.  The h at which the first
two hold for all g, b are closed under products, as (g h1 h2) |> b and
(g h1 h2) <| b expand through h2 and then h1, and so are the c at which the
last two hold for all g, b, as g <| (b c1 c2) and g |> (b c1 c2) expand
through c2 and then c1; the unit axioms checked first put e among both.

The self-pair of a brace is not checked (pair_from_brace): with
g |> b = sigma_g(b) and g <| b = tau_b(g), its axioms are the brace's.  The
four unit axioms are brd1; left-action-mul and right-compat are the sigma-
and tau-parts of brdOpr1, and left-compat and right-action-mul those of
brdOpr2 (see braces).

A Theta-map found by enumerate_thetas is not re-checked: the search decides
every condition of check_theta.  Its candidates meet the unit conditions,
F_Theta takes a new value at each of the |G-|^2 entries, so it is a
bijection, and every cocycle instance is checked once all it reads is set
(_cocycle_watches).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import getitem
from typing import Iterator

from .braces import BraidedGroup, verify_brace_twist
from .errors import AxiomFails, InvalidTheta, SizeMismatch, TooLarge
from .groups import FiniteGroup
from .solutions import TwistReport, TwistTriple
from .tables import PairMap, TripleMap, perm_compose

ActionTable = tuple[tuple[int, ...], ...]

DEFAULT_THETA_BUDGET = 10_000_000


@dataclass(frozen=True)
class MatchedPair:
    gplus: FiniteGroup
    gminus: FiniteGroup
    act_left: ActionTable    # act_left[g][b]  = g |> b  in G-
    act_right: ActionTable   # act_right[g][b] = g <| b  in G+


@dataclass(frozen=True)
class ThetaMap:
    nminus: int
    nplus: int
    theta1: tuple[int, ...]  # length nminus^2, values in G+
    theta2: tuple[int, ...]

    def __call__(self, a: int, b: int) -> tuple[int, int]:
        i = a * self.nminus + b
        return self.theta1[i], self.theta2[i]

    @classmethod
    def constant_identity(cls, p: MatchedPair) -> "ThetaMap":
        m, ep = p.gminus.n, p.gplus.e
        return cls(m, p.gplus.n, (ep,) * (m * m), (ep,) * (m * m))

    @classmethod
    def canonical(cls, p: MatchedPair) -> "ThetaMap":
        """Theta(x, y) = (e+, x); only meaningful when G- embeds in G+ (the
        brace pair, where the two carriers coincide)."""
        m, ep = p.gminus.n, p.gplus.e
        return cls(m, p.gplus.n, (ep,) * (m * m), tuple(a for a in range(m) for _ in range(m)))


def check_matched_pair(
    gplus: FiniteGroup, gminus: FiniteGroup, act_left, act_right
) -> MatchedPair:
    """Validate the action and compatibility axioms; first failure wins."""
    act_left = tuple(tuple(row) for row in act_left)
    act_right = tuple(tuple(row) for row in act_right)
    np_, nm = gplus.n, gminus.n
    if len(act_left) != np_ or any(len(row) != nm for row in act_left):
        raise SizeMismatch("act_left must be |G+| x |G-|")
    if len(act_right) != np_ or any(len(row) != nm for row in act_right):
        raise SizeMismatch("act_right must be |G+| x |G-|")
    if any(not (0 <= v < nm) for row in act_left for v in row):
        raise SizeMismatch("act_left entry out of range")
    if any(not (0 <= v < np_) for row in act_right for v in row):
        raise SizeMismatch("act_right entry out of range")
    ep, em = gplus.e, gminus.e
    for b in range(nm):
        if act_left[ep][b] != b:
            raise AxiomFails("left-action-unit", b)
        if act_right[ep][b] != ep:
            raise AxiomFails("plus-unit-fixed", b)
    for g in range(np_):
        if act_left[g][em] != em:
            raise AxiomFails("minus-unit-fixed", g)
        if act_right[g][em] != g:
            raise AxiomFails("right-action-unit", g)
    if not _pair_axioms_on_generators(gplus, gminus, act_left, act_right):
        _locate_pair_failure(gplus, gminus, act_left, act_right)
    return MatchedPair(gplus, gminus, act_left, act_right)


def _pair_axioms_on_generators(gplus, gminus, act_left, act_right) -> bool:
    """Whether left-action-mul and right-compat hold at every (g, a, b) and
    right-action-mul and left-compat at every (g, b, a), for each generator a
    of G+ and of G- respectively; row by row over g."""
    pmul, mmul = gplus.mul, gminus.mul
    for a in gplus.generators:
        left_a, right_a = act_left[a], act_right[a]
        col_a = [row[a] for row in pmul]  # g -> ga
        # left-action-mul: (ga) |> b = g |> (a |> b)
        if perm_compose(act_left, col_a) != tuple(perm_compose(row, left_a) for row in act_left):
            return False
        # right-compat: (ga) <| b = (g <| (a |> b)) . (a <| b)
        for ga, right_g in zip(col_a, act_right):
            rhs = map(getitem, perm_compose(pmul, perm_compose(right_g, left_a)), right_a)
            if act_right[ga] != tuple(rhs):
                return False
    for a in gminus.generators:
        col_a = [row[a] for row in mmul]  # b -> ba
        right_at_a = [row[a] for row in act_right]  # g -> g <| a
        left_at_a = [row[a] for row in act_left]  # g -> g |> a
        for left_g, right_g in zip(act_left, act_right):
            # right-action-mul: g <| (ba) = (g <| b) <| a
            if perm_compose(right_g, col_a) != perm_compose(right_at_a, right_g):
                return False
            # left-compat: g |> (ba) = (g |> b) . ((g <| b) |> a)
            rhs = map(getitem, perm_compose(mmul, left_g), perm_compose(left_at_a, right_g))
            if perm_compose(left_g, col_a) != tuple(rhs):
                return False
    return True


def _locate_pair_failure(gplus, gminus, act_left, act_right) -> None:
    """Raise at the first point, in check_matched_pair's order, at which a
    product axiom fails."""
    np_, nm = gplus.n, gminus.n
    for g in range(np_):
        for h in range(np_):
            for b in range(nm):
                if act_left[gplus.op(g, h)][b] != act_left[g][act_left[h][b]]:
                    raise AxiomFails("left-action-mul", (g, h, b))
                # (gh) <| b = (g <| (h |> b)) . (h <| b)
                lhs = act_right[gplus.op(g, h)][b]
                rhs = gplus.op(act_right[g][act_left[h][b]], act_right[h][b])
                if lhs != rhs:
                    raise AxiomFails("right-compat", (g, h, b))
    for g in range(np_):
        for b in range(nm):
            for c in range(nm):
                if act_right[g][gminus.op(b, c)] != act_right[act_right[g][b]][c]:
                    raise AxiomFails("right-action-mul", (g, b, c))
                # g |> (bc) = (g |> b) . ((g <| b) |> c)
                lhs = act_left[g][gminus.op(b, c)]
                rhs = gminus.op(act_left[g][b], act_left[act_right[g][b]][c])
                if lhs != rhs:
                    raise AxiomFails("left-compat", (g, b, c))


def pair_from_brace(b: BraidedGroup) -> MatchedPair:
    """The self-pair of a brace: both groups are (G, .), g |> x = sigma_g(x)
    and g <| x = tau_x(g); assembled unchecked, as the braiding-operator
    axioms are its matched-pair axioms (module docstring)."""
    return MatchedPair(b.group, b.group, b.sigma, tuple(zip(*b.gamma)))


def _theta_unit_failure(p: MatchedPair, theta: ThetaMap) -> tuple[int, int] | None:
    """The first point at which a unit condition fails, or None."""
    nm, em, ep = p.gminus.n, p.gminus.e, p.gplus.e
    t1, t2 = theta.theta1, theta.theta2
    for a in range(nm):
        if t2[em * nm + a] != ep:
            return em, a
        if t1[a * nm + em] != ep:
            return a, em
    return None


def _theta_cocycle_failure(p: MatchedPair, theta: ThetaMap):
    """The first cocycle condition that fails, as (name, (a, b, c)), or None.

    Points (a, b, c) are scanned in lexicographic order and the conditions
    theta-1, theta-2, theta-3 in that order at each point.  With
    g1 = Theta_1(ab, c), g2 = Theta_2(a, bc), A = g1 |> a,
    B = (g1 <| a) |> b, C = g2 |> b and D = (g2 <| b) |> c:
      theta-1  Theta_1(A, B) . g1 = Theta_1(a, bc)
      theta-2  Theta_2(A, B) . (g1 <| a) = Theta_1(C, D) . g2
      theta-3  Theta_2(ab, c) = Theta_2(C, D) . (g2 <| b)
    """
    nm = p.gminus.n
    mmul, pmul = p.gminus.mul, p.gplus.mul
    t1, t2 = theta.theta1, theta.theta2
    L = tuple(zip(*p.act_left))     # L[x][g] = g |> x
    R = tuple(zip(*p.act_right))    # R[x][g] = g <| x
    cols = tuple(zip(*pmul))        # cols[g][q] = q . g
    for a in range(nm):
        La, Ra, row_a = L[a], R[a], a * nm
        for b in range(nm):
            Lb, Rb, mul_b = L[b], R[b], mmul[b]
            ab = mmul[a][b] * nm
            for c in range(nm):
                p1 = ab + c                  # (ab, c)
                p2 = row_a + mul_b[c]        # (a, bc)
                g1, g2 = t1[p1], t2[p2]
                ra, rb = Ra[g1], Rb[g2]
                AB = La[g1] * nm + Lb[ra]
                CD = Lb[g2] * nm + L[c][rb]
                if cols[g1][t1[AB]] != t1[p2]:
                    return "theta-1", (a, b, c)
                if pmul[t2[AB]][ra] != pmul[t1[CD]][g2]:
                    return "theta-2", (a, b, c)
                if t2[p1] != pmul[t2[CD]][rb]:
                    return "theta-3", (a, b, c)
    return None


def f_theta(p: MatchedPair, theta: ThetaMap) -> PairMap:
    """F_Theta(g, h) = (Theta_1(g,h) |> g, Theta_2(g,h) |> h) on G-^2.

    Bijectivity is reported by the PairMap itself, not assumed here.
    """
    m, actL, t1, t2 = p.gminus.n, p.act_left, theta.theta1, theta.theta2
    return PairMap(m, tuple(actL[t1[i]][i // m] * m + actL[t2[i]][i % m] for i in range(m * m)))


def _checked_f_theta(p: MatchedPair, theta: ThetaMap) -> tuple[TwistReport, PairMap | None]:
    """check_theta's report and F_Theta, or None where a condition failed first."""
    if theta.nminus != p.gminus.n or theta.nplus != p.gplus.n:
        raise SizeMismatch("theta table does not match the pair")
    witness = _theta_unit_failure(p, theta)
    if witness is not None:
        return TwistReport(False, "theta-unit", witness), None
    failure = _theta_cocycle_failure(p, theta)
    if failure is not None:
        return TwistReport(False, *failure), None
    F = f_theta(p, theta)
    if not F.is_bijective:
        return TwistReport(False, "f-theta-bijective", None), F
    return TwistReport(True), F


def check_theta(p: MatchedPair, theta: ThetaMap) -> TwistReport:
    """Unit conditions, the three cocycle conditions, and F_Theta bijectivity."""
    return _checked_f_theta(p, theta)[0]


def triple_from_theta(p: MatchedPair, theta: ThetaMap, base: BraidedGroup) -> TwistTriple:
    """The induced twist (F_Theta, Phi_Theta, Psi_Theta) on the base brace."""
    report, F = _checked_f_theta(p, theta)
    if not report:
        raise InvalidTheta(f"{report.axiom} fails at {report.witness}")
    if base.n != p.gminus.n:
        raise SizeMismatch("base brace carrier must be G-")
    m, mul = p.gminus.n, p.gminus.mul
    actL, actR = p.act_left, p.act_right
    t1, t2 = theta.theta1, theta.theta2
    # Phi(a, b, c) = (u |> a, v |> b, (v <| b) |> c) with (u, v) = Theta(a, bc)
    phi = tuple(
        (actL[t1[i]][a] * m + actL[t2[i]][b]) * m + actL[actR[t2[i]][b]][c]
        for a, b, c in product(range(m), repeat=3) for i in (a * m + mul[b][c],)
    )
    # Psi(a, b, c) = (u |> a, (u <| a) |> b, v |> c) with (u, v) = Theta(ab, c)
    psi = tuple(
        (actL[t1[i]][a] * m + actL[actR[t1[i]][a]][b]) * m + actL[t2[i]][c]
        for a, b, c in product(range(m), repeat=3) for i in (mul[a][b] * m + c,)
    )
    triple = TwistTriple(F, TripleMap(m, phi), TripleMap(m, psi))
    brace_report = verify_brace_twist(base, triple)
    if not brace_report:
        raise InvalidTheta(
            f"induced triple fails {brace_report.axiom} at {brace_report.witness}"
        )
    return triple


def _cocycle_watches(p: MatchedPair):
    """Watch lists for the Theta search: per flat entry i = a*|G-| + b, the
    cocycle instances whose partial check can change once Theta(a, b) is set.

    Each instance (a, b, c) is stored as (p1, p2, AB, RA, CD, RB): the flat
    entries p1 = (ab, c) and p2 = (a, bc), and, indexed by an element g of
    G+, the flat entry (A, B) and g <| a for g1 = g, and the flat entry
    (C, D) and g <| b for g2 = g (notation of _theta_cocycle_failure).
    An instance reads p1 and p2, then (A, B) through Theta_1(p1) and (C, D)
    through Theta_2(p2), and checks nothing until p1 and p2 are both set.
    The search sets entries in increasing order, so when it sets i exactly
    the entries below i are already set, and an instance's outcome can only
    change at i = max(p1, p2) (`direct`) or when i is its (A, B) or (C, D)
    entry with i > max(p1, p2) (`via1` and `via2`, gated on Theta_1(p1) = g
    and Theta_2(p2) = g respectively, as (gate entry, g, instance)).
    """
    nm, np_ = p.gminus.n, p.gplus.n
    mmul = p.gminus.mul
    actL, actR = p.act_left, p.act_right
    # The (C, D) tuple of (a, b, c) is the (A, B) tuple of (b, c), so each
    # per-g tuple is built once and shared: R[x] = (g <| x)_g, AB[x][y].
    R = [tuple(actR[g][x] for g in range(np_)) for x in range(nm)]
    AB = [
        [tuple(actL[g][x] * nm + actL[r][y] for g, r in enumerate(R[x])) for y in range(nm)]
        for x in range(nm)
    ]
    direct = [[] for _ in range(nm * nm)]
    via1 = [[] for _ in range(nm * nm)]
    via2 = [[] for _ in range(nm * nm)]
    for a in range(nm):
        for b in range(nm):
            ab_g = AB[a][b]
            for c in range(nm):
                cd_g = AB[b][c]
                p1 = mmul[a][b] * nm + c
                p2 = a * nm + mmul[b][c]
                inst = (p1, p2, ab_g, R[a], cd_g, R[b])
                last = max(p1, p2)
                direct[last].append(inst)
                for g in range(np_):
                    if ab_g[g] > last:
                        via1[ab_g[g]].append((p1, g, inst))
                    if cd_g[g] > last:
                        via2[cd_g[g]].append((p2, g, inst))
    return direct, via1, via2


def enumerate_thetas(
    p: MatchedPair, budget: int = DEFAULT_THETA_BUDGET
) -> Iterator[ThetaMap]:
    """All Theta-maps passing check_theta, by depth-first search over entries.

    Entries Theta(a, b) are assigned in lexicographic order of (a, b) and
    candidate values in lexicographic order of the output pair, so the stream
    order is deterministic.  Partial assignments are pruned by the unit
    conditions, by injectivity of the partially built F_Theta, and by any
    cocycle-condition instance all of whose lookups already resolve.  Every
    instance held before an assignment, so after assigning an entry only
    the instances that read it are re-checked, from watch lists built once
    per call (_cocycle_watches); the pruning is the same as re-checking all
    |G-|^3 instances.  Each map found passes check_theta, so it is yielded
    without a re-check (module docstring).  Raises TooLarge once more than
    `budget` assignments have been attempted, or up front when the watch
    lists' |G-|^3 |G+| entries alone would exceed it.
    """
    nm, np_ = p.gminus.n, p.gplus.n
    pmul = p.gplus.mul
    actL = p.act_left
    em, ep = p.gminus.e, p.gplus.e
    theta1 = [-1] * (nm * nm)
    theta2 = [-1] * (nm * nm)
    f_used: set[tuple[int, int]] = set()
    if nm ** 3 * np_ > budget:
        raise TooLarge(f"theta enumeration exceeded budget of {budget}")
    direct, via1, via2 = _cocycle_watches(p)
    attempts = 0

    def holds(inst) -> bool:
        # p1 and p2 are set whenever an instance is re-checked.
        p1, p2, AB, RA, CD, RB = inst
        g1, g2 = theta1[p1], theta2[p2]
        ab, cd = AB[g1], CD[g2]
        u, w = theta1[ab], theta1[cd]
        if u >= 0:
            if pmul[u][g1] != theta1[p2]:
                return False
            if w >= 0 and pmul[theta2[ab]][RA[g1]] != pmul[w][g2]:
                return False
        if w >= 0 and theta2[p1] != pmul[theta2[cd]][RB[g2]]:
            return False
        return True

    def consistent(i: int) -> bool:
        for inst in direct[i]:
            if not holds(inst):
                return False
        for gate, g, inst in via1[i]:
            if theta1[gate] == g and not holds(inst):
                return False
        for gate, g, inst in via2[i]:
            if theta2[gate] == g and not holds(inst):
                return False
        return True

    def candidates(a, b):
        us = [ep] if b == em else range(np_)
        vs = [ep] if a == em else range(np_)
        for u in us:
            for v in vs:
                yield u, v

    def extend(i: int) -> Iterator[ThetaMap]:
        nonlocal attempts
        if i == nm * nm:
            yield ThetaMap(nm, np_, tuple(theta1), tuple(theta2))
            return
        a, b = divmod(i, nm)
        for u, v in candidates(a, b):
            attempts += 1
            if attempts > budget:
                raise TooLarge(f"theta enumeration exceeded budget of {budget}")
            fval = (actL[u][a], actL[v][b])
            if fval in f_used:
                continue
            theta1[i], theta2[i] = u, v
            f_used.add(fval)
            if consistent(i):
                yield from extend(i + 1)
            theta1[i] = theta2[i] = -1
            f_used.discard(fval)

    yield from extend(0)
