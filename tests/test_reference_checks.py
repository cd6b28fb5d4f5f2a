"""The n^3 axiom checkers against their former pointwise loops.

Every checker now composes whole tables and compares the composites
(tables.first_failure), and the group, brdOpr and matched-pair product axioms
are first decided on generators and scanned only on failure.  The loops below
are the earlier implementations, which decoded every entry through
PairMap/TripleMap.__call__ or checked every point of G+^2 x G- and
G+ x G-^2; they are kept here as references, and every verdict must match
them exactly: exception type and text, axiom and witness, or the whole
TwistReport.
"""

import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from skewtwist import braces, matched, solutions
from skewtwist.braces import (
    BraidedGroup,
    _twisted_tables,
    apply_brace_twist,
    braiding_from_brace,
    check_braided_group,
    compose_brace_twists,
    invert_brace_twist,
    phi_reconstruct,
    theta_canonical_twist,
    trivial_brace,
    verify_brace_twist,
)
from skewtwist.classification import enumerate_brace_twists
from skewtwist.errors import (
    AxiomFails,
    BraidFails,
    InvalidTwist,
    NotBijective,
    ShapeMismatch,
    SizeMismatch,
)
from skewtwist.generators import flip_solution, lyubashenko_solution, s4_solution, z4_brace
from skewtwist.groups import FiniteGroup, cyclic, klein, symmetric
from skewtwist.matched import MatchedPair, check_matched_pair, enumerate_thetas, pair_from_brace
from skewtwist.solutions import (
    TwistReport,
    TwistTriple,
    YbeSolution,
    apply_twist,
    brute_force_twists,
    check_solution,
    compose_twists,
    doikou_twist,
    invert_twist,
    kappa_twist,
    lyubashenko_shape,
    verify_twist,
)
from skewtwist.tables import (
    PairMap,
    TripleMap,
    lift_12_table,
    lift_23_table,
    perm_chain,
    perm_compose,
    perm_inverse,
    perm_is_bijective,
)

from pointwise import table_of


# ---------------------------------------------------------------- references

def ref_from_table(mul):
    """FiniteGroup.from_table with its triple loop for associativity."""
    mul = tuple(tuple(row) for row in mul)
    n = len(mul)
    if any(len(row) != n for row in mul):
        raise SizeMismatch("multiplication table is not square")
    if any(not (0 <= v < n) for row in mul for v in row):
        raise SizeMismatch("multiplication table entry out of range")
    e = None
    for cand in range(n):
        if all(mul[cand][a] == a == mul[a][cand] for a in range(n)):
            e = cand
            break
    if e is None:
        raise AxiomFails("identity", None)
    inv = [None] * n
    for a in range(n):
        for b in range(n):
            if mul[a][b] == e and mul[b][a] == e:
                inv[a] = b
                break
        if inv[a] is None:
            raise AxiomFails("inverses", a)
    for a, b, c in itertools.product(range(n), repeat=3):
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            raise AxiomFails("associativity", (a, b, c))
    return FiniteGroup(n, mul, e, tuple(inv))


def ref_check_solution(n, r):
    """check_solution with the braid relation evaluated point by point."""
    if r.n != n:
        raise SizeMismatch(f"universe sizes differ: {r.n} vs {n}")
    if not r.is_bijective:
        raise NotBijective("r is not a bijection of X^2")
    r12 = lambda x, y, z: (*r(x, y), z)
    r23 = lambda x, y, z: (x, *r(y, z))
    for p in itertools.product(range(n), repeat=3):
        if r23(*r12(*r23(*p))) != r12(*r23(*r12(*p))):
            raise BraidFails(p)
    sigma = tuple(tuple(r(x, y)[0] for y in range(n)) for x in range(n))
    gamma = tuple(tuple(r(x, y)[1] for x in range(n)) for y in range(n))
    involutive = all(r(*r(x, y)) == (x, y) for x in range(n) for y in range(n))
    nondegenerate = all(map(perm_is_bijective, sigma)) and all(map(perm_is_bijective, gamma))
    return YbeSolution(n, r, sigma, gamma, involutive, nondegenerate)


def first_point(n, differs):
    return next((p for p in itertools.product(range(n), repeat=3) if differs(*p)), None)


def ref_verify_twist(s, t):
    """_check_twist_axioms with T1-T3 evaluated point by point."""
    if t.n != s.n:
        raise SizeMismatch(f"universe sizes differ: {t.n} vs {s.n}")
    for name, table in (("F-bijective", t.F), ("Phi-bijective", t.Phi), ("Psi-bijective", t.Psi)):
        if not table.is_bijective:
            return TwistReport(False, name, None)
    F, Phi, Psi, r = t.F, t.Phi, t.Psi, s.r
    lift12 = lambda f: lambda x, y, z: (*f(x, y), z)
    lift23 = lambda f: lambda x, y, z: (x, *f(y, z))
    r12, r23 = lift12(r), lift23(r)
    for axiom, lhs, rhs in (
        ("T1", lambda *p: lift12(F)(*Psi(*p)), lambda *p: lift23(F)(*Phi(*p))),
        ("T2", lambda *p: Phi(*r23(*p)), lambda *p: r23(*Phi(*p))),
        ("T3", lambda *p: Psi(*r12(*p)), lambda *p: r12(*Psi(*p))),
    ):
        witness = first_point(s.n, lambda *p: lhs(*p) != rhs(*p))
        if witness is not None:
            return TwistReport(False, axiom, witness)
    return TwistReport(True)


def ref_verify_brace_twist(b, t):
    """verify_brace_twist with its G1-G4 and L1/L2 loops over __call__; L1/L2
    stay here as the reference for the proof that they follow."""
    base = ref_verify_twist(b.solution, t)
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
    for x, y, z in itertools.product(range(n), repeat=3):
        p, q, w = t.Phi(x, y, z)
        if (p, mul[q][w]) != t.F(x, mul[y][z]):
            return TwistReport(False, "G3", (x, y, z))
        p, q, w = t.Psi(x, y, z)
        if (mul[p][q], w) != t.F(mul[x][y], z):
            return TwistReport(False, "G4", (x, y, z))
    return ref_unit_laws(n, e, t)


def ref_unit_laws(n, e, t):
    """The L1/L2 loop that verify_brace_twist ran last until the braces
    docstring showed that T1-T3, G1, G2 and brd1 imply it."""
    for x in range(n):
        for y in range(n):
            fx, fy = t.F(x, y)
            if t.Phi(x, y, e) != (fx, fy, e) or t.Phi(x, e, y) != (fx, e, fy):
                return TwistReport(False, "L1", (x, y))
            if t.Psi(e, x, y) != (e, fx, fy) or t.Psi(x, e, y) != (fx, e, fy):
                return TwistReport(False, "L2", (x, y))
    return TwistReport(True)


def ref_check_braided_group(group, r):
    """check_braided_group with its brdOpr1/brdOpr2 loop over __call__."""
    n = group.n
    if r.n != n:
        raise SizeMismatch(f"universe sizes differ: {r.n} vs {n}")
    e, mul = group.e, group.mul
    for g in range(n):
        if r(e, g) != (g, e) or r(g, e) != (e, g):
            raise AxiomFails("brd1", g)
    if not r.is_bijective:
        raise NotBijective("r is not a bijection of G^2")
    sigma = [[r(x, y)[0] for y in range(n)] for x in range(n)]
    gamma = [[r(x, y)[1] for x in range(n)] for y in range(n)]
    for x, y, z in itertools.product(range(n), repeat=3):
        a = sigma[x][sigma[y][z]]
        b = mul[gamma[sigma[y][z]][x]][gamma[z][y]]
        if r(mul[x][y], z) != (a, b):
            raise AxiomFails("brdOpr1", (x, y, z))
        a = mul[sigma[x][y]][sigma[gamma[y][x]][z]]
        b = gamma[z][gamma[y][x]]
        if r(x, mul[y][z]) != (a, b):
            raise AxiomFails("brdOpr2", (x, y, z))
    for x in range(n):
        for y in range(n):
            if mul[sigma[x][y]][gamma[y][x]] != mul[x][y]:
                raise AxiomFails("brdcomm", (x, y))
    try:
        sol = ref_check_solution(n, r)
    except BraidFails as exc:
        raise AxiomFails("braid", exc.witness) from exc
    if not sol.nondegenerate:
        raise AxiomFails("non-degenerate", None)
    sigma_inv = [perm_inverse(tuple(row)) for row in sigma]
    star_table = [[mul[x][sigma_inv[x][y]] for y in range(n)] for x in range(n)]
    try:
        star = ref_from_table(star_table)
    except AxiomFails as exc:
        raise AxiomFails(f"star-{exc.axiom}", exc.witness) from exc
    if star.e != e:
        raise AxiomFails("star-identity", star.e)
    return BraidedGroup(group, r, sol, star)


def ref_phi_reconstruct(b, phi):
    """phi_reconstruct with its Z1-Z3 loops over __call__."""
    n, e, mul = b.n, b.group.e, b.group.mul
    if phi.n != n:
        raise SizeMismatch(f"universe sizes differ: {phi.n} vs {n}")
    if not phi.is_bijective:
        raise NotBijective("Phi is not a bijection of G^3")
    for x, y in itertools.product(range(n), repeat=2):
        if phi(x, y, e)[2] != e:
            raise ShapeMismatch(f"Phi({x},{y},e) has third component {phi(x, y, e)[2]} != e")
    fbar = table_of(PairMap, n, lambda x, y: phi(x, y, e)[:2])
    if not fbar.is_bijective:
        raise NotBijective("Phi-bar is not a bijection of G^2")
    for x in range(n):
        for y in range(n):
            if phi(e, x, y) != (e, x, y):
                raise AxiomFails("Z1", (e, x, y))
        if fbar(x, e) != (x, e):
            raise AxiomFails("Z1", (x, e))
    for x, y, z in itertools.product(range(n), repeat=3):
        p, q, w = phi(x, y, z)
        if (p, mul[q][w]) != fbar(x, mul[y][z]):
            raise AxiomFails("Z2", (x, y, z))
    fbar_inv = fbar.inverse()

    def psi_fn(x, y, z):  # Psi = F12^-1 F23 Phi, forced by T1
        p, q, w = phi(x, y, z)
        q2, w2 = fbar(q, w)
        return (*fbar_inv(p, q2), w2)

    psi = table_of(TripleMap, n, psi_fn)
    for x, y, z in itertools.product(range(n), repeat=3):
        p, q, w = psi(x, y, z)
        if (mul[p][q], w) != fbar(mul[x][y], z):
            raise AxiomFails("Z3", (x, y, z))
    r12 = lambda x, y, z: (*b.r(x, y), z)
    r23 = lambda x, y, z: (x, *b.r(y, z))
    if first_point(n, lambda *p: r12(*psi(*p)) != psi(*r12(*p))) is not None:
        raise AxiomFails("Z4", None)
    if first_point(n, lambda *p: phi(*r23(*p)) != r23(*phi(*p))) is not None:
        raise AxiomFails("T2", None)
    triple = TwistTriple(fbar, phi, psi)
    report = ref_verify_brace_twist(b, triple)
    if not report:
        raise AxiomFails(report.axiom, report.witness)
    return triple


def ref_check_matched_pair(gplus, gminus, act_left, act_right):
    """check_matched_pair with every product axiom checked at every point."""
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
    ep, em, pmul, mmul = gplus.e, gminus.e, gplus.mul, gminus.mul
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
    for g, h, b in itertools.product(range(np_), range(np_), range(nm)):
        if act_left[pmul[g][h]][b] != act_left[g][act_left[h][b]]:
            raise AxiomFails("left-action-mul", (g, h, b))
        if act_right[pmul[g][h]][b] != pmul[act_right[g][act_left[h][b]]][act_right[h][b]]:
            raise AxiomFails("right-compat", (g, h, b))
    for g, b, c in itertools.product(range(np_), range(nm), range(nm)):
        if act_right[g][mmul[b][c]] != act_right[act_right[g][b]][c]:
            raise AxiomFails("right-action-mul", (g, b, c))
        if act_left[g][mmul[b][c]] != mmul[act_left[g][b]][act_left[act_right[g][b]][c]]:
            raise AxiomFails("left-compat", (g, b, c))
    return MatchedPair(gplus, gminus, act_left, act_right)


# ------------------------------------------------------------------ helpers

def outcome(fn, *args):
    """The value, or the exception's type, text, axiom and witness."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return (type(exc), str(exc), getattr(exc, "axiom", None), getattr(exc, "witness", None))


def swapped(rng, table):
    """table with two entries of different value swapped."""
    table = list(table)
    while True:
        i, j = rng.sample(range(len(table)), 2)
        if table[i] != table[j]:
            table[i], table[j] = table[j], table[i]
            return tuple(table)


def rows(flat, n):
    return tuple(flat[k:k + n] for k in range(0, n * n, n))


def relabel(group, p):
    """The group transported along the bijection p."""
    n = group.n
    q = perm_inverse(p)
    return FiniteGroup.from_table([[p[group.mul[q[a]][q[b]]] for b in range(n)] for a in range(n)])


def opposite(group):
    return FiniteGroup.from_table([[group.mul[b][a] for b in range(group.n)] for a in range(group.n)])


BRACES = {
    "Z8": lambda: trivial_brace(cyclic(8)),
    "S3": lambda: trivial_brace(symmetric(3)),
    "z4-brace": z4_brace,
    "S4": lambda: trivial_brace(symmetric(4)),
}


def commuting_lyubashenko(rng, n):
    sigma = tuple(rng.sample(range(n), n))
    gamma = tuple(range(n))
    for _ in range(rng.randrange(1, n + 1)):
        gamma = tuple(sigma[v] for v in gamma)
    return lyubashenko_solution(n, sigma, gamma)


# -------------------------------------------------------------------- tests

def test_check_solution_matches_reference():
    rng = random.Random(41)
    for n in range(1, 9):
        for sol in (flip_solution(n), commuting_lyubashenko(rng, n)):
            tables = [sol.r.table] + [swapped(rng, sol.r.table) for _ in range(6 if n > 1 else 0)]
            for table in tables:
                r = PairMap(n, table)
                assert outcome(check_solution, n, r) == outcome(ref_check_solution, n, r)


@pytest.mark.parametrize("name", list(BRACES))
def test_braided_group_matches_reference(name):
    rng = random.Random(name)
    b = BRACES[name]()
    n = b.n
    assert ref_check_braided_group(b.group, b.r) == check_braided_group(b.group, b.r)
    for _ in range(4):
        r = PairMap(n, swapped(rng, b.r.table))
        assert outcome(check_braided_group, b.group, r) == outcome(ref_check_braided_group, b.group, r)
    for mul in (b.group.mul, b.star.mul):
        flat = tuple(v for row in mul for v in row)
        for _ in range(4):
            bad = rows(swapped(rng, flat), n)
            assert outcome(FiniteGroup.from_table, bad) == outcome(ref_from_table, bad)


@pytest.mark.parametrize("group", [symmetric(3), symmetric(4)], ids=["S3-op", "S4-op"])
def test_canonical_twist_matches_reference(group):
    rng = random.Random(group.n)
    b = braiding_from_brace(group, opposite(group))
    t = theta_canonical_twist(b)
    assert verify_brace_twist(b, t) == ref_verify_brace_twist(b, t) == TwistReport(True)
    for field in ("F", "Phi", "Psi"):
        table = getattr(t, field)
        bad = dataclasses.replace(t, **{field: type(table)(b.n, swapped(rng, table.table))})
        assert verify_brace_twist(b, bad) == ref_verify_brace_twist(b, bad)
        assert verify_twist(b.solution, bad) == ref_verify_twist(b.solution, bad)


def test_group_conditions_match_reference_on_a_foreign_multiplication():
    # T1-T3, G1 and G2 see only the solution and the identity, so with the
    # multiplication of another group with the same identity a valid twist
    # reaches G3/G4 and fails there.
    b = trivial_brace(symmetric(3))
    for t in list(enumerate_brace_twists(b, b))[:6]:
        for p in itertools.islice(itertools.permutations(range(1, 6)), 0, 120, 17):
            other = dataclasses.replace(b, group=relabel(cyclic(6), (0, *p)))
            assert verify_brace_twist(other, t) == ref_verify_brace_twist(other, t)


def test_foreign_braidings_match_reference():
    # Braidings of one brace checked on another group of the same order
    # reach the later axioms: brdcomm, the braid relation and the star group.
    groups = {4: [cyclic(4), klein(), relabel(cyclic(4), (0, 1, 3, 2))],
              6: [symmetric(3), cyclic(6), relabel(symmetric(3), (0, 1, 2, 4, 3, 5))]}
    braidings = {4: [PairMap.flip(4), trivial_brace(klein()).r, z4_brace().r],
                 6: [PairMap.flip(6), trivial_brace(symmetric(3)).r,
                     braiding_from_brace(symmetric(3), opposite(symmetric(3))).r,
                     trivial_brace(cyclic(6)).r]}
    seen = set()
    for n in (4, 6):
        for group, r in itertools.product(groups[n], braidings[n]):
            got = outcome(check_braided_group, group, r)
            assert got == outcome(ref_check_braided_group, group, r)
            seen.add(got[0] if got[0] == "ok" else got[2])
    assert {"ok", "brdcomm", "brdOpr1"} <= seen


def test_twists_on_a_foreign_solution_match_reference():
    # T1 reads only the twist, so a valid twist of one brace checked against
    # another solution on the same set passes T1 and fails at T2 or T3.
    # Precomposing Phi and Psi with r23 keeps T1 and T2 and breaks T3.
    s3 = trivial_brace(symmetric(3))
    s3op = braiding_from_brace(symmetric(3), opposite(symmetric(3)))
    kl = trivial_brace(klein())
    cases = [(s3op, theta_canonical_twist(s3)), (s3, theta_canonical_twist(s3op)),
             (z4_brace(), theta_canonical_twist(kl))]
    cases += [(b, t) for t in list(enumerate_brace_twists(kl, kl))[:8]
              for b in (z4_brace(), trivial_brace(cyclic(4)))]
    for b in (s3, s3op, z4_brace()):
        t = theta_canonical_twist(b)
        r23 = lambda m: table_of(TripleMap, b.n, lambda x, y, z: m(x, *b.r(y, z)))
        cases.append((b, TwistTriple(t.F, r23(t.Phi), r23(t.Psi))))
    seen = set()
    for b, t in cases:
        report = verify_twist(b.solution, t)
        assert report == ref_verify_twist(b.solution, t)
        assert verify_brace_twist(b, t) == ref_verify_brace_twist(b, t)
        seen.add(report.axiom)
    assert {"T2", "T3"} <= seen


def test_phi_reconstruct_matches_reference():
    # Valid Phi maps, the same maps against a foreign multiplication (Z2/Z3
    # failures) and swapped-entry corruptions.
    rng = random.Random(7)
    kl = trivial_brace(klein())
    cases = [(b, theta_canonical_twist(b).Phi) for b in (z4_brace(), trivial_brace(symmetric(3)))]
    cases += [(dataclasses.replace(kl, group=cyclic(4)), t.Phi) for t in list(enumerate_brace_twists(kl, kl))[:6]]
    cases += [(b, TripleMap(b.n, swapped(rng, phi.table))) for b, phi in cases[:2] for _ in range(6)]
    seen = set()
    for b, phi in cases:
        got = outcome(phi_reconstruct, b, phi)
        assert got == outcome(ref_phi_reconstruct, b, phi)
        seen.add(got[0] if got[0] == "ok" else got[2] or got[0].__name__)
    assert {"ok", "Z1", "Z2"} <= seen, seen


def test_g3_wins_a_tie_with_g4():
    b = trivial_brace(klein())
    twists = list(enumerate_brace_twists(b, b))
    other = dataclasses.replace(b, group=cyclic(4))
    # Both G3 and G4 first fail at (1, 1, 1) for twist 1; G4 fails first for twist 4.
    assert verify_brace_twist(other, twists[1]) == TwistReport(False, "G3", (1, 1, 1))
    assert verify_brace_twist(other, twists[4]) == TwistReport(False, "G4", (1, 1, 3))
    for t in (twists[1], twists[4]):
        assert verify_brace_twist(other, t) == ref_verify_brace_twist(other, t)
    mul = other.group.mul
    g3 = first_point(4, lambda x, y, z: (lambda p, q, w: (p, mul[q][w]))(*twists[1].Phi(x, y, z))
                     != twists[1].F(x, mul[y][z]))
    g4 = first_point(4, lambda x, y, z: (lambda p, q, w: (mul[p][q], w))(*twists[1].Psi(x, y, z))
                     != twists[1].F(mul[x][y], z))
    assert g3 == g4 == (1, 1, 1)


def test_brdopr1_wins_a_tie_with_brdopr2():
    # The z4-brace braiding on Z4 with 2 and 3 relabelled fails both
    # brdOpr1 and brdOpr2 first at (1, 1, 1).
    r = z4_brace().r
    group = relabel(cyclic(4), (0, 1, 3, 2))
    with pytest.raises(AxiomFails) as exc:
        check_braided_group(group, r)
    assert (exc.value.axiom, exc.value.witness) == ("brdOpr1", (1, 1, 1))
    assert outcome(check_braided_group, group, r) == outcome(ref_check_braided_group, group, r)
    # Conjugation on S3 against relabelled S3: brdOpr2 alone, then brdOpr1 first.
    s3 = trivial_brace(symmetric(3)).r
    for p, want in (((0, 1, 2, 4, 3, 5), ("brdOpr2", (1, 1, 2))),
                    ((0, 1, 2, 5, 4, 3), ("brdOpr1", (1, 1, 2)))):
        g = relabel(symmetric(3), p)
        got = outcome(check_braided_group, g, s3)
        assert got[2:] == want
        assert got == outcome(ref_check_braided_group, g, s3)


SMALL = {
    "Z4": lambda: trivial_brace(cyclic(4)),
    "Klein": lambda: trivial_brace(klein()),
    "S3": lambda: trivial_brace(symmetric(3)),
    "z4-brace": z4_brace,
}
SMALL_BRACES = {name: make() for name, make in SMALL.items()}
SMALL_TWISTS = {name: theta_canonical_twist(b) for name, b in SMALL_BRACES.items()}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    name=hs.sampled_from(sorted(SMALL)),
    target=hs.sampled_from(["r", "mul", "F", "Phi", "Psi"]),
    data=hs.data(),
)
def test_random_swaps_match_reference(name, target, data):
    b, t = SMALL_BRACES[name], SMALL_TWISTS[name]
    n = b.n
    if target in ("r", "mul"):
        flat = b.r.table if target == "r" else tuple(v for row in b.group.mul for v in row)
    else:
        flat = getattr(t, target).table
    i = data.draw(hs.integers(0, len(flat) - 1))
    j = data.draw(hs.integers(0, len(flat) - 1))
    table = list(flat)
    table[i], table[j] = table[j], table[i]
    table = tuple(table)
    if target == "r":
        r = PairMap(n, table)
        assert outcome(check_solution, n, r) == outcome(ref_check_solution, n, r)
        assert outcome(check_braided_group, b.group, r) == outcome(ref_check_braided_group, b.group, r)
    elif target == "mul":
        assert outcome(FiniteGroup.from_table, rows(table, n)) == outcome(ref_from_table, rows(table, n))
    else:
        bad = dataclasses.replace(t, **{target: type(getattr(t, target))(n, table)})
        assert verify_brace_twist(b, bad) == ref_verify_brace_twist(b, bad)


# An order-5 loop: a Latin square with identity 0 in which every element is
# its own two-sided inverse.  No group of order 5 has that, so it is not
# associative, and single swaps of group tables almost never give a loop.
LOOP5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


def test_non_associative_loop_matches_reference():
    assert all(sorted(row) == sorted(col) == list(range(5)) for row, col in zip(LOOP5, zip(*LOOP5)))
    witnesses = set()
    for p in itertools.permutations(range(5)):
        q = perm_inverse(p)
        mul = [[p[LOOP5[q[a]][q[b]]] for b in range(5)] for a in range(5)]
        got = outcome(FiniteGroup.from_table, mul)
        assert got == outcome(ref_from_table, mul)
        assert got[2] == "associativity"
        witnesses.add(got[3])
    assert len(witnesses) > 1
    # Z2 x LOOP5 with (z, l) labelled 2l + z: the first generator, 1 = (1, 0),
    # is central and associates with everything, so only a later generator
    # fails Light's test.
    mul = [[2 * LOOP5[a // 2][b // 2] + (a ^ b) % 2 for b in range(10)] for a in range(10)]
    got = outcome(FiniteGroup.from_table, mul)
    assert got[2] == "associativity"
    assert got == outcome(ref_from_table, mul)


# Automorphisms of the Klein group (xor on 0..3): ALPHA swaps 1 and 2, BETA
# cycles 1 -> 2 -> 3 -> 1.  Each table g -> HALF_HOMS[k][g] satisfies
# f(gh) = f(g) f(h) for h in the subgroup {0, k} only, so an axiom that asks
# for it holds at one generator of Klein, (1, 2), and fails at the other.
ALPHA, BETA = (0, 2, 1, 3), (0, 2, 3, 1)
HALF_HOMS = {
    1: ((0, 1, 2, 3), ALPHA, BETA, perm_compose(BETA, ALPHA)),
    2: ((0, 1, 2, 3), BETA, ALPHA, perm_compose(BETA, ALPHA)),
}


@pytest.mark.parametrize("k", sorted(HALF_HOMS))
def test_brdopr_failing_at_one_generator_matches_reference(k):
    # r(x, y) = (f_x(y), x) fails brdOpr1 only at y outside {0, k}, and
    # r(x, y) = (y, f_y^-1(x)) fails brdOpr2 only at z outside {0, k}.
    f, group = HALF_HOMS[k], klein()
    inv = [perm_inverse(m) for m in f]
    for r, axiom in ((table_of(PairMap, 4, lambda x, y: (f[x][y], x)), "brdOpr1"),
                     (table_of(PairMap, 4, lambda x, y: (y, inv[y][x])), "brdOpr2")):
        got = outcome(check_braided_group, group, r)
        assert got[2] == axiom
        assert got == outcome(ref_check_braided_group, group, r)


def test_brdopr_failing_in_one_component_matches_reference():
    # On Z4, with p swapping 1 and 2, which is no automorphism of Z4:
    # r(x, y) = (p^x(y), x) fails only sigma_x(yz) = sigma_x(y) . sigma_x(z)
    # (brdOpr2), and r(x, y) = (y, p^y(x)) only tau_z(xy) = tau_z(x) . tau_z(y)
    # (brdOpr1).
    powers = ((0, 1, 2, 3), (0, 2, 1, 3)) * 2
    for r, axiom in ((table_of(PairMap, 4, lambda x, y: (powers[x][y], x)), "brdOpr2"),
                     (table_of(PairMap, 4, lambda x, y: (y, powers[y][x])), "brdOpr1")):
        got = outcome(check_braided_group, cyclic(4), r)
        assert got[2] == axiom
        assert got == outcome(ref_check_braided_group, cyclic(4), r)


@pytest.mark.parametrize("k", sorted(HALF_HOMS))
def test_pair_axioms_failing_at_one_generator_match_reference(k):
    # Klein acting on Klein through f from the left (left-action-mul fails
    # only at h outside {0, k}), or through b -> f_b^-1 from the right
    # (right-action-mul fails only at c outside {0, k}); the other action
    # is trivial.
    f, group = HALF_HOMS[k], klein()
    trivial_left, trivial_right = [tuple(range(4))] * 4, [(g,) * 4 for g in range(4)]
    on_the_right = [tuple(perm_inverse(f[b])[g] for b in range(4)) for g in range(4)]
    for left, right, axiom in ((f, trivial_right, "left-action-mul"),
                               (trivial_left, on_the_right, "right-action-mul")):
        got = outcome(check_matched_pair, group, group, left, right)
        assert got[2] == axiom
        assert got == outcome(ref_check_matched_pair, group, group, left, right)


PAIRS = {name: pair_from_brace(SMALL_BRACES[name]) for name in ("S3", "Klein", "z4-brace")}


def pair_tables(name):
    p = PAIRS[name]
    return p.gplus, p.gminus, p.act_left, p.act_right


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(name=hs.sampled_from(sorted(PAIRS)), target=hs.sampled_from([2, 3]), data=hs.data())
def test_matched_pair_swaps_match_reference(name, target, data):
    args = list(pair_tables(name))
    flat = [v for row in args[target] for v in row]
    i = data.draw(hs.integers(0, len(flat) - 1))
    j = data.draw(hs.integers(0, len(flat) - 1))
    flat[i], flat[j] = flat[j], flat[i]
    args[target] = rows(flat, args[0].n)
    assert outcome(check_matched_pair, *args) == outcome(ref_check_matched_pair, *args)


def test_matched_pair_cases_match_reference():
    # Swapped entries of the S4 self-pair and of two pairs of groups of
    # different orders: Z2 acting on Z3 by inversion from the left (with the
    # trivial right action), and from the right.
    rng = random.Random(11)
    s4 = pair_from_brace(trivial_brace(symmetric(4)))
    z2, z3, negate = cyclic(2), cyclic(3), (0, 2, 1)
    cases = [(s4.gplus, s4.gminus, s4.act_left, s4.act_right),
             (z2, z3, [(0, 1, 2), negate], [(0, 0, 0), (1, 1, 1)]),
             (z3, z2, [(0, 1)] * 3, [(g, negate[g]) for g in range(3)])]
    for gplus, gminus, left, right in list(cases):
        for _ in range(12):
            which = rng.randrange(2)
            table = (left, right)[which]
            flat = swapped(rng, [v for row in table for v in row])
            bad = [flat[k:k + gminus.n] for k in range(0, len(flat), gminus.n)]
            cases.append((gplus, gminus, *((bad, right) if which == 0 else (left, bad))))
    # Actions that are not by automorphisms: Z2 swapping 1 and 2 in Z4 from
    # the left (left-compat) and from the right (right-compat), and Z3
    # acting on Z3 from the right through negation for both 1 and 2
    # (right-action-mul).
    swap12 = (0, 2, 1, 3)
    cases += [(z2, cyclic(4), [(0, 1, 2, 3), swap12], [(0,) * 4, (1,) * 4]),
              (cyclic(4), z2, [(0, 1)] * 4, [(g, swap12[g]) for g in range(4)]),
              (z3, z3, [(0, 1, 2)] * 3, [(g, negate[g], negate[g]) for g in range(3)])]
    seen = set()
    for args in cases:
        got = outcome(check_matched_pair, *args)
        assert got == outcome(ref_check_matched_pair, *args)
        seen.add(got[0] if got[0] == "ok" else got[2])
    assert {"ok", "left-action-mul", "right-compat", "right-action-mul", "left-compat"} <= seen, seen


def spied(monkeypatch, module, name):
    """Count the calls of module.name, which still runs."""
    calls = Counter()
    real = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_valid_structures_are_decided_without_a_scan(monkeypatch):
    # A valid S4 brace and its self-pair never reach the locating scans; a
    # corrupted copy of each runs its scan exactly once, and the witness is
    # the reference's.
    b = trivial_brace(symmetric(4))
    p = pair_from_brace(b)
    lifts = spied(monkeypatch, braces, "_mul_lifts")
    locate = spied(monkeypatch, matched, "_locate_pair_failure")
    assert check_braided_group(b.group, b.r) == b
    assert check_matched_pair(b.group, b.group, p.act_left, p.act_right) == p
    assert lifts["_mul_lifts"] == locate["_locate_pair_failure"] == 0

    n, t = b.n, list(b.r.table)
    t[1 * n + 2], t[1 * n + 3] = t[1 * n + 3], t[1 * n + 2]  # away from e's row and column
    r = PairMap(n, tuple(t))
    got = outcome(check_braided_group, b.group, r)
    assert got[2] in ("brdOpr1", "brdOpr2")
    assert got == outcome(ref_check_braided_group, b.group, r)
    assert lifts["_mul_lifts"] == 1

    right = [list(row) for row in p.act_right]
    x, y = next((x, y) for x in range(1, n) for y in range(x + 1, n) if right[1][x] != right[1][y])
    right[1][x], right[1][y] = right[1][y], right[1][x]  # away from the unit row and column
    got = outcome(check_matched_pair, b.group, b.group, p.act_left, right)
    assert got[0] is AxiomFails
    assert got == outcome(ref_check_matched_pair, b.group, b.group, p.act_left, right)
    assert locate["_locate_pair_failure"] == 1


# ------------------------------------------ checks decided by argument
#
# apply_twist, compose_twists, compose_brace_twists, invert_brace_twist and
# phi_reconstruct no longer re-verify what the checks they have run imply
# (proofs in the solutions and braces docstrings).  The references confirm
# each implication on a bounded corpus.

def ref_twisted_solution(s, t):
    """F r F^-1 built point by point and checked by the reference braid scan."""
    finv = t.F.inverse()
    return ref_check_solution(s.n, table_of(PairMap, s.n, lambda x, y: t.F(*s.r(*finv(x, y)))))


def kappas(s):
    """Every kappa that commutes with both permutations of a Lyubashenko s."""
    sigma, gamma = lyubashenko_shape(s)
    return [k for k in itertools.permutations(range(s.n))
            if perm_compose(k, sigma) == perm_compose(sigma, k)
            and perm_compose(k, gamma) == perm_compose(gamma, k)]


def test_twisted_solutions_pass_the_reference_braid_scan():
    rng = random.Random(5)
    flip2 = flip_solution(2)
    cases = [(flip2, t) for t in brute_force_twists(flip2)]
    for s in [commuting_lyubashenko(rng, n) for n in range(1, 6)] + [s4_solution()]:
        cases += [(s, kappa_twist(s, k)) for k in kappas(s)] + [(s, doikou_twist(s))]
    cases += [(b.solution, theta_canonical_twist(b)) for b in SMALL_BRACES.values()]
    for s, t in cases:
        assert apply_twist(s, t) == ref_twisted_solution(s, t)
    assert len(cases) > 50


def compose_corpus():
    """(base, outer, inner) for composable twists in a bounded corpus: each
    brute-force twist of flip_2 (on the trivial Z2 brace, whose braiding is
    the flip) followed by each brute-force twist of the solution it gives,
    the Klein endo-twists, and chains z4-brace -> Z4 -> Z4."""
    z2, kl = trivial_brace(cyclic(2)), trivial_brace(klein())
    z4b, z4 = z4_brace(), trivial_brace(cyclic(4))
    outers = {}
    cases = []
    for inner in brute_force_twists(z2.solution):
        mid = apply_twist(z2.solution, inner)
        if mid.r not in outers:
            outers[mid.r] = list(brute_force_twists(mid))
        cases += [(z2, outer, inner) for outer in outers[mid.r]]
    klein_twists = list(enumerate_brace_twists(kl, kl))[::4]
    cases += [(kl, outer, inner) for outer in klein_twists for inner in klein_twists]
    cases += [(z4b, outer, inner) for outer in enumerate_brace_twists(z4, z4)
              for inner in enumerate_brace_twists(z4b, z4)]
    return cases


def test_composites_pass_the_reference_twist_axioms():
    ok = 0
    for b, outer, inner in compose_corpus():
        composite = compose_twists(outer, inner, b.solution)
        assert ref_verify_twist(b.solution, composite) == TwistReport(True)
        try:
            brace_composite = compose_brace_twists(outer, inner, b)
        except InvalidTwist as exc:
            # Only G1-G4 of the composite are checked, and only they fail.
            assert str(exc).startswith("composite: G")
            assert ref_verify_brace_twist(b, composite).axiom.startswith("G")
        else:
            assert brace_composite == composite
            assert ref_verify_brace_twist(b, composite) == TwistReport(True)
            ok += 1
    assert ok > 100


def test_inverses_pass_the_reference_on_the_twisted_brace():
    cases = [(b, t) for b in SMALL_BRACES.values()
             for t in itertools.islice(enumerate_brace_twists(b, b), 16)]
    cases += [(z4_brace(), t) for t in enumerate_brace_twists(z4_brace(), trivial_brace(cyclic(4)))]
    s3op = braiding_from_brace(symmetric(3), opposite(symmetric(3)))
    cases += [(b, theta_canonical_twist(b)) for b in (s3op, trivial_brace(symmetric(4)))]
    for b, t in cases:
        flat, r = _twisted_tables(b, t)
        twisted = ref_check_braided_group(ref_from_table(rows(flat, b.n)), r)
        assert ref_verify_brace_twist(twisted, invert_brace_twist(t, b)) == TwistReport(True)
        assert apply_brace_twist(b, t) == twisted


def forced_psi(F, phi, n):
    """The Psi that T1 forces: F12^-1 F23 Phi."""
    return perm_chain(perm_inverse(lift_12_table(F, n)), lift_23_table(F, n), phi)


SMALL_ENDO_TWISTS = {
    name: list(itertools.islice(enumerate_brace_twists(b, b), 8)) + [SMALL_TWISTS[name]]
    for name, b in SMALL_BRACES.items()
}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(name=hs.sampled_from(sorted(SMALL)), target=hs.sampled_from(["F", "Phi"]), data=hs.data())
def test_unit_laws_follow_from_t1_t3_g1_g2(name, target, data):
    # Swap two entries of F or Phi, one of them at a point L1 reads, and
    # force Psi by T1: a triple that then passes T1-T3, G1 and G2 (the
    # reference reports nothing or G3/G4) passes the reference L1/L2 loop.
    b = SMALL_BRACES[name]
    t = data.draw(hs.sampled_from(SMALL_ENDO_TWISTS[name]))
    n, e = b.n, b.group.e
    F, phi = list(t.F.table), list(t.Phi.table)
    table = F if target == "F" else phi
    x, y = data.draw(hs.integers(0, n - 1)), data.draw(hs.integers(0, n - 1))
    i = x * n + y if target == "F" else data.draw(hs.sampled_from([(x * n + y) * n + e, (x * n + e) * n + y]))
    j = data.draw(hs.integers(0, len(table) - 1))
    table[i], table[j] = table[j], table[i]
    F, phi = tuple(F), tuple(phi)
    bad = TwistTriple(PairMap(n, F), TripleMap(n, phi), TripleMap(n, forced_psi(F, phi, n)))
    report = ref_verify_brace_twist(b, bad)
    if report or report.axiom in ("G3", "G4"):
        assert ref_unit_laws(n, e, bad) == TwistReport(True)


def test_invert_brace_twist_checks_the_twist_once(monkeypatch):
    b = trivial_brace(symmetric(3))
    twists = list(itertools.islice(enumerate_brace_twists(b, b), 3))
    reports = spied(monkeypatch, braces, "_brace_twist_report")
    structures = spied(monkeypatch, braces, "check_braided_group")
    for t in twists:
        invert_brace_twist(t, b)
    assert reports["_brace_twist_report"] == len(twists)
    assert structures["check_braided_group"] == 0


def test_twisted_solutions_skip_the_braid_scan(monkeypatch):
    s, b = s4_solution(), z4_brace()
    t, u = doikou_twist(s), theta_canonical_twist(b)
    want, back = ref_twisted_solution(s, t), invert_twist(t, s)
    scans = spied(monkeypatch, solutions, "_braid_failure")
    assert apply_twist(s, t) == want
    assert compose_twists(back, t, s) == TwistTriple.identity(s.n)
    assert compose_brace_twists(invert_brace_twist(u, b), u, b) == TwistTriple.identity(b.n)
    assert scans["_braid_failure"] == 0


def test_phi_reconstruct_does_not_reverify(monkeypatch):
    cases = [(b, theta_canonical_twist(b)) for b in (z4_brace(), trivial_brace(symmetric(3)))]
    twist_checks = spied(monkeypatch, braces, "verify_twist")
    for b, t in cases:
        assert phi_reconstruct(b, t.Phi) == t
    assert twist_checks["verify_twist"] == 0


def test_check_braided_group_assembles_the_star_group(monkeypatch):
    cases = [(b.group, b.r) for b in (z4_brace(), trivial_brace(symmetric(4)))]
    tables = spied(monkeypatch, FiniteGroup, "from_table")
    for group, r in cases:
        check_braided_group(group, r)
    assert tables["from_table"] == 0


def test_apply_brace_twist_assembles_the_twisted_brace(monkeypatch):
    b = trivial_brace(symmetric(3))
    twists = list(itertools.islice(enumerate_brace_twists(b, b), 3)) + [theta_canonical_twist(b)]
    tables = spied(monkeypatch, FiniteGroup, "from_table")
    structures = spied(monkeypatch, braces, "check_braided_group")
    for t in twists:
        apply_brace_twist(b, t)
    assert tables["from_table"] == structures["check_braided_group"] == 0


def test_pair_from_brace_is_not_rechecked(monkeypatch):
    pair_checks = spied(monkeypatch, matched, "check_matched_pair")
    for b in (z4_brace(), trivial_brace(symmetric(3))):
        pair_from_brace(b)
    assert pair_checks["check_matched_pair"] == 0


def test_enumerated_thetas_are_not_rechecked(monkeypatch):
    p = pair_from_brace(z4_brace())
    theta_checks = spied(monkeypatch, matched, "check_theta")
    assert len(list(enumerate_thetas(p))) == 192
    assert theta_checks["check_theta"] == 0
