"""Matched pairs of groups, Theta-maps, and the twists they induce."""

import itertools
import random

import pytest

from skewtwist import matched
from skewtwist.braces import braiding_from_brace, theta_canonical_twist, trivial_brace
from skewtwist.errors import AxiomFails, InvalidTheta, TooLarge
from skewtwist.generators import z4_brace
from skewtwist.groups import FiniteGroup, cyclic, klein, symmetric
from skewtwist.matched import (
    DEFAULT_THETA_BUDGET,
    MatchedPair,
    ThetaMap,
    check_matched_pair,
    check_theta,
    enumerate_thetas,
    f_theta,
    pair_from_brace,
    triple_from_theta,
)
from skewtwist.solutions import TwistTriple
from skewtwist.tables import PairMap

from test_reference_checks import opposite, ref_check_matched_pair


def test_pair_from_brace_is_valid():
    s3op = braiding_from_brace(symmetric(3), opposite(symmetric(3)))
    for b in (
        z4_brace(), trivial_brace(symmetric(3)), trivial_brace(klein()),
        trivial_brace(symmetric(4)), s3op,
    ):
        p = pair_from_brace(b)
        assert p.gplus.mul == b.group.mul
        assert p.gminus.mul == b.group.mul
        # The pair is assembled unchecked; the pointwise reference accepts it.
        assert ref_check_matched_pair(p.gplus, p.gminus, p.act_left, p.act_right) == p


def test_enumerated_thetas_pass_check_theta():
    # enumerate_thetas does not re-check what its search has decided.
    for b in (trivial_brace(cyclic(3)), trivial_brace(cyclic(4)), z4_brace(), trivial_brace(klein())):
        p = pair_from_brace(b)
        assert all(check_theta(p, theta) for theta in enumerate_thetas(p))


def test_check_matched_pair_rejects_broken_actions():
    b = trivial_brace(cyclic(3))
    p = pair_from_brace(b)
    # corrupt the left action unit row
    rows = [list(r) for r in p.act_left]
    rows[0] = [1, 0, 2]
    with pytest.raises(AxiomFails) as exc:
        check_matched_pair(p.gplus, p.gminus, rows, p.act_right)
    assert exc.value.axiom == "left-action-unit"
    # corrupt compatibility away from the unit rows
    rows = [list(r) for r in p.act_left]
    if p.gplus.n > 2:
        rows[1] = [rows[1][0], rows[1][2], rows[1][1]]
        with pytest.raises(AxiomFails):
            check_matched_pair(p.gplus, p.gminus, rows, p.act_right)


def test_canonical_theta_matches_canonical_twist():
    for b in (z4_brace(), trivial_brace(symmetric(3)), trivial_brace(cyclic(4))):
        p = pair_from_brace(b)
        theta = ThetaMap.canonical(p)
        assert check_theta(p, theta)
        triple = triple_from_theta(p, theta, b)
        assert triple == theta_canonical_twist(b)


def test_constant_identity_theta_is_identity_twist():
    for b in (z4_brace(), trivial_brace(symmetric(3))):
        p = pair_from_brace(b)
        theta = ThetaMap.constant_identity(p)
        assert check_theta(p, theta)
        assert triple_from_theta(p, theta, b) == TwistTriple.identity(b.n)


def test_check_theta_unit_violation():
    b = trivial_brace(cyclic(3))
    p = pair_from_brace(b)
    # Theta(e, a) second component must be e
    t1 = [0] * 9
    t2 = [1] * 9
    report = check_theta(p, ThetaMap(3, 3, tuple(t1), tuple(t2)))
    assert not report
    assert report.axiom == "theta-unit"


def test_theta_first_projection_fails_on_nonabelian_pair():
    # Theta(x, y) = (x, e) violates the unit condition Theta_1(a, e) = e
    b = trivial_brace(symmetric(3))
    p = pair_from_brace(b)
    t1 = tuple(a for a in range(6) for _ in range(6))
    t2 = (0,) * 36
    report = check_theta(p, ThetaMap(6, 6, t1, t2))
    assert not report
    assert report.axiom is not None


def test_theta_stream_membership_z2():
    p = pair_from_brace(trivial_brace(cyclic(2)))
    got = {(t.theta1, t.theta2) for t in enumerate_thetas(p)}
    constant = ThetaMap.constant_identity(p)
    canonical = ThetaMap.canonical(p)
    assert (constant.theta1, constant.theta2) in got
    assert (canonical.theta1, canonical.theta2) in got


def test_triple_from_theta_rejects_invalid():
    b = trivial_brace(cyclic(3))
    p = pair_from_brace(b)
    bad = ThetaMap(3, 3, (0,) * 9, (1, 0, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(InvalidTheta):
        triple_from_theta(p, bad, b)


def oracle_enumerate_thetas(p):
    """Independent oracle: filter every possible Theta table via check_theta.

    Only feasible for |G-| = |G+| = 2 (4^4 = 256 candidates).
    """
    nm, np_ = p.gminus.n, p.gplus.n
    cells = nm * nm
    out = []
    for t1 in itertools.product(range(np_), repeat=cells):
        for t2 in itertools.product(range(np_), repeat=cells):
            theta = ThetaMap(nm, np_, t1, t2)
            if check_theta(p, theta):
                out.append((t1, t2))
    return sorted(out)


def test_enumerate_thetas_matches_oracle_z2():
    p = pair_from_brace(trivial_brace(cyclic(2)))
    got = sorted((t.theta1, t.theta2) for t in enumerate_thetas(p))
    assert got == oracle_enumerate_thetas(p)
    assert len(got) == 4  # derived from the oracle above


def test_enumerate_thetas_z4_all_f_identity():
    p = pair_from_brace(trivial_brace(cyclic(4)))
    thetas = list(enumerate_thetas(p))
    assert len(thetas) == 256  # derived: confirmed by the full validity re-check
    ident = PairMap.identity(4)
    for theta in thetas:
        assert check_theta(p, theta)
        assert f_theta(p, theta) == ident


def test_enumerate_thetas_budget():
    p = pair_from_brace(trivial_brace(cyclic(4)))
    with pytest.raises(TooLarge):
        list(enumerate_thetas(p, budget=10))


def test_theta_budget_bounds_the_watch_lists(monkeypatch):
    # The watch lists cost about |G-|^3 |G+| entries; a budget below that is
    # refused before they are built (24^4 = 331776 for the S4 self-pair).
    built = []
    watches = matched._cocycle_watches

    def spy(p):
        built.append(p)
        return watches(p)

    monkeypatch.setattr(matched, "_cocycle_watches", spy)
    s4 = pair_from_brace(trivial_brace(symmetric(4)))
    with pytest.raises(TooLarge, match="^theta enumeration exceeded budget of 331775$"):
        next(enumerate_thetas(s4, budget=24 ** 4 - 1))
    z3 = pair_from_brace(trivial_brace(cyclic(3)))
    with pytest.raises(TooLarge, match="^theta enumeration exceeded budget of 80$"):
        next(enumerate_thetas(z3, budget=3 ** 4 - 1))
    assert built == []
    stream_and_end(enumerate_thetas(z3, budget=3 ** 4))
    assert built == [z3]


@pytest.mark.parametrize("group", [symmetric(3), cyclic(4)], ids=["S3", "Z4"])
def test_cocycle_watches_share_the_per_g_tuples(group):
    # An instance (a, b, c) holds its (A, B) and (C, D) tuples, which depend
    # only on (a, b) and (b, c), and its g <| a and g <| b tuples, which
    # depend only on a and b: at most |G-|^2 and |G-| distinct objects.
    p = pair_from_brace(trivial_brace(group))
    nm = p.gminus.n
    direct, via1, via2 = matched._cocycle_watches(p)
    instances = [inst for bucket in direct for inst in bucket]
    assert len(instances) == nm ** 3
    watched = {id(inst) for bucket in via1 + via2 for _, _, inst in bucket}
    assert watched <= {id(inst) for inst in instances}
    assert len({id(t) for inst in instances for t in (inst[2], inst[4])}) <= nm * nm
    assert len({id(t) for inst in instances for t in (inst[3], inst[5])}) <= nm


def test_theta_stream_is_deterministic():
    p = pair_from_brace(trivial_brace(cyclic(2)))
    first = [(t.theta1, t.theta2) for t in enumerate_thetas(p)]
    second = [(t.theta1, t.theta2) for t in enumerate_thetas(p)]
    assert first == second


def reference_enumerate_thetas(p, budget):
    """The Theta search re-checking all |G-|^3 cocycle instances after every
    assignment, kept as a reference for the watched re-check in
    enumerate_thetas: same entry order, candidate order, pruning and budget
    accounting."""
    nm, np_ = p.gminus.n, p.gplus.n
    mm, mp = p.gminus, p.gplus
    actL, actR = p.act_left, p.act_right
    em, ep = mm.e, mp.e
    theta1 = [-1] * (nm * nm)
    theta2 = [-1] * (nm * nm)
    f_used = set()
    attempts = 0

    def lookup(a, b):
        i = a * nm + b
        if theta1[i] < 0:
            return None
        return theta1[i], theta2[i]

    def partial_ok():
        for a, b, c in itertools.product(range(nm), repeat=3):
            th_ab_c = lookup(mm.op(a, b), c)
            th_a_bc = lookup(a, mm.op(b, c))
            if th_ab_c is None or th_a_bc is None:
                continue
            g1, g2 = th_ab_c[0], th_a_bc[1]
            A = actL[g1][a]
            B = actL[actR[g1][a]][b]
            C = actL[g2][b]
            D = actL[actR[g2][b]][c]
            th_AB = lookup(A, B)
            th_CD = lookup(C, D)
            if th_AB is not None:
                if mp.op(th_AB[0], g1) != th_a_bc[0]:
                    return False
                if th_CD is not None and mp.op(th_AB[1], actR[g1][a]) != mp.op(
                    th_CD[0], g2
                ):
                    return False
            if th_CD is not None and th_ab_c[1] != mp.op(th_CD[1], actR[g2][b]):
                return False
        return True

    def extend(i):
        nonlocal attempts
        if i == nm * nm:
            yield ThetaMap(nm, np_, tuple(theta1), tuple(theta2))
            return
        a, b = divmod(i, nm)
        us = [ep] if b == em else range(np_)
        vs = [ep] if a == em else range(np_)
        for u, v in itertools.product(us, vs):
            attempts += 1
            if attempts > budget:
                raise TooLarge(f"theta enumeration exceeded budget of {budget}")
            fval = (actL[u][a], actL[v][b])
            if fval in f_used:
                continue
            theta1[i], theta2[i] = u, v
            f_used.add(fval)
            if partial_ok():
                yield from extend(i + 1)
            theta1[i] = theta2[i] = -1
            f_used.discard(fval)

    for theta in extend(0):
        if check_theta(p, theta):
            yield theta


def relabel_self_pair(p, perm):
    """The self-pair p with every element x renamed perm[x]."""
    n = p.gminus.n
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x

    def moved(table):
        return [[perm[table[inv[g]][inv[x]]] for x in range(n)] for g in range(n)]

    group = FiniteGroup.from_table(moved(p.gminus.mul))
    return check_matched_pair(group, group, moved(p.act_left), moved(p.act_right))


def stream_and_end(thetas):
    """The (theta1, theta2) stream and the TooLarge message ending it, if any."""
    items = []
    try:
        for t in thetas:
            items.append((t.theta1, t.theta2))
    except TooLarge as exc:
        return items, str(exc)
    return items, None


SELF_PAIRS = {
    "Z3": lambda: pair_from_brace(trivial_brace(cyclic(3))),
    "Z4": lambda: pair_from_brace(trivial_brace(cyclic(4))),
    "z4-brace": lambda: pair_from_brace(z4_brace()),
}


@pytest.mark.parametrize(
    "name, perm, budget",
    [("Z3", perm, DEFAULT_THETA_BUDGET) for perm in itertools.permutations(range(3))]
    + [
        ("Z4", (0, 1, 2, 3), DEFAULT_THETA_BUDGET),
        ("Z4", (3, 2, 1, 0), 20_000),
        ("z4-brace", (0, 1, 2, 3), DEFAULT_THETA_BUDGET),
        ("z4-brace", (1, 3, 0, 2), 20_000),
    ],
)
def test_watched_search_matches_full_rescan(name, perm, budget):
    p = relabel_self_pair(SELF_PAIRS[name](), perm)
    got = stream_and_end(enumerate_thetas(p, budget=budget))
    assert got == stream_and_end(reference_enumerate_thetas(p, budget))
    assert got[0]  # the comparison covers a non-empty stream


@pytest.mark.parametrize("name, attempts, count", [("Z4", 39253, 256), ("z4-brace", 33493, 192)])
def test_theta_search_attempt_count_unchanged(name, attempts, count):
    # `attempts` is the number of candidate assignments the full-rescan
    # search tries on this pair; the pruning decides it.
    p = SELF_PAIRS[name]()
    assert len(list(enumerate_thetas(p, budget=attempts))) == count
    with pytest.raises(TooLarge, match=f"budget of {attempts - 1}$"):
        list(enumerate_thetas(p, budget=attempts - 1))


def reference_theta_failure(p, theta):
    """check_theta's (axiom, witness), evaluated through ThetaMap.__call__ and
    FiniteGroup.op."""
    mm, mp = p.gminus, p.gplus
    actL, actR = p.act_left, p.act_right
    em, ep = mm.e, mp.e
    for a in range(mm.n):
        if theta(em, a)[1] != ep:
            return "theta-unit", (em, a)
        if theta(a, em)[0] != ep:
            return "theta-unit", (a, em)
    for a, b, c in itertools.product(range(mm.n), repeat=3):
        g1 = theta(mm.op(a, b), c)[0]
        g2 = theta(a, mm.op(b, c))[1]
        A = actL[g1][a]
        B = actL[actR[g1][a]][b]
        C = actL[g2][b]
        D = actL[actR[g2][b]][c]
        if mp.op(theta(A, B)[0], g1) != theta(a, mm.op(b, c))[0]:
            return "theta-1", (a, b, c)
        if mp.op(theta(A, B)[1], actR[g1][a]) != mp.op(theta(C, D)[0], g2):
            return "theta-2", (a, b, c)
        if theta(mm.op(a, b), c)[1] != mp.op(theta(C, D)[1], actR[g2][b]):
            return "theta-3", (a, b, c)
    if not f_theta(p, theta).is_bijective:
        return "f-theta-bijective", None
    return None, None


def test_check_theta_witnesses_on_swapped_entries():
    seen = set()
    for brace in (
        trivial_brace(cyclic(3)),
        trivial_brace(cyclic(4)),
        trivial_brace(klein()),
        z4_brace(),
    ):
        p = pair_from_brace(brace)
        canonical = ThetaMap.canonical(p)
        values = list(canonical.theta1 + canonical.theta2)
        cells = len(canonical.theta1)
        for i, j in itertools.combinations(range(len(values)), 2):
            if values[i] == values[j]:
                continue
            swapped = values[:]
            swapped[i], swapped[j] = swapped[j], swapped[i]
            theta = ThetaMap(
                canonical.nminus, canonical.nplus,
                tuple(swapped[:cells]), tuple(swapped[cells:]),
            )
            report = check_theta(p, theta)
            want = reference_theta_failure(p, theta)
            assert (report.axiom, report.witness) == want, (i, j)
            seen.add(want[0])
    assert {"theta-unit", "theta-1", "theta-2", "theta-3"} <= seen


def test_check_theta_witnesses_on_random_tables():
    # Random tables meeting the unit conditions reach the cocycle checks with
    # non-identity values; S3 is non-abelian, so operand order matters, and
    # Z2 acting on Z3 by inversion has |G+| != |G-|.
    rng = random.Random(5)
    seen = set()
    inversion = check_matched_pair(cyclic(2), cyclic(3), [(0, 1, 2), (0, 2, 1)], [(0,) * 3, (1,) * 3])
    for p in (pair_from_brace(trivial_brace(symmetric(3))), pair_from_brace(z4_brace()), inversion):
        nm, em, ep = p.gminus.n, p.gminus.e, p.gplus.e
        for _ in range(200):
            t1 = [rng.randrange(p.gplus.n) for _ in range(nm * nm)]
            t2 = [rng.randrange(p.gplus.n) for _ in range(nm * nm)]
            for a in range(nm):
                t1[a * nm + em] = t2[em * nm + a] = ep
            theta = ThetaMap(nm, p.gplus.n, tuple(t1), tuple(t2))
            report = check_theta(p, theta)
            want = reference_theta_failure(p, theta)
            assert (report.axiom, report.witness) == want
            seen.add(want[0])
    assert "theta-1" in seen


def test_enumerate_thetas_z5_count():
    p = pair_from_brace(trivial_brace(cyclic(5)))
    thetas = list(enumerate_thetas(p))
    assert len(thetas) == 3125  # derived: confirmed by the full validity re-check
    assert all(check_theta(p, theta) for theta in thetas)
