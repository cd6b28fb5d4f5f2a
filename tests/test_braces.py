"""Braiding operators on groups (skew braces): validation, construction
from the two operations, and brace twists."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from skewtwist import braces, solutions
from skewtwist.braces import (
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
from skewtwist.errors import AxiomFails, InvalidTwist, NotABrace, ShapeMismatch
from skewtwist.generators import z4_brace
from skewtwist.groups import FiniteGroup, cyclic, direct_product, klein, symmetric, z4_radical_group
from skewtwist.solutions import TwistTriple, _braid_failure
from skewtwist.tables import PairMap, TripleMap, perm_is_bijective

from pointwise import table_of


def oracle_braiding_axioms(group, r):
    """Independent pointwise check of the four braiding-operator axioms."""
    n, e, mul = group.n, group.e, group.mul
    for g in range(n):
        if r(e, g) != (g, e) or r(g, e) != (e, g):
            return False
    sig = lambda x, y: r(x, y)[0]
    gam = lambda y, x: r(x, y)[1]
    for x, y, z in itertools.product(range(n), repeat=3):
        if r(mul[x][y], z) != (
            sig(x, sig(y, z)),
            mul[gam(sig(y, z), x)][gam(z, y)],
        ):
            return False
        if r(x, mul[y][z]) != (
            mul[sig(x, y)][sig(gam(y, x), z)],
            gam(z, gam(y, x)),
        ):
            return False
    for x in range(n):
        for y in range(n):
            if mul[sig(x, y)][gam(y, x)] != mul[x][y]:
                return False
    return True


def test_trivial_brace_abelian_is_flip():
    for g in (cyclic(2), cyclic(3), cyclic(4), klein()):
        b = trivial_brace(g)
        assert b.r == PairMap.flip(g.n)
        assert b.is_trivial()
        assert oracle_braiding_axioms(g, b.r)


def test_trivial_brace_nonabelian_is_conjugation():
    g = symmetric(3)
    b = trivial_brace(g)
    for x in range(6):
        for y in range(6):
            assert b.r(x, y) == (y, g.op(g.op(g.inv[y], x), y))
    assert b.is_trivial()
    assert oracle_braiding_axioms(g, b.r)
    assert not b.solution.involutive  # conjugation braiding of a nonabelian group


def test_z4_brace_structure():
    b = z4_brace()
    assert b.group.mul == z4_radical_group().mul
    assert b.star.mul == cyclic(4).mul
    assert not b.is_trivial()
    assert oracle_braiding_axioms(b.group, b.r)
    # sigma_x(y) = (x o y) - x = y + 2xy mod 4
    for x in range(4):
        for y in range(4):
            assert b.sigma[x][y] == (y + 2 * x * y) % 4


def test_check_braided_group_rejects_flip_on_nonabelian():
    g = symmetric(3)
    with pytest.raises(AxiomFails):
        check_braided_group(g, PairMap.flip(6))


def test_check_braided_group_rejects_unit_violations():
    g = cyclic(2)
    r = table_of(PairMap, 2, lambda x, y: (1 - y, 1 - x))
    with pytest.raises(AxiomFails) as exc:
        check_braided_group(g, r)
    assert exc.value.axiom == "brd1"


def test_braiding_from_brace_roundtrip():
    for b in (z4_brace(), trivial_brace(symmetric(3)), trivial_brace(klein())):
        again = braiding_from_brace(b.group, b.star)
        assert again.r == b.r
        assert again.star.mul == b.star.mul


def test_braiding_from_brace_rejects_mismatched_pair():
    with pytest.raises(NotABrace):
        braiding_from_brace(cyclic(2), cyclic(3))
    # a genuinely incompatible pair of same-order groups: S3 multiplicative
    # with Z6 additive fails the compatibility axioms
    with pytest.raises(NotABrace):
        braiding_from_brace(symmetric(3), cyclic(6))


def test_z4_plus_with_klein_star_is_a_brace():
    # (Z4, +) with xor as the additive operation is a valid skew brace
    # (additive group Klein, multiplicative group Z4); confirmed by the
    # independent axiom oracle.
    b = braiding_from_brace(cyclic(4), klein())
    assert oracle_braiding_axioms(cyclic(4), b.r)
    assert b.star.mul == klein().mul


def test_canonical_twist_trivializes():
    for b in (z4_brace(), trivial_brace(symmetric(3)), trivial_brace(cyclic(4))):
        t = theta_canonical_twist(b)
        assert verify_brace_twist(b, t)
        out = apply_brace_twist(b, t)
        assert out.group.mul == b.star.mul
        assert out.is_trivial()
    # on the Z4 brace the twisted braiding is the flip of (Z4, +)
    out = apply_brace_twist(z4_brace(), theta_canonical_twist(z4_brace()))
    assert out.r == PairMap.flip(4)


def test_verify_brace_twist_catches_group_conditions():
    # a valid solution twist that breaks the group conditions: on the flip
    # braiding any F(x,y) = (x, kappa(y)) with kappa(e) != e passes T1-T3
    # but moves pairs containing the identity
    b = trivial_brace(klein())
    from skewtwist.solutions import kappa_twist, verify_twist

    t = kappa_twist(b.solution, (1, 0, 3, 2))
    assert verify_twist(b.solution, t)  # fine as a solution twist
    report = verify_brace_twist(b, t)
    assert not report
    assert report.axiom in ("G1", "G2")


def test_apply_brace_twist_rejects_invalid():
    b = trivial_brace(cyclic(3))
    bad = TwistTriple(
        PairMap.flip(3), TripleMap.identity(3), TripleMap.identity(3)
    )
    with pytest.raises(InvalidTwist):
        apply_brace_twist(b, bad)


def test_compose_invert_brace_twists():
    b = z4_brace()
    t = theta_canonical_twist(b)
    inv = invert_brace_twist(t, b)
    ident = TwistTriple.identity(4)
    assert compose_brace_twists(inv, t, b) == ident
    trivial = apply_brace_twist(b, t)
    assert compose_brace_twists(t, inv, trivial) == ident
    # round trip recovers the original brace
    assert apply_brace_twist(trivial, inv).group.mul == b.group.mul
    assert apply_brace_twist(trivial, inv).r == b.r


def test_phi_reconstruct_roundtrip():
    for b in (z4_brace(), trivial_brace(symmetric(3))):
        t = theta_canonical_twist(b)
        rebuilt = phi_reconstruct(b, t.Phi)
        assert rebuilt == t


def test_phi_reconstruct_rejects_bad_phi():
    b = trivial_brace(cyclic(2))
    # a bijective Phi whose (x, y, e) slice has nonzero third component
    rot = table_of(TripleMap, 2, lambda x, y, z: (x, y, 1 - z))
    with pytest.raises(ShapeMismatch):
        phi_reconstruct(b, rot)


def test_star_identity_matches_dot_identity():
    for b in (z4_brace(), trivial_brace(symmetric(3))):
        assert b.star.e == b.group.e


def test_from_table_star_is_group():
    # The star table of a braiding operator is always a group (braces module
    # docstring), so check_braided_group assembles it; from_table accepts the
    # flip's star table on Z3, which is Z3 itself.
    g = cyclic(3)
    flip = PairMap.flip(3)
    b = check_braided_group(g, flip)
    assert FiniteGroup.from_table(b.star.mul).mul == g.mul


def braid_implied(group, r):
    """Whether r is a bijective braiding operator on group; if it is, assert
    what check_braided_group takes from that without a scan: the braid
    relation holds and every sigma_x and tau_y is a bijection."""
    if not (r.is_bijective and oracle_braiding_axioms(group, r)):
        return False
    n = group.n
    assert _braid_failure(r.table, n) is None
    for x in range(n):
        assert perm_is_bijective(tuple(r(x, y)[0] for y in range(n)))
        assert perm_is_bijective(tuple(r(y, x)[1] for y in range(n)))
    return True


def test_braid_relation_follows_on_every_z3_braiding():
    # brd1 fixes r on the codes of (e, g) and (g, e); the bijections that
    # respect it permute the other four codes among themselves.
    g = cyclic(3)
    free = [x * 3 + y for x in (1, 2) for y in (1, 2)]
    passed = 0
    for images in itertools.permutations(free):
        table = list(PairMap.flip(3).table)
        for code, image in zip(free, images):
            table[code] = image
        passed += braid_implied(g, PairMap(3, tuple(table)))
    assert passed == 1  # only the flip


IMPLICATION_BRACES = {
    "Klein": lambda: trivial_brace(klein()),
    "Z4": lambda: trivial_brace(cyclic(4)),
    "z4-brace": z4_brace,
    "S3": lambda: trivial_brace(symmetric(3)),
    "Z2xZ4": lambda: trivial_brace(direct_product(cyclic(2), cyclic(4))),
    "Z8": lambda: trivial_brace(cyclic(8)),
}
IMPLICATION_CASES = {name: make() for name, make in IMPLICATION_BRACES.items()}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(name=hs.sampled_from(sorted(IMPLICATION_CASES)), data=hs.data())
def test_braid_relation_follows_on_swapped_braidings(name, data):
    b = IMPLICATION_CASES[name]
    table = list(b.r.table)
    i = data.draw(hs.integers(0, len(table) - 1))
    j = data.draw(hs.integers(0, len(table) - 1))
    table[i], table[j] = table[j], table[i]
    r = PairMap(b.n, tuple(table))
    holds = braid_implied(b.group, r)  # asserts the implication where it applies
    assert holds or r != b.r


def test_valid_brace_check_builds_no_cube_table(monkeypatch):
    # A valid S4 braiding is decided on generators and by brdcomm: no braid
    # scan and no lift to G^3.
    b = trivial_brace(symmetric(4))

    def forbidden(*args):
        raise AssertionError("an n^3 table was built")
    monkeypatch.setattr(solutions, "_braid_failure", forbidden)
    for module in (braces, solutions):
        monkeypatch.setattr(module, "lift_12_table", forbidden)
        monkeypatch.setattr(module, "lift_23_table", forbidden)
    assert check_braided_group(b.group, b.r) == b
    assert b.solution.nondegenerate
