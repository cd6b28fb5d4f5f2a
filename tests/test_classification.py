"""Classification of brace twists by families of additive-group isomorphisms."""

import dataclasses
import random
from itertools import islice, permutations

import pytest

from skewtwist import braces, classification
from skewtwist.braces import (
    apply_brace_twist,
    braiding_from_brace,
    check_braided_group,
    compose_brace_twists,
    invert_brace_twist,
    theta_canonical_twist,
    trivial_brace,
    verify_brace_twist,
)
from skewtwist.classification import (
    anytwist_f_matches,
    are_twist_related,
    braces_isomorphic,
    count_families,
    count_twists,
    enumerate_brace_twists,
    enumerate_families,
    family_from_twist,
    make_iso_family,
    twist_from_family,
)
from skewtwist.errors import InvalidFamily, InvalidTwist, NotClassifiable
from skewtwist.generators import z4_brace
from skewtwist.groups import FiniteGroup, cyclic, klein, symmetric
from skewtwist.solutions import TwistTriple
from skewtwist.tables import PairMap, TripleMap, perm_inverse

from pointwise import table_of


def oracle_family_count(g, h):
    """Independent count: product over g of |{isos src->tgt fixing g}|,
    computed by filtering all bijections."""
    total = 1
    for fixed in range(g.n):
        count = 0
        for f in permutations(range(g.n)):
            if f[fixed] != fixed:
                continue
            if all(
                f[g.op(a, b)] == h.op(f[a], f[b])
                for a in range(g.n)
                for b in range(g.n)
            ):
                count += 1
        total *= count
    return total


def test_make_iso_family_validation():
    g = cyclic(3)
    ident = (0, 1, 2)
    neg = (0, 2, 1)
    make_iso_family(g, g, [ident, ident, ident])
    make_iso_family(g, g, [neg, ident, ident])  # negation fixes 0
    with pytest.raises(InvalidFamily):
        make_iso_family(g, g, [ident, neg, ident])  # negation moves 1
    with pytest.raises(InvalidFamily):
        make_iso_family(g, g, [(1, 2, 0), ident, ident])  # not a homomorphism


def test_endo_twist_counts():
    expected = {
        "Z2": (cyclic(2), 1),
        "Z3": (cyclic(3), 2),
        "Z4": (cyclic(4), 4),
        "Klein": (klein(), 48),
    }
    for g, want in expected.values():
        b = trivial_brace(g)
        assert count_twists(b, b) == want
        assert count_twists(b, b) == oracle_family_count(g, g)
        twists = list(enumerate_brace_twists(b, b))
        assert len(twists) == want
        # twists are pairwise distinct
        assert len({(t.F.table, t.Phi.table, t.Psi.table) for t in twists}) == want


def test_family_twist_roundtrip():
    g = cyclic(4)
    b = trivial_brace(g)
    for fam in enumerate_families(g, g):
        t = twist_from_family(fam)
        assert verify_brace_twist(b, t)
        back = family_from_twist(g, g, t)
        assert back.maps == fam.maps


def test_family_from_twist_rejects_non_family_twist():
    g = cyclic(3)
    with pytest.raises(NotClassifiable):
        family_from_twist(g, g, _broken_twist())


def _broken_twist():
    # a valid twist on the flip of Z3 that is NOT of family form:
    # kappa-type F(x,y) = (x, y+1) fails F(e,x) = (e, f(x)) family shape
    from skewtwist.generators import flip_solution
    from skewtwist.solutions import kappa_twist

    return kappa_twist(flip_solution(3), (1, 2, 0))


def test_z3_nontrivial_family_twist_shape():
    g = cyclic(3)
    b = trivial_brace(g)
    fams = list(enumerate_families(g, g))
    assert len(fams) == 2
    ident = tuple(range(3))
    neg = (0, 2, 1)
    assert fams[0].maps == (ident, ident, ident)
    assert fams[1].maps == (neg, ident, ident)
    t = twist_from_family(fams[1])
    # f_p applies only at p = x+y = 0, i.e. swaps the pairs (1,2) and (2,1)
    for x in range(3):
        for y in range(3):
            if (x + y) % 3 == 0 and x != 0:
                assert t.F(x, y) == (neg[x], neg[y])
            else:
                assert t.F(x, y) == (x, y)


def test_twists_map_first_brace_onto_second():
    b1 = z4_brace()
    b2 = trivial_brace(cyclic(4))
    assert are_twist_related(b1, b2)
    assert count_twists(b1, b2) == 4
    twists = list(enumerate_brace_twists(b1, b2))
    assert len(twists) == 4
    for t in twists:
        out = apply_brace_twist(b1, t)
        assert out.group.mul == b2.group.mul
        assert out.r == b2.r


def test_anytwist_f_closed_form():
    b1 = z4_brace()
    b2 = trivial_brace(cyclic(4))
    fams = list(enumerate_families(b1.star, b2.star))
    twists = list(enumerate_brace_twists(b1, b2))
    assert len(fams) == len(twists)
    for fam, t in zip(fams, twists):
        assert anytwist_f_matches(b1, b2, fam, t)


def test_unrelated_braces():
    b1 = trivial_brace(cyclic(4))
    b2 = trivial_brace(klein())
    assert not are_twist_related(b1, b2)
    assert count_twists(b1, b2) == 0
    assert list(enumerate_brace_twists(b1, b2)) == []
    assert count_twists(b1, trivial_brace(cyclic(3))) == 0


def test_braces_isomorphic():
    b = z4_brace()
    assert braces_isomorphic(b, b)
    # twist-related but not isomorphic: different multiplicative groups
    assert are_twist_related(b, trivial_brace(cyclic(4)))
    assert not braces_isomorphic(b, trivial_brace(cyclic(4)))


def test_enumeration_is_deterministic():
    g = klein()
    first = [f.maps for f in enumerate_families(g, g)]
    second = [f.maps for f in enumerate_families(g, g)]
    assert first == second
    assert first == sorted(first)


def reference_family_twist(fam):
    """The family twist built entry by entry through closures, then verified."""
    src = fam.source
    n = src.n
    f = fam.maps
    finv = [perm_inverse(m) for m in f]

    def F_fn(x, y):
        p = src.op(x, y)
        return f[p][x], f[p][y]

    def Phi_fn(x, y, z):
        q = src.op3(x, y, z)
        c = src.op(y, z)
        alpha = lambda t: finv[f[q][c]][f[q][t]]
        return f[q][x], alpha(y), alpha(z)

    def Psi_fn(x, y, z):
        q = src.op3(x, y, z)
        d = src.op(x, y)
        beta = lambda t: finv[f[q][d]][f[q][t]]
        return beta(x), beta(y), f[q][z]

    triple = TwistTriple(
        table_of(PairMap, n, F_fn),
        table_of(TripleMap, n, Phi_fn),
        table_of(TripleMap, n, Psi_fn),
    )
    assert verify_brace_twist(trivial_brace(src), triple)
    return triple


def reference_brace_twists(b1, b2):
    """The fully checked path: each family twist, then two checked compositions,
    each of which re-verifies its inputs and its result."""
    if b1.n != b2.n:
        return
    theta1 = theta_canonical_twist(b1)
    theta2_inv = invert_brace_twist(theta_canonical_twist(b2), b2)
    for fam in enumerate_families(b1.star, b2.star):
        family_twist = reference_family_twist(fam)
        assert twist_from_family(fam) == family_twist
        inner = compose_brace_twists(family_twist, theta1, b1)
        yield compose_brace_twists(theta2_inv, inner, b1)


def relabel(b, p):
    """The brace transported along the bijection p of its carrier."""
    n = b.n
    pi = perm_inverse(p)
    mul = [[p[b.group.op(pi[x], pi[y])] for y in range(n)] for x in range(n)]
    r = table_of(PairMap, n, lambda x, y: tuple(p[c] for c in b.r(pi[x], pi[y])))
    return check_braided_group(FiniteGroup.from_table(mul), r)


REFERENCE_CASES = {
    "Z2": (lambda: trivial_brace(cyclic(2)), None, None),
    "Z3": (lambda: trivial_brace(cyclic(3)), None, None),
    "Z4": (lambda: trivial_brace(cyclic(4)), None, None),
    "Klein": (lambda: trivial_brace(klein()), None, None),
    "z4-brace->Z4": (z4_brace, lambda: trivial_brace(cyclic(4)), None),
    "Z4->Klein": (lambda: trivial_brace(cyclic(4)), lambda: trivial_brace(klein()), None),
    "S3[:24]": (lambda: trivial_brace(symmetric(3)), None, 24),
    "Z8[:8]": (lambda: trivial_brace(cyclic(8)), None, 8),
}


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_stream_matches_checked_composition(name):
    make1, make2, prefix = REFERENCE_CASES[name]
    b1 = make1()
    p = tuple(random.Random(name).sample(range(b1.n), b1.n))
    b1 = relabel(b1, p)
    b2 = relabel(make2(), p) if make2 else b1
    got = list(islice(enumerate_brace_twists(b1, b2), prefix))
    want = list(islice(reference_brace_twists(b1, b2), prefix))
    assert got == want
    if name == "Z4->Klein":
        assert got == []
    else:
        assert len(got) == (prefix or count_twists(b1, b2))


def test_emitted_twists_get_their_final_check(monkeypatch):
    """A corrupted family triple must be caught by the one check on the composite."""
    build = classification._family_triple

    def swapped(fam):
        t = build(fam)
        phi = list(t.Phi.table)
        j = next(j for j in range(1, len(phi)) if phi[j] != phi[0])
        phi[0], phi[j] = phi[j], phi[0]
        return TwistTriple(t.F, TripleMap(t.n, tuple(phi)), t.Psi)

    monkeypatch.setattr(classification, "_family_triple", swapped)
    b = trivial_brace(klein())
    with pytest.raises(InvalidTwist, match="^composite: "):
        next(enumerate_brace_twists(b, b))


def test_each_twist_is_verified_once(monkeypatch):
    # Every brace-twist check, verify_brace_twist's and the stream's with its
    # shared multiplication lifts, runs through braces._brace_twist_report.
    calls = []
    report = braces._brace_twist_report

    def counted(b, t, lifts):
        calls.append(t)
        return report(b, t, lifts)

    monkeypatch.setattr(braces, "_brace_twist_report", counted)
    monkeypatch.setattr(classification, "_brace_twist_report", counted)
    b = trivial_brace(klein())
    assert len(list(enumerate_brace_twists(b, b))) == 48
    # one check per emitted twist; the canonical twists are not checked apart
    assert len(calls) == 48


@pytest.mark.parametrize("group, count", [(klein(), 48), (symmetric(3), 432)], ids=["Klein", "S3"])
def test_stream_builds_the_multiplication_lifts_once(monkeypatch, group, count):
    # The stream hands one set of m, m12, m23 to every twist it verifies.
    b = trivial_brace(group)
    built = []
    lifts = braces._mul_lifts

    def counted(mul):
        built.append(mul)
        return lifts(mul)

    monkeypatch.setattr(braces, "_mul_lifts", counted)
    monkeypatch.setattr(classification, "_mul_lifts", counted)
    assert sum(1 for _ in enumerate_brace_twists(b, b)) == count
    assert built == [b.group.mul]


def test_emitted_twists_must_reach_the_target(monkeypatch):
    """A composite that is a valid twist on b1 but lands on the wrong brace is refused."""
    # With Theta2^-1 replaced by the identity the composite ends at the trivial
    # brace of b2's additive group, which is not b2 itself.
    monkeypatch.setattr(classification, "_invert", lambda t: TwistTriple.identity(t.n))
    b1, b2 = trivial_brace(cyclic(4)), z4_brace()
    with pytest.raises(InvalidTwist, match="^composite: braiding differs from the target at "):
        next(enumerate_brace_twists(b1, b2))


def test_one_isomorphism_search_per_call(monkeypatch):
    searches = []
    search = classification.enumerate_isomorphisms

    def counted(g, h):
        searches.append((g, h))
        return search(g, h)

    monkeypatch.setattr(classification, "enumerate_isomorphisms", counted)
    for g in (cyclic(4), klein(), symmetric(3)):
        b = trivial_brace(g)
        for call in (
            lambda: count_families(g, g),
            lambda: list(enumerate_families(g, g)),
            lambda: count_twists(b, b),
            lambda: list(enumerate_brace_twists(b, b)),
        ):
            searches.clear()
            call()
            assert searches == [(g, g)]


FAMILY_PAIRS = {
    "Z2": (cyclic(2), cyclic(2)),
    "Z3": (cyclic(3), cyclic(3)),
    "Z4": (cyclic(4), cyclic(4)),
    "Klein": (klein(), klein()),
    "S3": (symmetric(3), symmetric(3)),
    "Z4->Klein": (cyclic(4), klein()),
}


@pytest.mark.parametrize("name", FAMILY_PAIRS)
def test_families_match_the_checked_reference(name):
    # Families are built without re-validation: each one still passes
    # make_iso_family, and the streaming count is the brute-force product.
    src, tgt = FAMILY_PAIRS[name]
    families = list(enumerate_families(src, tgt))
    for fam in families:
        assert make_iso_family(src, tgt, fam.maps) == fam
    assert count_families(src, tgt) == len(families) == oracle_family_count(src, tgt)


def z4_relabelled():
    """Z4 with 1 and 2 exchanged."""
    p = (0, 2, 1, 3)
    return FiniteGroup.from_table([[p[(p[x] + p[y]) % 4] for y in range(4)] for x in range(4)])


def test_related_braces_can_have_no_twist_on_their_labels():
    # Relatedness is isomorphism of the additive groups up to relabelling; a
    # twist needs an isomorphism fixing each g on the given labels, and every
    # isomorphism Z4 -> Z4-relabelled sends 1 to 2 or 3.
    b1, b2 = trivial_brace(cyclic(4)), trivial_brace(z4_relabelled())
    assert are_twist_related(b1, b2)
    assert count_twists(b1, b2) == 0
    assert list(enumerate_brace_twists(b1, b2)) == []


def test_emitted_twists_must_reach_the_target_multiplication():
    # An inconsistent target: the braiding (the flip) and the additive group of
    # trivial Z4, but Klein as its multiplicative group.
    b1 = trivial_brace(cyclic(4))
    b2 = dataclasses.replace(b1, group=klein())
    with pytest.raises(InvalidTwist, match="^composite: multiplication differs from the target at "):
        next(enumerate_brace_twists(b1, b2))


def closed_form_twist(b1, b2, fam):
    """The twist b1 -> b2 of a family, written out in closed form.

    With .1, .2 the multiplications of b1 and b2 and p = x .1 y,
    F(x, y) = (u, u^-1 .2 p) where u = f_p(x).  With (a, s) = F(x, y .1 z),
    w the second component of F(x .1 y, z) and h = s .2 w^-1, G3, G4 and T1
    force Phi(x, y, z) = (a, F^-1(h, w)) and Psi(x, y, z) = (F^-1(a, h), w).
    """
    m1, m2 = b1.group, b2.group

    def f_fn(x, y):
        p = m1.op(x, y)
        u = fam.maps[p][x]
        return u, m2.op(m2.inv[u], p)

    F = table_of(PairMap, b1.n, f_fn)
    finv = F.inverse()

    def parts(x, y, z):
        a, s = F(x, m1.op(y, z))
        w = F(m1.op(x, y), z)[1]
        return a, m2.op(s, m2.inv[w]), w

    def phi_fn(x, y, z):
        a, h, w = parts(x, y, z)
        return (a, *finv(h, w))

    def psi_fn(x, y, z):
        a, h, w = parts(x, y, z)
        return (*finv(a, h), w)

    return TwistTriple(F, table_of(TripleMap, b1.n, phi_fn), table_of(TripleMap, b1.n, psi_fn))


def _s3_opposite():
    s3 = symmetric(3)
    return braiding_from_brace(FiniteGroup.from_table([list(col) for col in zip(*s3.mul)]), s3)


CLOSED_FORM_CASES = {
    "z4-brace->Z4": (z4_brace, lambda: trivial_brace(cyclic(4))),
    "Z4->z4-brace": (lambda: trivial_brace(cyclic(4)), z4_brace),
    "S3op->S3": (_s3_opposite, lambda: trivial_brace(symmetric(3))),
    "S3->S3op": (lambda: trivial_brace(symmetric(3)), _s3_opposite),
}


def case_braces(name):
    """(b1, b2, prefix) of a reference case (relabelled) or a closed-form case."""
    if name in REFERENCE_CASES:
        make1, make2, prefix = REFERENCE_CASES[name]
        b1 = make1()
        p = tuple(random.Random(name).sample(range(b1.n), b1.n))
        b1 = relabel(b1, p)
        return b1, relabel(make2(), p) if make2 else b1, prefix
    make1, make2 = CLOSED_FORM_CASES[name]
    return make1(), make2(), None


@pytest.mark.parametrize("name", [*REFERENCE_CASES, *CLOSED_FORM_CASES])
def test_stream_matches_closed_form(name):
    """Every emitted twist equals the closed form of its family, item by item."""
    b1, b2, prefix = case_braces(name)
    fams = islice(enumerate_families(b1.star, b2.star), prefix)
    got = list(islice(enumerate_brace_twists(b1, b2), prefix))
    assert got == [closed_form_twist(b1, b2, fam) for fam in fams]
    assert len(got) == (0 if name == "Z4->Klein" else prefix or count_twists(b1, b2))


def pointwise_anytwist_f_matches(b1, b2, fam, t):
    """anytwist_f_matches point by point, reading F through PairMap.__call__."""
    for x in range(b1.n):
        for y in range(b1.n):
            p = b1.group.op(x, y)
            u = fam.maps[p][x]
            if t.F(x, y) != (u, b2.group.op(b2.group.inv[u], p)):
                return False
    return True


@pytest.mark.parametrize("name", [*REFERENCE_CASES, *CLOSED_FORM_CASES])
def test_anytwist_f_matches_agrees_with_pointwise_reference(name):
    b1, b2, prefix = case_braces(name)
    pairs = list(islice(classification._family_twists(b1, b2), prefix))
    assert len(pairs) == (0 if name == "Z4->Klein" else prefix or count_twists(b1, b2))
    for k, (fam, t) in enumerate(pairs):
        assert anytwist_f_matches(b1, b2, fam, t)
        assert pointwise_anytwist_f_matches(b1, b2, fam, t)
        # The twist with two F entries swapped no longer has the closed form.
        F = list(t.F.table)
        j = next(j for j in range(1, len(F)) if F[j] != F[0])
        F[0], F[j] = F[j], F[0]
        swapped = dataclasses.replace(t, F=PairMap(t.n, tuple(F)))
        assert not anytwist_f_matches(b1, b2, fam, swapped)
        assert not pointwise_anytwist_f_matches(b1, b2, fam, swapped)
        # Against another emitted family the two agree as well.
        other = pairs[(k + 1) % len(pairs)][0]
        assert anytwist_f_matches(b1, b2, other, t) == pointwise_anytwist_f_matches(b1, b2, other, t)
