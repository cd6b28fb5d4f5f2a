"""Acceptance suite: one test per criterion; tests/conftest.py prints a
one-line verdict per criterion in the terminal summary.

Expected integers marked "derived" below were frozen from independent
brute-force oracles (full filters over all candidate tables) and are
re-derived here where that stays within the time limits.
"""

import itertools
import json
from functools import lru_cache

import numpy as np
import pytest

from skewtwist.braces import (
    apply_brace_twist,
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
    count_twists,
    enumerate_brace_twists,
    enumerate_families,
)
from skewtwist.cli import main as cli_main
from skewtwist.errors import BraidFails
from skewtwist.generators import flip_solution, s4_solution, z4_brace
from skewtwist.groups import cyclic, klein, symmetric
from skewtwist.matched import (
    ThetaMap,
    check_theta,
    enumerate_thetas,
    pair_from_brace,
    triple_from_theta,
)
from skewtwist.solutions import (
    TwistTriple,
    apply_twist,
    brute_force_twists,
    check_solution,
    compose_twists,
    doikou_twist,
    invert_twist,
    kappa_twist,
    verify_twist,
)
from skewtwist.serialize import (
    brace_to_doc,
    canonical_dumps,
    doc_to_brace,
    doc_to_solution,
    doc_to_twist,
    parse_document,
    solution_to_doc,
    twist_to_doc,
)
from skewtwist.tables import PairMap, TripleMap

from pointwise import table_of

SIG = (1, 0, 2, 3)
GAM = (0, 1, 3, 2)


def s4_twist() -> TwistTriple:
    """The hand-written twist of the 4-element two-permutation solution."""
    gs = tuple(GAM[SIG[i]] for i in range(4))
    return TwistTriple(
        table_of(PairMap, 4, lambda x, y: (SIG[x], GAM[y])),
        table_of(TripleMap, 4, lambda x, y, z: (gs[x], SIG[y], SIG[z])),
        table_of(TripleMap, 4, lambda x, y, z: (GAM[x], GAM[y], gs[z])),
    )


@lru_cache(maxsize=None)
def involutive_nondegenerate_solutions(n: int):
    """Exhaustive search over all (n^2)! bijections of X^2, filtered to
    involutive non-degenerate braid solutions (numpy pre-filter on r^2 = id)."""
    nn = n * n
    perms = np.array(list(itertools.permutations(range(nn))), dtype=np.int64)
    idx = np.arange(nn)
    involutive = (np.take_along_axis(perms, perms, axis=1) == idx).all(axis=1)
    out = []
    for row in perms[involutive]:
        r = PairMap(n, tuple(int(v) for v in row))
        try:
            s = check_solution(n, r)
        except BraidFails:
            continue
        if s.nondegenerate:
            out.append(s)
    return tuple(out)


@lru_cache(maxsize=None)
def suite_brace_twists():
    """Every (brace, twist) pair the suite produces, for the cross-cutting
    criteria 6 and 8."""
    pairs = []
    for g in (cyclic(2), cyclic(3), cyclic(4), klein()):
        b = trivial_brace(g)
        for t in enumerate_brace_twists(b, b):
            pairs.append((b, t))
    b1 = z4_brace()
    b2 = trivial_brace(cyclic(4))
    for t in enumerate_brace_twists(b1, b2):
        pairs.append((b1, t))
    for b in (b1, trivial_brace(symmetric(3)), trivial_brace(cyclic(8))):
        pairs.append((b, theta_canonical_twist(b)))
    p = pair_from_brace(trivial_brace(cyclic(4)))
    base = trivial_brace(cyclic(4))
    for theta in enumerate_thetas(p):
        pairs.append((base, triple_from_theta(p, theta, base)))
    return tuple(pairs)


@lru_cache(maxsize=None)
def suite_solution_twists():
    """Every (solution, twist) pair the suite produces."""
    pairs = []
    s = s4_solution()
    pairs.append((s, s4_twist()))
    pairs.append((s, doikou_twist(s)))
    for kappa in [(1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)]:
        pairs.append((s, kappa_twist(s, kappa)))
    for n in (1, 2, 3):
        for sol in involutive_nondegenerate_solutions(n):
            pairs.append((sol, doikou_twist(sol)))
    for t in brute_force_twists(flip_solution(2)):
        pairs.append((flip_solution(2), t))
    for b, t in suite_brace_twists():
        pairs.append((b.solution, t))
    return tuple(pairs)


def test_criterion_1():
    """Twisting the 4-element solution by its triple gives exactly
    (x, y) -> (gamma(y), sigma(x)); inverting recovers the original."""
    s = s4_solution()
    t = s4_twist()
    assert verify_twist(s, t)
    twisted = apply_twist(s, t)
    expected = table_of(PairMap, 4, lambda x, y: (GAM[y], SIG[x]))
    assert twisted.r == expected
    inverse = invert_twist(t, s)
    assert apply_twist(twisted, inverse).r == s.r


def test_criterion_2():
    """Every involutive non-degenerate solution on n <= 3 elements is sent
    to the flip by its canonical twist (exhaustive over all 9! candidates
    at n = 3)."""
    # derived counts from the exhaustive filter itself
    assert len(involutive_nondegenerate_solutions(1)) == 1
    assert len(involutive_nondegenerate_solutions(2)) == 2
    assert len(involutive_nondegenerate_solutions(3)) == 12
    for n in (1, 2, 3):
        for s in involutive_nondegenerate_solutions(n):
            t = doikou_twist(s)
            assert verify_twist(s, t)
            assert apply_twist(s, t).r == PairMap.flip(n)


def test_criterion_3():
    """Groupoid laws: two-sided inverses, identity laws, and agreement of
    composite application with sequential application."""
    # brace twists on the trivial braces
    for g in (cyclic(2), cyclic(3), cyclic(4), klein()):
        b = trivial_brace(g)
        ident = TwistTriple.identity(g.n)
        for t in enumerate_brace_twists(b, b):
            target = apply_brace_twist(b, t)
            inv = invert_brace_twist(t, b)
            assert compose_brace_twists(inv, t, b) == ident
            assert compose_brace_twists(t, inv, target) == ident
            assert compose_brace_twists(ident, t, b) == t
            assert compose_brace_twists(t, ident, b) == t
    # solution twists on the 4-element example
    s = s4_solution()
    for t in (s4_twist(), kappa_twist(s, (1, 0, 3, 2)), kappa_twist(s, (1, 0, 2, 3))):
        ident = TwistTriple.identity(4)
        mid = apply_twist(s, t)
        inv = invert_twist(t, s)
        assert compose_twists(inv, t, s) == ident
        assert compose_twists(t, inv, mid) == ident
        assert compose_twists(ident, t, s) == t
        assert compose_twists(t, ident, s) == t
        # composite application = sequential application
        t2 = doikou_twist(mid)
        composite = compose_twists(t2, t, s)
        assert apply_twist(s, composite).r == apply_twist(mid, t2).r


def test_criterion_4():
    """Endo-twist counts Z2: 1, Z3: 2, Z4: 4, Klein: 48; at n = 2 the
    stream is complete against the brute-force oracle filtered by the
    brace conditions."""
    for g, want in ((cyclic(2), 1), (cyclic(3), 2), (cyclic(4), 4), (klein(), 48)):
        b = trivial_brace(g)
        assert count_twists(b, b) == want
        assert sum(1 for _ in enumerate_brace_twists(b, b)) == want
    # completeness at n = 2: every brute-force solution twist on the flip
    # that additionally satisfies the brace conditions is in the stream
    b = trivial_brace(cyclic(2))
    oracle = {
        (t.F.table, t.Phi.table, t.Psi.table)
        for t in brute_force_twists(flip_solution(2))
        if verify_brace_twist(b, t)
    }
    stream = {
        (t.F.table, t.Phi.table, t.Psi.table) for t in enumerate_brace_twists(b, b)
    }
    assert oracle == stream
    assert len(oracle) == 1


def test_criterion_5():
    """Twist-relatedness is exactly isomorphism of additive groups, and
    each enumerated twist maps the first brace's tables onto the second's."""
    z4t = trivial_brace(cyclic(4))
    kleint = trivial_brace(klein())
    assert count_twists(z4t, kleint) == 0
    assert not are_twist_related(z4t, kleint)
    assert list(enumerate_brace_twists(z4t, kleint)) == []

    b1 = z4_brace()
    assert are_twist_related(b1, z4t)
    twists = list(enumerate_brace_twists(b1, z4t))
    assert len(twists) == 4
    fams = list(enumerate_families(b1.star, z4t.star))
    for fam, t in zip(fams, twists):
        assert verify_brace_twist(b1, t)
        out = apply_brace_twist(b1, t)
        # m F^-1 equals + and F r F^-1 equals the flip of (Z4, +)
        assert out.group.mul == cyclic(4).mul
        assert out.r == PairMap.flip(4)
        assert anytwist_f_matches(b1, z4t, fam, t)


def test_criterion_6():
    """Every twist produced anywhere in the suite yields, via application,
    a structure passing all four braiding-operator axioms with a star
    table that is a group (exhaustive for |G| <= 8)."""
    pairs = suite_brace_twists()
    assert pairs
    for b, t in pairs:
        assert b.n <= 8
        out = apply_brace_twist(b, t)
        # re-validate from the raw tables through the full axiom checker
        again = check_braided_group(out.group, out.r)
        assert again.star.mul == out.star.mul


def test_criterion_7():
    """Theta(x, y) = (e, x) reproduces the canonical twist on three braces;
    the constant-e Theta is the identity twist; exhaustive search on the
    trivial (Z4, +, +) brace never produces the inverse of the Z4 brace's
    canonical twist."""
    for b in (z4_brace(), trivial_brace(symmetric(3)), trivial_brace(cyclic(4))):
        p = pair_from_brace(b)
        theta = ThetaMap.canonical(p)
        assert check_theta(p, theta)
        assert triple_from_theta(p, theta, b) == theta_canonical_twist(b)
        assert triple_from_theta(p, ThetaMap.constant_identity(p), b) == (
            TwistTriple.identity(b.n)
        )
    base = trivial_brace(cyclic(4))
    p = pair_from_brace(base)
    zb = z4_brace()
    forbidden = invert_brace_twist(theta_canonical_twist(zb), zb)
    thetas = list(enumerate_thetas(p))
    assert len(thetas) == 256  # derived: full filter over the F-identity class
    for theta in thetas:
        assert triple_from_theta(p, theta, base) != forbidden


def test_criterion_8():
    """The permutation order of r equals the permutation order of the
    twisted braiding for every (solution, twist) pair in the suite."""
    pairs = suite_solution_twists()
    assert pairs
    for s, t in pairs:
        assert apply_twist(s, t).r.order() == s.r.order()


def test_criterion_9(tmp_path, capsys):
    """Serialization round trips are byte-identical on all fixtures and the
    documented exit codes are honored on crafted failures."""
    fixtures = []
    for s in (s4_solution(), flip_solution(3), *involutive_nondegenerate_solutions(2)):
        fixtures.append(solution_to_doc(s))
    for b in (z4_brace(), trivial_brace(symmetric(3)), trivial_brace(klein())):
        fixtures.append(brace_to_doc(b))
    for _, t in suite_brace_twists()[:8]:
        fixtures.append(twist_to_doc(t))
    for doc in fixtures:
        text = canonical_dumps(doc)
        again = parse_document(text)
        if doc["kind"] == "solution":
            assert canonical_dumps(solution_to_doc(doc_to_solution(again))) == text
        elif doc["kind"] == "brace":
            assert canonical_dumps(brace_to_doc(doc_to_brace(again))) == text
        else:
            assert canonical_dumps(twist_to_doc(doc_to_twist(again))) == text

    def run(*argv):
        code = cli_main(list(argv))
        capsys.readouterr()
        return code

    good = tmp_path / "s4.json"
    good.write_text(canonical_dumps(solution_to_doc(s4_solution())))
    assert run("verify", "--in", str(good)) == 0

    bad_axiom = tmp_path / "notbraid.json"
    bad_axiom.write_text(
        canonical_dumps({"kind": "solution", "n": 2, "r": [[0, 1], [1, 0], [0, 0], [1, 1]]})
    )
    assert run("verify", "--in", str(bad_axiom)) == 1

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{broken")
    assert run("verify", "--in", str(bad_json)) == 2
    assert run("gen", "no-such-generator") == 2
    assert run("verify", "--in", str(tmp_path / "missing.json")) == 2

    from skewtwist.serialize import matched_pair_to_doc

    pair = tmp_path / "pair.json"
    pair.write_text(
        canonical_dumps(matched_pair_to_doc(pair_from_brace(trivial_brace(cyclic(4)))))
    )
    assert run("enumerate", "thetas", "--pair", str(pair), "--budget", "10") == 3
