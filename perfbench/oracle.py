"""Reference mathematics the benchmark checks the library against.

Nothing here imports skewtwist.  Every structure is plain tuples over the
universe {0..n-1}: a group is its multiplication table ``mul[a][b]``, a map
on pairs is a tuple of encoded outputs ``x*n + y`` and a map on triples a
tuple of ``(x*n + y)*n + z``, as in the paper's lookup-table formulation.
The ``*_first_failure`` functions scan the axioms in the library's documented
order and return ``(axiom, witness)`` for the first violation, so a verdict's
axiom and lexicographically minimal witness are predicted independently.
"""

from __future__ import annotations

import itertools
import json


# ---------------------------------------------------------------- groups

def cyclic(n):
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def klein():
    return tuple(tuple(a ^ b for b in range(4)) for a in range(4))


def symmetric(k):
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(p[i] for i in q)] for q in perms) for p in perms)


def direct_product(g, h):
    m = len(h)
    n = len(g) * m
    return tuple(
        tuple(g[a // m][b // m] * m + h[a % m][b % m] for b in range(n)) for a in range(n)
    )


def z4_radical():
    """(Z4, o) with x o y = x + y + 2xy mod 4."""
    return tuple(tuple((a + b + 2 * a * b) % 4 for b in range(4)) for a in range(4))


def identity_of(mul):
    n = len(mul)
    for c in range(n):
        if all(mul[c][a] == a == mul[a][c] for a in range(n)):
            return c
    return None


def inverses(mul):
    e = identity_of(mul)
    return tuple(next(b for b in range(len(mul)) if mul[a][b] == e) for a in range(len(mul)))


def group_first_failure(mul):
    """Identity, then two-sided inverses, then associativity."""
    n = len(mul)
    e = identity_of(mul)
    if e is None:
        return "identity", None
    for a in range(n):
        if not any(mul[a][b] == e and mul[b][a] == e for b in range(n)):
            return "inverses", a
    for a in range(n):
        for b in range(n):
            ab = mul[a][b]
            for c in range(n):
                if mul[ab][c] != mul[a][mul[b][c]]:
                    return "associativity", (a, b, c)
    return None


def relabel_group(mul, p):
    n = len(mul)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[p[a]][p[b]] = p[mul[a][b]]
    return tuple(tuple(row) for row in out)


def relabel_pairs(n, table, p):
    out = [0] * (n * n)
    for x in range(n):
        for y in range(n):
            u, v = divmod(table[x * n + y], n)
            out[p[x] * n + p[y]] = p[u] * n + p[v]
    return tuple(out)


def isomorphisms(g, h, fixed=None):
    """All isomorphisms g -> h as image tuples, in lexicographic order, by
    brute force over permutations (only used for n <= 4)."""
    n = len(g)
    for f in itertools.permutations(range(n)):
        if fixed is not None and f[fixed] != fixed:
            continue
        if all(f[g[a][b]] == h[f[a]][f[b]] for a in range(n) for b in range(n)):
            yield f


def families(src, tgt):
    """Cartesian product over g of the isomorphisms src -> tgt fixing g."""
    stabs = [list(isomorphisms(src, tgt, fixed=g)) for g in range(len(src))]
    return list(itertools.product(*stabs))


# ------------------------------------------------------ tables and braids

def pair_map(n, fn):
    return tuple(a * n + b for x in range(n) for y in range(n) for a, b in [fn(x, y)])


def triple_map(n, fn):
    return tuple(
        (a * n + b) * n + c
        for x in range(n) for y in range(n) for z in range(n)
        for a, b, c in [fn(x, y, z)]
    )


def decode3(n, v):
    ab, c = divmod(v, n)
    a, b = divmod(ab, n)
    return a, b, c


def compose(f, g):
    return tuple(f[i] for i in g)


def inverse(f):
    out = [0] * len(f)
    for i, v in enumerate(f):
        out[v] = i
    return tuple(out)


def lift12(n, f):
    return triple_map(n, lambda x, y, z: (*divmod(f[x * n + y], n), z))


def lift23(n, f):
    return triple_map(n, lambda x, y, z: (x, *divmod(f[y * n + z], n)))


def first_difference(n, f, g):
    for i, (a, b) in enumerate(zip(f, g)):
        if a != b:
            return decode3(n, i)
    return None


def flip(n):
    return pair_map(n, lambda x, y: (y, x))


def lyubashenko(n, sigma, gamma):
    return pair_map(n, lambda x, y: (sigma[y], gamma[x]))


def sigma_gamma(n, r):
    sigma = tuple(tuple(r[x * n + y] // n for y in range(n)) for x in range(n))
    gamma = tuple(tuple(r[x * n + y] % n for x in range(n)) for y in range(n))
    return sigma, gamma


def braid_first_failure(n, r):
    """First triple, lexicographically, where r23 r12 r23 != r12 r23 r12."""
    r12, r23 = lift12(n, r), lift23(n, r)
    return first_difference(n, compose(r23, compose(r12, r23)), compose(r12, compose(r23, r12)))


def solution_summary(n, r):
    """(sigma, gamma, involutive, nondegenerate) of a braid solution."""
    sigma, gamma = sigma_gamma(n, r)
    involutive = compose(r, r) == tuple(range(n * n))
    nondeg = all(len(set(row)) == n for row in sigma + gamma)
    return sigma, gamma, involutive, nondeg


def braiding_from_brace(dot, star):
    """r(x, y) = (s, s^-1 . x . y) with s = sigma_x(y), where sigma_x inverts
    y -> x^-1 . (x * y)."""
    n = len(dot)
    inv = inverses(dot)
    sigma = [inverse(tuple(dot[inv[x]][star[x][y]] for y in range(n))) for x in range(n)]

    def r(x, y):
        s = sigma[x][y]
        return s, dot[dot[inv[s]][x]][y]
    return pair_map(n, r)


def star_of(dot, r):
    """The additive operation x * y = x . sigma_x^-1(y)."""
    n = len(dot)
    sigma, _ = sigma_gamma(n, r)
    sinv = [inverse(row) for row in sigma]
    return tuple(tuple(dot[x][sinv[x][y]] for y in range(n)) for x in range(n))


def brace_first_failure(mul, r):
    """brd1, then brdOpr1/brdOpr2 per triple, brdcomm, braid,
    non-degeneracy, then the group axioms of the star operation."""
    n = len(mul)
    e = identity_of(mul)
    at = lambda x, y: divmod(r[x * n + y], n)
    for g in range(n):
        if at(e, g) != (g, e) or at(g, e) != (e, g):
            return "brd1", g
    sigma, gamma = sigma_gamma(n, r)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                a = sigma[x][sigma[y][z]]
                b = mul[gamma[sigma[y][z]][x]][gamma[z][y]]
                if at(mul[x][y], z) != (a, b):
                    return "brdOpr1", (x, y, z)
                a = mul[sigma[x][y]][sigma[gamma[y][x]][z]]
                b = gamma[z][gamma[y][x]]
                if at(x, mul[y][z]) != (a, b):
                    return "brdOpr2", (x, y, z)
    for x in range(n):
        for y in range(n):
            if mul[sigma[x][y]][gamma[y][x]] != mul[x][y]:
                return "brdcomm", (x, y)
    w = braid_first_failure(n, r)
    if w is not None:
        return "braid", w
    if not solution_summary(n, r)[3]:
        return "non-degenerate", None
    star = star_of(mul, r)
    bad = group_first_failure(star)
    if bad is not None:
        return "star-" + bad[0], bad[1]
    if identity_of(star) != e:
        return "star-identity", identity_of(star)
    return None


# ------------------------------------------------------------- twists
# A twist is (F, Phi, Psi): a pair table and two triple tables.

def twist_first_failure(n, r, t, mul=None):
    """T1-T3; with a multiplication also G1-G4 and the L1/L2 consequences."""
    F, Phi, Psi = t
    for name, table in (("F-bijective", F), ("Phi-bijective", Phi), ("Psi-bijective", Psi)):
        if len(set(table)) != len(table):
            return name, None
    w = first_difference(n, compose(lift12(n, F), Psi), compose(lift23(n, F), Phi))
    if w is not None:
        return "T1", w
    r12, r23 = lift12(n, r), lift23(n, r)
    w = first_difference(n, compose(Phi, r23), compose(r23, Phi))
    if w is not None:
        return "T2", w
    w = first_difference(n, compose(Psi, r12), compose(r12, Psi))
    if w is not None:
        return "T3", w
    if mul is None:
        return None
    e = identity_of(mul)
    f2 = lambda x, y: divmod(F[x * n + y], n)
    phi = lambda x, y, z: decode3(n, Phi[(x * n + y) * n + z])
    psi = lambda x, y, z: decode3(n, Psi[(x * n + y) * n + z])
    for x in range(n):
        for y in range(n):
            if psi(x, y, e) != (x, y, e) or phi(e, x, y) != (e, x, y):
                return "G1", (x, y)
    for x in range(n):
        if f2(e, x) != (e, x) or f2(x, e) != (x, e):
            return "G2", (x,)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                p, q, w = phi(x, y, z)
                if (p, mul[q][w]) != f2(x, mul[y][z]):
                    return "G3", (x, y, z)
                p, q, w = psi(x, y, z)
                if (mul[p][q], w) != f2(mul[x][y], z):
                    return "G4", (x, y, z)
    for x in range(n):
        for y in range(n):
            fx, fy = f2(x, y)
            if phi(x, y, e) != (fx, fy, e) or phi(x, e, y) != (fx, e, fy):
                return "L1", (x, y)
            if psi(e, x, y) != (e, fx, fy) or psi(x, e, y) != (fx, e, fy):
                return "L2", (x, y)
    return None


def canonical_twist(n, r):
    """F(x,y) = (x, sigma_x(y)), the twist onto the trivial brace."""
    sigma, gamma = sigma_gamma(n, r)
    return (
        pair_map(n, lambda x, y: (x, sigma[x][y])),
        triple_map(n, lambda x, y, z: (x, sigma[x][y], sigma[gamma[y][x]][z])),
        triple_map(n, lambda x, y, z: (x, y, sigma[x][sigma[y][z]])),
    )


def family_twist(src, maps):
    """F(x,y) = (f_p(x), f_p(y)) with p = x*y, and its connecting Phi, Psi."""
    n = len(src)
    finv = [inverse(m) for m in maps]

    def phi(x, y, z):
        q, c = src[src[x][y]][z], src[y][z]
        fq = maps[q]
        return fq[x], finv[fq[c]][fq[y]], finv[fq[c]][fq[z]]

    def psi(x, y, z):
        q, d = src[src[x][y]][z], src[x][y]
        fq = maps[q]
        return finv[fq[d]][fq[x]], finv[fq[d]][fq[y]], fq[z]

    return (
        pair_map(n, lambda x, y: (maps[src[x][y]][x], maps[src[x][y]][y])),
        triple_map(n, phi),
        triple_map(n, psi),
    )


def compose_twists(n, outer, inner):
    """(G F, F23^-1 phi F23 Phi, F12^-1 psi F12 Psi) with F = inner.F."""
    f12, f23 = lift12(n, inner[0]), lift23(n, inner[0])
    return (
        compose(outer[0], inner[0]),
        compose(inverse(f23), compose(outer[1], compose(f23, inner[1]))),
        compose(inverse(f12), compose(outer[2], compose(f12, inner[2]))),
    )


def invert_twist(n, t):
    f12, f23 = lift12(n, t[0]), lift23(n, t[0])
    return (
        inverse(t[0]),
        compose(f23, compose(inverse(t[1]), inverse(f23))),
        compose(f12, compose(inverse(t[2]), inverse(f12))),
    )


def apply_brace_twist(n, mul, r, t):
    """The twisted brace: multiplication m . F^-1 and braiding F r F^-1."""
    finv = inverse(t[0])
    new_mul = tuple(
        tuple(mul[finv[x * n + y] // n][finv[x * n + y] % n] for y in range(n)) for x in range(n)
    )
    return new_mul, compose(t[0], compose(r, finv))


def brace_twists(b1, b2):
    """All twists b1 -> b2 in the library's documented stream order: for each
    family of the additive groups, theta2^-1 . family twist . theta1."""
    (m1, r1), (m2, r2) = b1, b2
    n = len(m1)
    theta1 = canonical_twist(n, r1)
    theta2_inv = invert_twist(n, canonical_twist(n, r2))
    out = []
    for fam in families(star_of(m1, r1), star_of(m2, r2)):
        inner = compose_twists(n, family_twist(star_of(m1, r1), fam), theta1)
        out.append((fam, compose_twists(n, theta2_inv, inner)))
    return out


def anytwist_f_ok(b1, b2, fam, t):
    """F(x, y) = (f_p(x), f_p(x)^-1 .2 p) with p = x .1 y."""
    (m1, _), (m2, _) = b1, b2
    n = len(m1)
    inv2 = inverses(m2)
    for x in range(n):
        for y in range(n):
            p = m1[x][y]
            u = fam[p][x]
            if divmod(t[0][x * n + y], n) != (u, m2[inv2[u]][p]):
                return False
    return True


# ------------------------------------------------- matched pairs, thetas

def self_pair(mul, r):
    """The matched pair a brace defines on itself: actL = sigma, actR = gamma."""
    n = len(mul)
    sigma, gamma = sigma_gamma(n, r)
    act_left = tuple(tuple(sigma[g][x] for x in range(n)) for g in range(n))
    act_right = tuple(tuple(gamma[x][g] for x in range(n)) for g in range(n))
    return mul, mul, act_left, act_right


def matched_pair_first_failure(gplus, gminus, actl, actr):
    np_, nm = len(gplus), len(gminus)
    ep, em = identity_of(gplus), identity_of(gminus)
    for b in range(nm):
        if actl[ep][b] != b:
            return "left-action-unit", b
        if actr[ep][b] != ep:
            return "plus-unit-fixed", b
    for g in range(np_):
        if actl[g][em] != em:
            return "minus-unit-fixed", g
        if actr[g][em] != g:
            return "right-action-unit", g
    for g in range(np_):
        for h in range(np_):
            for b in range(nm):
                if actl[gplus[g][h]][b] != actl[g][actl[h][b]]:
                    return "left-action-mul", (g, h, b)
                if actr[gplus[g][h]][b] != gplus[actr[g][actl[h][b]]][actr[h][b]]:
                    return "right-compat", (g, h, b)
    for g in range(np_):
        for b in range(nm):
            for c in range(nm):
                if actr[g][gminus[b][c]] != actr[actr[g][b]][c]:
                    return "right-action-mul", (g, b, c)
                if actl[g][gminus[b][c]] != gminus[actl[g][b]][actl[actr[g][b]][c]]:
                    return "left-compat", (g, b, c)
    return None


def canonical_theta(pair):
    """Theta(x, y) = (e+, x) as (theta1, theta2) tuples."""
    gplus, gminus = pair[0], pair[1]
    m, ep = len(gminus), identity_of(gplus)
    return (ep,) * (m * m), tuple(a for a in range(m) for _ in range(m))


def theta_first_failure(pair, theta):
    """Unit conditions, the three cocycle conditions per triple, then
    bijectivity of F_Theta(g, h) = (Theta_1 |> g, Theta_2 |> h)."""
    gplus, gminus, actl, actr = pair
    t1, t2 = theta
    m = len(gminus)
    ep, em = identity_of(gplus), identity_of(gminus)
    th = lambda a, b: (t1[a * m + b], t2[a * m + b])
    for a in range(m):
        if th(em, a)[1] != ep:
            return "theta-unit", (em, a)
        if th(a, em)[0] != ep:
            return "theta-unit", (a, em)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                g1 = th(gminus[a][b], c)[0]
                g2 = th(a, gminus[b][c])[1]
                A, B = actl[g1][a], actl[actr[g1][a]][b]
                C, D = actl[g2][b], actl[actr[g2][b]][c]
                if gplus[th(A, B)[0]][g1] != th(a, gminus[b][c])[0]:
                    return "theta-1", (a, b, c)
                if gplus[th(A, B)[1]][actr[g1][a]] != gplus[th(C, D)[0]][g2]:
                    return "theta-2", (a, b, c)
                if th(gminus[a][b], c)[1] != gplus[th(C, D)[1]][actr[g2][b]]:
                    return "theta-3", (a, b, c)
    f = {(actl[t1[i]][i // m], actl[t2[i]][i % m]) for i in range(m * m)}
    if len(f) != m * m:
        return "f-theta-bijective", None
    return None


# ------------------------------------------------------------ documents

def dumps(doc):
    """Canonical form: sorted keys, no whitespace, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def pair_rows(n, table):
    return [list(divmod(v, n)) for v in table]


def triple_rows(n, table):
    return [list(decode3(n, v)) for v in table]


def solution_doc(n, r):
    return {"kind": "solution", "n": n, "r": pair_rows(n, r)}


def brace_doc(mul, r):
    n = len(mul)
    return {"kind": "brace", "n": n, "mul": [list(row) for row in mul], "r": pair_rows(n, r)}


def group_doc(mul):
    return {"kind": "group", "n": len(mul), "mul": [list(row) for row in mul]}


def twist_doc(n, t):
    return {"kind": "twist", "n": n, "f": pair_rows(n, t[0]),
            "phi": triple_rows(n, t[1]), "psi": triple_rows(n, t[2])}


def family_doc(src, tgt, maps):
    return {"kind": "family", "n": len(src), "source": [list(r) for r in src],
            "target": [list(r) for r in tgt], "maps": [list(m) for m in maps]}


def pair_doc(pair):
    gplus, gminus, actl, actr = pair
    return {"kind": "matched-pair", "nplus": len(gplus), "nminus": len(gminus),
            "gplus": [list(r) for r in gplus], "gminus": [list(r) for r in gminus],
            "actl": [list(r) for r in actl], "actr": [list(r) for r in actr]}


def theta_doc(nminus, nplus, theta):
    return {"kind": "theta", "nminus": nminus, "nplus": nplus,
            "theta": [[u, v] for u, v in zip(*theta)]}


def classify_doc(b1, b2):
    """The `classify` report for two twist-related braces."""
    n = len(b1[0])
    theta1, theta2 = canonical_twist(n, b1[1]), canonical_twist(n, b2[1])
    twists = [
        {
            "family_maps": [list(m) for m in fam],
            "anytwist_f_ok": anytwist_f_ok(b1, b2, fam, t),
            "twist": twist_doc(n, t),
            "decomposition": {"theta1": twist_doc(n, theta1), "theta2": twist_doc(n, theta2)},
        }
        for fam, t in brace_twists(b1, b2)
    ]
    return {"kind": "report", "related": True, "count": len(twists), "twists": twists}
