"""The four workloads as pools of queries with independent answer checks.

A query is one call into the library's public API (or one in-process CLI
invocation).  ``call`` performs it; a verdict query returns one answer, a
stream query returns an iterator whose items and end marker are the ops.
``check`` receives the Outcome, raises WrongAnswer when the content
contradicts the reference in ``oracle``, and returns True when the op
failed: refused by the budget, crashed, or exited with an undocumented code.

Each workload builds a few seeded variants of one round of queries in
set-up; round k runs variant k mod len(variants).  Expected answers are
computed lazily on first check and cached, outside the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import oracle as ref
from inputs import (commuting_pair, cycle_notation, relabel_brace, rng_for, seeded_brace,
                    swap_in_rows, swap_two, BRACES, permutation)

# Distinct seeded variants of a round per workload (thetas has one).  More
# variants smooth the mix of corrupted positions and labellings a run sees.
VARIANTS = {"verify": 8, "twists": 6, "cli": 8}
THETA_BUDGET = 150_000
THETA_COUNTS = {"Z3": 27, "Z4": 256, "z4-brace": 192, "Klein": 1024}
# Identity positions per structure in a thetas round.  With the budget
# above the identity-at-0 labellings finish; Klein with the identity at
# label 3 exceeds it (a known defect of the search, recorded as a failed op).
THETA_IDENTITY_AT = {"Z3": (0, 1, 2), "Z4": (0,), "z4-brace": (0,), "Klein": (0, 3)}
TWIST_COUNTS = [("Z2", "Z2", 1), ("Z3", "Z3", 2), ("Z4", "Z4", 4), ("Klein", "Klein", 48),
                ("z4-brace", "Z4", 4), ("Z4", "Klein", 0)]
TWIST_PREFIXES = [("Z8", 8, 64), ("S3", 24, 432)]   # (brace, prefix taken, total count)


class WrongAnswer(Exception):
    """An op completed with content that contradicts the reference."""


@dataclass
class Outcome:
    value: Any = None
    items: list = field(default_factory=list)
    error: BaseException | None = None


@dataclass(eq=False)
class Query:
    label: str
    call: Callable[[], Any]
    check: Callable[[Outcome], bool]
    stream: bool = False


@dataclass
class Workload:
    variants: list             # per variant, the queries of one round
    ordered: bool = False      # keep a round's query order (CLI sessions)


def expect(ok, label, what):
    if not ok:
        raise WrongAnswer(f"{label}: {what}")


def refused(st, outcome):
    """Budget refusals and crashes are failed ops, not answers."""
    err = outcome.error
    return err is not None and (isinstance(err, st.TooLarge)
                                or not isinstance(err, st.SkewtwistError))


def rejection(st, outcome, label):
    """(axiom, witness) of a rejected input, or None if it was accepted."""
    err = outcome.error
    if err is None:
        return None
    if isinstance(err, st.BraidFails):
        return "braid", err.witness
    if isinstance(err, st.AxiomFails):
        return err.axiom, err.witness
    raise WrongAnswer(f"{label}: unexpected {type(err).__name__}: {err}")


def report_verdict(report):
    return None if report.ok else (report.axiom, report.witness)


def verdict_query(st, label, call, expected, accept):
    """A single verdict.  `expected()` is the reference's (axiom, witness) or
    None; `accept(value)` checks the content of a positive answer."""
    def check(o):
        if refused(st, o):
            return True
        want = expected()
        got = rejection(st, o, label)
        expect(got == want, label, f"verdict {got}, expected {want}")
        if want is None:
            accept(o.value)
        return False
    return Query(label, call, check)


def corrupt_pair(label, clean, rng, corrupt):
    return [(label, clean), (label + "~", corrupt(rng, clean))]


# ------------------------------------------------------------------ verify

def build_verify(st, seed):
    variants = []
    for v in range(VARIANTS["verify"]):
        rng = rng_for(seed, "verify", v)
        qs = []
        for n in (8, 16, 24):
            sigma, gamma = commuting_pair(rng, n)
            for label, r in (corrupt_pair(f"flip{n}", ref.flip(n), rng, swap_two)
                             + corrupt_pair(f"lyub{n}", ref.lyubashenko(n, sigma, gamma),
                                            rng, swap_two)):
                qs.append(solution_query(st, label, n, r))
        for name in ("Z8", "Z2xZ4", "S3", "z4-brace", "S4"):
            mul, r = seeded_brace(name, rng)
            for label, rr in corrupt_pair(f"brace-{name}", r, rng, swap_two):
                qs.append(braided_group_query(st, label, mul, rr))
            star = ref.star_of(mul, r)
            for label, ss in corrupt_pair(f"from-brace-{name}", star, rng, swap_in_rows):
                qs.append(from_brace_query(st, label, mul, ss))
        for name in ("S3-op", "S4-op"):
            mul, r = seeded_brace(name, rng)
            base = library_brace(st, (mul, r))
            t = ref.canonical_twist(len(mul), r)
            k = rng.randrange(3)
            bad = tuple(swap_two(rng, x) if i == k else x for i, x in enumerate(t))
            for label, tt in ((f"twist-{name}", t), (f"twist-{name}~", bad)):
                qs.append(brace_twist_query(st, label, base, mul, r, tt))
        for name in ("S3", "z4-brace", "S4"):
            mul, r = seeded_brace(name, rng)
            pair = ref.self_pair(mul, r)
            group = st.FiniteGroup.from_table(mul)
            which = 2 + rng.randrange(2)
            bad = tuple(swap_in_rows(rng, x) if i == which else x for i, x in enumerate(pair))
            for label, pp in ((f"pair-{name}", pair), (f"pair-{name}~", bad)):
                qs.append(matched_pair_query(st, label, group, pp))
            p = st.check_matched_pair(group, group, pair[2], pair[3])
            theta = ref.canonical_theta(pair)
            rows = swap_two(rng, list(zip(*theta)))
            bad = (tuple(u for u, _ in rows), tuple(w for _, w in rows))
            for label, th in ((f"theta-{name}", theta), (f"theta-{name}~", bad)):
                qs.append(theta_query(st, label, p, pair, th))
        variants.append(qs)
    return Workload(variants)


def solution_query(st, label, n, r):
    def accept(sol):
        sigma, gamma, involutive, nondeg = ref.solution_summary(n, r)
        expect((sol.r.table, sol.sigma, sol.gamma, sol.involutive, sol.nondegenerate)
               == (r, sigma, gamma, involutive, nondeg), label, "wrong solution data")
    witness = functools.cache(lambda: ref.braid_first_failure(n, r))
    return verdict_query(
        st, label, lambda: st.check_solution(n, st.PairMap(n, r)),
        lambda: None if witness() is None else ("braid", witness()), accept)


def braided_group_query(st, label, mul, r):
    def accept(b):
        expect(b.r.table == r and b.star.mul == ref.star_of(mul, r), label, "wrong star group")
    return verdict_query(
        st, label,
        lambda: st.check_braided_group(st.FiniteGroup.from_table(mul), st.PairMap(len(mul), r)),
        functools.cache(lambda: ref.brace_first_failure(mul, r)), accept)


def from_brace_query(st, label, dot, star):
    def accept(b):
        expect(b.r.table == ref.braiding_from_brace(dot, star), label, "wrong braiding")
    return verdict_query(
        st, label,
        lambda: st.braiding_from_brace(st.FiniteGroup.from_table(dot),
                                       st.FiniteGroup.from_table(star)),
        functools.cache(lambda: ref.group_first_failure(star)), accept)


def report_query(st, label, call, want):
    """A verdict delivered as a TwistReport rather than an exception."""
    def check(o):
        if refused(st, o):
            return True
        expect(o.error is None, label, f"raised {o.error!r}")
        got = report_verdict(o.value)
        expect(got == want(), label, f"verdict {got}, expected {want()}")
        return False
    return Query(label, call, check)


def brace_twist_query(st, label, base, mul, r, t):
    n = len(mul)
    return report_query(
        st, label,
        lambda: st.verify_brace_twist(base, st.TwistTriple(
            st.PairMap(n, t[0]), st.TripleMap(n, t[1]), st.TripleMap(n, t[2]))),
        functools.cache(lambda: ref.twist_first_failure(n, r, t, mul)))


def matched_pair_query(st, label, group, pair):
    _, _, actl, actr = pair
    mul = group.mul

    def accept(p):
        expect((p.act_left, p.act_right) == (actl, actr), label, "wrong action tables")
    return verdict_query(
        st, label, lambda: st.check_matched_pair(group, group, actl, actr),
        functools.cache(lambda: ref.matched_pair_first_failure(mul, mul, actl, actr)), accept)


def theta_query(st, label, p, pair, theta):
    return report_query(
        st, label, lambda: st.check_theta(p, st.ThetaMap(len(pair[1]), len(pair[0]), *theta)),
        functools.cache(lambda: ref.theta_first_failure(pair, theta)))


# ------------------------------------------------------------------ streams

def stream_query(st, label, call, check_items):
    """A stream.  `check_items(items, completed)` checks what was streamed;
    a stream must give the same items every time it is run."""
    first = []

    def check(o):
        done = o.error is None
        if not done and not refused(st, o):
            raise WrongAnswer(f"{label}: raised {o.error!r}")
        if not first:
            check_items(o.items, done)
            first.append(o.items)
        else:
            expect(o.items == first[0], label, "stream differs from its previous run")
        return not done
    return Query(label, call, check, stream=True)


def library_brace(st, brace):
    mul, r = brace
    return st.check_braided_group(st.FiniteGroup.from_table(mul), st.PairMap(len(mul), r))


def twists_query(st, label, b1, b2, count, prefix=None, total=None):
    n = len(b1[0])
    lib1, lib2 = library_brace(st, b1), library_brace(st, b2)

    def call():
        stream = st.enumerate_brace_twists(lib1, lib2)
        return stream if prefix is None else itertools.islice(stream, prefix)

    def check_items(items, completed):
        tables = [(t.F.table, t.Phi.table, t.Psi.table) for t in items]
        expect(len(set(tables)) == len(tables), label, "repeated twist")
        if completed:
            expect(len(tables) == count, label, f"{len(tables)} twists, expected {count}")
        if total is not None:
            got = st.count_twists(lib1, lib2)
            expect(got == total, label, f"count_twists {got}, expected {total}")
        for t in tables:
            bad = ref.twist_first_failure(n, b1[1], t, b1[0])
            expect(bad is None, label, f"emitted twist fails {bad}")
            expect(ref.apply_brace_twist(n, b1[0], b1[1], t) == b2, label,
                   "twist does not map the first brace onto the second")

    return stream_query(st, label, call, check_items)


def build_twists(st, seed):
    variants = []
    for v in range(VARIANTS["twists"]):
        rng = rng_for(seed, "twists", v)
        qs = []
        for a, b, count in TWIST_COUNTS:
            # One relabelling for both braces: twists need a common carrier.
            b1 = BRACES[a]()
            p = permutation(rng, len(b1[0]))
            qs.append(twists_query(st, f"{a}->{b}", relabel_brace(b1, p),
                                   relabel_brace(BRACES[b](), p), count))
        for name, prefix, total in TWIST_PREFIXES:
            brace = seeded_brace(name, rng)
            qs.append(twists_query(st, f"{name}[:{prefix}]", brace, brace, prefix,
                                   prefix=prefix, total=total))
        variants.append(qs)
    return Workload(variants)


def build_thetas(st, seed):
    """Every distinct relabelled table of each structure with its identity
    at each listed label (at most three tables here), split into three
    rounds of a few seconds each.  Search time depends on the labelling, so
    a cycle covers them all and the seed only orders the queries; a seeded
    subset made op_p95_ms depend on the seed.  Short rounds keep the
    per-round speed rescaling in run_pass local."""
    rounds = {"Klein": [], "Z4": [], "z4-brace": [], "Z3": []}
    for name, positions in THETA_IDENTITY_AT.items():
        for e in positions:
            for brace in distinct_labellings(BRACES[name](), e):
                rounds[name].append(thetas_query(st, f"{name}@e={e}", brace,
                                                 THETA_COUNTS[name]))
    return Workload([rounds["Klein"], rounds["Z4"], rounds["z4-brace"] + rounds["Z3"]])


def distinct_labellings(brace, e):
    """Every distinct relabelling of `brace` that puts its identity at `e`."""
    old_e = ref.identity_of(brace[0])
    return list(dict.fromkeys(
        relabel_brace(brace, p) for p in itertools.permutations(range(len(brace[0])))
        if p[old_e] == e))


def thetas_query(st, label, brace, count):
    pair = ref.self_pair(*brace)
    lib_pair = st.pair_from_brace(library_brace(st, brace))

    def check_items(items, completed):
        maps = [(t.theta1, t.theta2) for t in items]
        expect(len(set(maps)) == len(maps), label, "repeated theta map")
        if completed:
            expect(len(maps) == count, label, f"{len(maps)} theta maps, expected {count}")
        for th in maps:
            bad = ref.theta_first_failure(pair, th)
            expect(bad is None, label, f"emitted theta map fails {bad}")
    return stream_query(st, label, lambda: st.enumerate_thetas(lib_pair, budget=THETA_BUDGET),
                        check_items)


# --------------------------------------------------------------------- cli

def cli_query(st, label, argv, code, out="", err="", env=None):
    """One in-process `skewtwist.cli.main(argv)`.  `out` is the exact stdout
    (or a function computing it); `err` the exact stderr, a 1-tuple holding
    its required prefix, or None when only the exit code is documented.  An
    exit code other than `code`, or an exception escaping main, is a failed
    op."""
    def call():
        saved = {k: os.environ.get(k) for k in env or {}}
        os.environ.update(env or {})
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    got = st.cli.main(argv)
                except SystemExit as exc:
                    got = exc.code
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return got, stdout.getvalue(), stderr.getvalue()

    def check(o):
        if o.error is not None or o.value[0] != code:
            return True
        _, got_out, got_err = o.value
        expect(got_out == (out() if callable(out) else out), label,
               "stdout differs from the expected canonical document")
        if isinstance(err, tuple):
            expect(got_err.startswith(err[0]), label, f"stderr {got_err!r}")
        elif err is not None:
            expect(got_err == err, label, f"stderr {got_err!r}, expected {err!r}")
        return False
    return Query(label, call, check)


def failing_copy(rng, table, fails):
    """A corrupted copy of `table` that the reference rejects."""
    while True:
        bad = swap_two(rng, table)
        if fails(bad):
            return bad


def build_cli(st, seed, workdir):
    variants = []
    for v in range(VARIANTS["cli"]):
        d = os.path.join(workdir, f"session{v}")
        os.makedirs(d, exist_ok=True)
        variants.append(cli_session(st, rng_for(seed, "cli", v), d))
    return Workload(variants, ordered=True)


def cli_session(st, rng, d):
    """gen -> verify -> twist/compose/invert -> classify -> enumerate and
    matched-pair commands, then tampered and malformed documents.  The
    input documents are written by the reference, byte-identical to what
    the preceding commands must print."""
    files = {}

    def put(name, text):
        files[name] = os.path.join(d, name)
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(text)

    zb, z4, kl = BRACES["z4-brace"](), BRACES["Z4"](), BRACES["Klein"]()
    s3 = BRACES["S3"]()
    n_flip = rng.choice((4, 5, 6))
    n_lyu = rng.choice((4, 5, 6))
    sigma, gamma = commuting_pair(rng, n_lyu)
    lyu = ref.lyubashenko(n_lyu, sigma, gamma)
    twists = ref.brace_twists(zb, z4)
    t = rng.choice(twists)[1]
    u = rng.choice(ref.brace_twists(z4, z4))[1]
    p = permutation(rng, 4)
    q = list(permutation(rng, 4))
    j = q.index(p[0])
    q[0], q[j] = q[j], q[0]
    src, tgt = ref.relabel_group(z4[0], p), ref.relabel_group(z4[0], tuple(q))
    pair = ref.self_pair(*zb)
    theta = ref.canonical_theta(pair)
    canon = ref.canonical_twist(4, zb[1])
    bad_r = failing_copy(rng, zb[1], lambda r: ref.brace_first_failure(zb[0], r))
    bad_phi = failing_copy(rng, t[1], lambda ph: ref.twist_first_failure(
        4, zb[1], (t[0], ph, t[2]), zb[0]))
    bad_brace_verdict = ref.brace_first_failure(zb[0], bad_r)
    bad_twist_verdict = ref.twist_first_failure(4, zb[1], (t[0], bad_phi, t[2]), zb[0])

    put("zb.json", ref.dumps(ref.brace_doc(*zb)))
    put("z4.json", ref.dumps(ref.brace_doc(*z4)))
    put("k.json", ref.dumps(ref.brace_doc(*kl)))
    put("lyu.json", ref.dumps(ref.solution_doc(n_lyu, lyu)))
    put("t.json", ref.dumps(ref.twist_doc(4, t)))
    put("u.json", ref.dumps(ref.twist_doc(4, u)))
    put("src.json", ref.dumps(ref.group_doc(src)))
    put("tgt.json", ref.dumps(ref.group_doc(tgt)))
    put("pair.json", ref.dumps(ref.pair_doc(pair)))
    put("theta.json", ref.dumps(ref.theta_doc(4, 4, theta)))
    put("zb-bad.json", ref.dumps(ref.brace_doc(zb[0], bad_r)))
    put("t-bad.json", ref.dumps(ref.twist_doc(4, (t[0], bad_phi, t[2]))))
    put("broken.json", "{not json")
    put("kind.json", ref.dumps({"kind": "nope"}))
    put("range.json", ref.dumps({"kind": "solution", "n": 2,
                                 "r": [[0, 0], [1, 5], [0, 1], [1, 1]]}))
    put("n-true.json", ref.dumps({"kind": "solution", "n": True, "r": [[0, 0]]}))

    f = files
    dumps = ref.dumps
    stream = lambda docs: "".join(map(dumps, docs)) + dumps(
        {"kind": "report", "count": len(docs)})
    qs = [
        cli_query(st, "gen z4-brace", ["gen", "z4-brace"], 0, dumps(ref.brace_doc(*zb))),
        cli_query(st, "gen cyclic", ["gen", "cyclic-trivial-brace", "4"], 0,
                  dumps(ref.brace_doc(*z4))),
        cli_query(st, "gen klein", ["gen", "klein-trivial-brace"], 0,
                  dumps(ref.brace_doc(*kl))),
        cli_query(st, "gen sym", ["gen", "sym-trivial-brace", "3"], 0,
                  dumps(ref.brace_doc(*s3))),
        cli_query(st, "gen flip", ["gen", "flip", str(n_flip)], 0,
                  dumps(ref.solution_doc(n_flip, ref.flip(n_flip)))),
        cli_query(st, "gen lyubashenko",
                  ["gen", "lyubashenko", str(n_lyu), cycle_notation(sigma),
                   cycle_notation(gamma)], 0, dumps(ref.solution_doc(n_lyu, lyu))),
        cli_query(st, "verify brace", ["verify", "--in", f["zb.json"]], 0, "",
                  "ok: valid brace\n"),
        cli_query(st, "verify solution", ["verify", "--in", f["lyu.json"]], 0, "",
                  "ok: valid solution\n"),
        cli_query(st, "enumerate twists",
                  ["enumerate", "twists", "--b1", f["zb.json"], "--b2", f["z4.json"]], 0,
                  lambda: stream([ref.twist_doc(4, tw) for _, tw in twists])),
        cli_query(st, "verify twist", ["verify", "--in", f["t.json"], "--base", f["zb.json"]],
                  0, "", "ok: valid twist\n"),
        cli_query(st, "twist", ["twist", "--base", f["zb.json"], "--twist", f["t.json"]], 0,
                  dumps(ref.brace_doc(*z4)), "ok: twist applied\n"),
        cli_query(st, "invert", ["invert", "--twist", f["t.json"], "--base", f["zb.json"]], 0,
                  lambda: dumps(ref.twist_doc(4, ref.invert_twist(4, t)))),
        cli_query(st, "compose", ["compose", "--outer", f["u.json"], "--inner", f["t.json"],
                                  "--base", f["zb.json"]], 0,
                  lambda: dumps(ref.twist_doc(4, ref.compose_twists(4, u, t)))),
        cli_query(st, "classify z4-brace/Z4",
                  ["classify", "--b1", f["zb.json"], "--b2", f["z4.json"]], 0,
                  functools.cache(lambda: dumps(ref.classify_doc(zb, z4)))),
        cli_query(st, "classify Klein/Klein",
                  ["classify", "--b1", f["k.json"], "--b2", f["k.json"]], 0,
                  functools.cache(lambda: dumps(ref.classify_doc(kl, kl)))),
        cli_query(st, "enumerate families",
                  ["enumerate", "families", "--src", f["src.json"], "--tgt", f["tgt.json"]],
                  0, functools.cache(lambda: stream(
                      [ref.family_doc(src, tgt, m) for m in ref.families(src, tgt)]))),
        cli_query(st, "matched-check", ["matched-check", "--in", f["pair.json"]], 0,
                  dumps(ref.pair_doc(pair)), "ok: valid matched pair\n"),
        cli_query(st, "theta-apply",
                  ["theta-apply", "--pair", f["pair.json"], "--theta", f["theta.json"],
                   "--base", f["zb.json"]], 0, dumps(ref.twist_doc(4, canon))),
        cli_query(st, "theta-apply --apply",
                  ["theta-apply", "--pair", f["pair.json"], "--theta", f["theta.json"],
                   "--base", f["zb.json"], "--apply"], 0,
                  dumps(ref.brace_doc(*ref.apply_brace_twist(4, zb[0], zb[1], canon)))),
        cli_query(st, "enumerate thetas over budget",
                  ["enumerate", "thetas", "--pair", f["pair.json"], "--budget", "10"], 3, "",
                  "error: theta enumeration exceeded budget of 10\n"),
        cli_query(st, "verify tampered brace", ["verify", "--in", f["zb-bad.json"]], 1, "",
                  "error: axiom {} fails at {}\n".format(*bad_brace_verdict)),
        cli_query(st, "verify tampered twist",
                  ["verify", "--in", f["t-bad.json"], "--base", f["zb.json"]], 1, "",
                  "FAIL {} at {}\n".format(*bad_twist_verdict)),
        cli_query(st, "malformed json", ["verify", "--in", f["broken.json"]], 2, "",
                  ("error: invalid JSON: ",)),
        cli_query(st, "unknown kind", ["verify", "--in", f["kind.json"]], 2, "",
                  "error: unknown document kind: 'nope'\n"),
        cli_query(st, "entry out of range", ["verify", "--in", f["range.json"]], 2, "",
                  "error: pair table entry out of range\n"),
        # Known defects, documented to exit 2: a non-integer budget in the
        # environment raises ValueError, and `"n": true` is accepted.
        cli_query(st, "bad SKEWTWIST_BUDGET", ["enumerate", "thetas", "--pair", f["pair.json"]],
                  2, "", None, env={"SKEWTWIST_BUDGET": "abc"}),
        cli_query(st, "n is true", ["verify", "--in", f["n-true.json"]], 2, "", None),
    ]
    return qs


BUILDERS = {"verify": build_verify, "twists": build_twists, "thetas": build_thetas,
            "cli": build_cli}
