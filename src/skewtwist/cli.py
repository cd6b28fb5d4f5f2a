"""Command-line interface.

Exit codes: 0 success; on a SkewtwistError, the exit_code of its class
(1 axiom violation, 2 format error, 3 enumeration budget exceeded); 2 on an
I/O error.  A negative budget, from --budget or SKEWTWIST_BUDGET, exits 2.

`main()` may be called repeatedly in one process: the parser is built once,
on first use, and holds no per-call state; SKEWTWIST_BUDGET is read on every
call and fills the budget wherever --budget is not given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import errors
from .braces import (
    BraidedGroup,
    _twisted_brace,
    apply_brace_twist,
    compose_brace_twists,
    invert_brace_twist,
    verify_brace_twist,
)
from .classification import (
    _family_twists,
    anytwist_f_matches,
    are_twist_related,
    count_families,
    count_twists,
    enumerate_brace_twists,
    enumerate_families,
    theta_canonical_twist,
)
from .generators import gen
from .groups import FiniteGroup
from .matched import DEFAULT_THETA_BUDGET, MatchedPair, ThetaMap, enumerate_thetas, triple_from_theta
from .serialize import (
    brace_to_doc,
    canonical_dumps,
    family_to_doc,
    load_document,
    matched_pair_to_doc,
    parse_document,
    solution_to_doc,
    theta_to_doc,
    twist_to_doc,
)
from .solutions import (
    TwistTriple,
    YbeSolution,
    apply_twist,
    brute_force_twists,
    compose_twists,
    invert_twist,
    verify_twist,
)


def _read_doc(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise errors.DocumentError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_document(text)


def _load(path: str | None, cls, flag: str):
    """The document named by an input flag, which must be given and load as a cls."""
    if path is None:
        raise errors.DocumentError(f"{flag} is required")
    obj = load_document(_read_doc(path))
    if not isinstance(obj, cls):
        raise errors.DocumentError(f"{flag} must be a {cls.__name__} document")
    return obj


def _on_base(base, on_brace, on_solution):
    """Dispatch on a brace or a solution: a --base document, or what gen and
    twist write."""
    if isinstance(base, BraidedGroup):
        return on_brace(base)
    if isinstance(base, YbeSolution):
        return on_solution(base)
    raise errors.DocumentError("--base must be a solution or brace document")


def _write(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_gen(args) -> int:
    obj = gen(args.name, args.params, args.budget)
    _write(canonical_dumps(_on_base(obj, brace_to_doc, solution_to_doc)), args.out)
    return 0


def cmd_verify(args) -> int:
    doc = _read_doc(args.infile)
    obj = load_document(doc)  # raises on invalid payload
    kind = doc.get("kind")
    if kind == "twist":
        if args.base is None:
            raise errors.DocumentError("verifying a twist requires --base")
        base = _load(args.base, object, "--base")
        report = _on_base(base, lambda b: verify_brace_twist(b, obj), lambda s: verify_twist(s, obj))
        if not report:
            print(f"FAIL {report.axiom} at {report.witness}", file=sys.stderr)
            return 1
    print(f"ok: valid {kind}", file=sys.stderr)
    return 0


def cmd_twist(args) -> int:
    base = _load(args.base, object, "--base")
    twist = _load(args.twist, TwistTriple, "--twist")
    result = _on_base(base, lambda b: apply_brace_twist(b, twist), lambda s: apply_twist(s, twist))
    _write(canonical_dumps(_on_base(result, brace_to_doc, solution_to_doc)), args.out)
    print("ok: twist applied", file=sys.stderr)
    return 0


def cmd_compose(args) -> int:
    outer = _load(args.outer, TwistTriple, "--outer")
    inner = _load(args.inner, TwistTriple, "--inner")
    base = _load(args.base, object, "--base")
    result = _on_base(
        base,
        lambda b: compose_brace_twists(outer, inner, b),
        lambda s: compose_twists(outer, inner, s),
    )
    _write(canonical_dumps(twist_to_doc(result)), args.out)
    return 0


def cmd_invert(args) -> int:
    twist = _load(args.twist, TwistTriple, "--twist")
    base = _load(args.base, object, "--base")
    result = _on_base(base, lambda b: invert_brace_twist(twist, b), lambda s: invert_twist(twist, s))
    _write(canonical_dumps(twist_to_doc(result)), args.out)
    return 0


def _emit_stream(items, out: str | None) -> int:
    lines = []
    count = 0
    for doc in items:
        lines.append(canonical_dumps(doc))
        count += 1
    lines.append(canonical_dumps({"kind": "report", "count": count}))
    _write("".join(lines), out)
    return 0


def _check_count(what: str, count: int, budget: int) -> None:
    """Refuse an enumeration whose size, known up front, exceeds the budget."""
    if count > budget:
        raise errors.TooLarge(f"{what} enumeration of {count} items exceeded budget of {budget}")


def cmd_enumerate(args) -> int:
    budget = args.budget
    if args.what == "twists":
        b1 = _load(args.b1, BraidedGroup, "--b1")
        b2 = _load(args.b2, BraidedGroup, "--b2")
        _check_count("twist", count_twists(b1, b2), budget)
        return _emit_stream(
            (twist_to_doc(t) for t in enumerate_brace_twists(b1, b2)), args.out
        )
    if args.what == "families":
        src = _load(args.src, FiniteGroup, "--src")
        tgt = _load(args.tgt, FiniteGroup, "--tgt")
        _check_count("family", count_families(src, tgt), budget)
        return _emit_stream(
            (family_to_doc(f) for f in enumerate_families(src, tgt)), args.out
        )
    if args.what == "thetas":
        pair = _load(args.pair, MatchedPair, "--pair")
        return _emit_stream(
            (theta_to_doc(t) for t in enumerate_thetas(pair, budget=budget)), args.out
        )
    # "brute": argparse's choices admit no other target.
    sol = _load(args.solution, YbeSolution, "--solution")
    return _emit_stream((twist_to_doc(t) for t in brute_force_twists(sol)), args.out)


# Every twist entry of a classify report carries the same decomposition.  The
# entries hold this sentinel instead, which no other value of a report can
# equal, and the decomposition is encoded once and spliced in for it; compact
# key-sorted JSON encodes each value independently of its context.
_DECOMPOSITION = "\0decomposition"
_DECOMPOSITION_JSON = json.dumps(_DECOMPOSITION)


def cmd_classify(args) -> int:
    b1 = _load(args.b1, BraidedGroup, "--b1")
    b2 = _load(args.b2, BraidedGroup, "--b2")
    related = are_twist_related(b1, b2)
    twists = []
    decomposition = ""
    if related:
        _check_count("twist", count_twists(b1, b2), args.budget)
        decomposition = canonical_dumps({
            "theta1": twist_to_doc(theta_canonical_twist(b1)),
            "theta2": twist_to_doc(theta_canonical_twist(b2)),
        })[:-1]
        for fam, twist in _family_twists(b1, b2):
            twists.append(
                {
                    "family_maps": [list(m) for m in fam.maps],
                    "anytwist_f_ok": anytwist_f_matches(b1, b2, fam, twist),
                    "twist": twist_to_doc(twist),
                    "decomposition": _DECOMPOSITION,
                }
            )
    report = {
        "kind": "report",
        "related": related,
        "count": len(twists),
        "twists": twists,
    }
    _write(canonical_dumps(report).replace(_DECOMPOSITION_JSON, decomposition), args.out)
    return 0


def cmd_matched_check(args) -> int:
    pair = _load(args.infile, MatchedPair, "--in")
    print("ok: valid matched pair", file=sys.stderr)
    _write(canonical_dumps(matched_pair_to_doc(pair)), args.out)
    return 0


def cmd_theta_apply(args) -> int:
    pair = _load(args.pair, MatchedPair, "--pair")
    theta = _load(args.theta, ThetaMap, "--theta")
    base = _load(args.base, BraidedGroup, "--base")
    triple = triple_from_theta(pair, theta, base)
    if args.apply:
        _write(canonical_dumps(brace_to_doc(_twisted_brace(base, triple))), args.out)
    else:
        _write(canonical_dumps(twist_to_doc(triple)), args.out)
    return 0


def _env_budget() -> int:
    raw = os.environ.get("SKEWTWIST_BUDGET")
    if raw is None:
        return DEFAULT_THETA_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise errors.BadParams(
            f"SKEWTWIST_BUDGET must be an integer, got {raw!r}"
        ) from None
    if budget < 0:
        raise errors.BadParams(f"SKEWTWIST_BUDGET must be non-negative, got {raw!r}")
    return budget


def _budget_arg(raw: str) -> int:
    """The type of --budget: a non-negative integer, else a usage error."""
    try:
        budget = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {raw!r}")
    return budget


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every main() call.
    A budget parses to None unless --budget gives it; main fills it in."""
    parser = argparse.ArgumentParser(
        prog="skewtwist",
        description="Verify, twist, enumerate and classify finite YBE solutions and skew braces.",
    )
    parser.set_defaults(budget=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named structure")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="validate a document")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--base", default=None, help="base solution/brace when verifying a twist")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("twist", help="apply a twist to a solution or brace")
    p.add_argument("--base", required=True)
    p.add_argument("--twist", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("compose", help="compose two twists over a base")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("invert", help="invert a twist over its base")
    p.add_argument("--twist", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("enumerate", help="stream twists, families or thetas")
    p.add_argument("what", choices=["twists", "families", "thetas", "brute"])
    p.add_argument("--b1")
    p.add_argument("--b2")
    p.add_argument("--src")
    p.add_argument("--tgt")
    p.add_argument("--pair")
    p.add_argument("--solution")
    p.add_argument("--budget", type=_budget_arg)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("classify", help="twist-relatedness report for two braces")
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("matched-check", help="validate a matched pair")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_matched_check)

    p = sub.add_parser("theta-apply", help="build (and optionally apply) the twist of a theta map")
    p.add_argument("--pair", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--apply", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_theta_apply)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        budget = _env_budget()  # a bad value exits 2 before argparse runs
        args = build_parser().parse_args(argv)
        if args.budget is None:
            args.budget = budget
        return args.fn(args)
    except errors.SkewtwistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
