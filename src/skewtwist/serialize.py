"""JSON document encoding/decoding for every structure the CLI handles.

Documents are plain dicts with a "kind" discriminator; elements are
integers, pair tables are row-major lists of [a, b], triple tables
row-major lists of [a, b, c].  Serialization is canonical: sorted keys, no
whitespace, one trailing newline, so round trips are byte-identical.
"""

from __future__ import annotations

import json
from typing import Any

from .braces import BraidedGroup, check_braided_group
from .classification import IsoFamily, make_iso_family
from .errors import DocumentError
from .groups import FiniteGroup
from .matched import MatchedPair, ThetaMap, check_matched_pair
from .solutions import TwistTriple, YbeSolution, check_solution
from .tables import PairMap, Table, TripleMap, _codec


def canonical_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _rows(t: Table) -> list[list[int]]:
    """The rows of a pair or triple table: the decoded image of each point."""
    return list(map(list, map(_codec(t.n, t.arity)[0].__getitem__, t.table)))


def _is_element(v: Any, n: int) -> bool:
    """An integer in 0..n-1.  JSON true/false load as bool, a subclass of
    int, so the type is compared exactly."""
    return type(v) is int and 0 <= v < n


def _count_text(count: int, formula: str) -> str:
    """count in decimal, or formula when count has more digits than Python
    converts to text (sys.get_int_max_str_digits)."""
    try:
        return str(count)
    except ValueError:
        return formula


def _read_table(cls, n: int, rows: Any):
    """A PairMap or TripleMap from its rows of cls.arity elements."""
    kind, arity = cls.kind, cls.arity
    if not isinstance(rows, list) or len(rows) != n ** arity:
        raise DocumentError(f"{kind} table must have {_count_text(n ** arity, f'n^{arity}')} rows")
    for row in rows:
        if not isinstance(row, list) or len(row) != arity:
            raise DocumentError(f"{kind} table rows must be [{', '.join('abc'[:arity])}]")
        if not all(_is_element(v, n) for v in row):
            raise DocumentError(f"{kind} table entry out of range")
    codes = _codec(n, arity)[1]
    return cls(n, tuple(codes[tuple(row)] for row in rows))


def _read_rows(n: int, m: int, rows: Any, bound: int, what: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(rows, list) or len(rows) != n:
        raise DocumentError(f"{what} must have {n} rows")
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != m:
            raise DocumentError(f"{what} rows must have {m} entries")
        if not all(_is_element(v, bound) for v in row):
            raise DocumentError(f"{what} entry out of range")
        out.append(tuple(row))
    return tuple(out)


def _read_n(doc: dict, key: str = "n") -> int:
    n = doc.get(key)
    if type(n) is not int or n < 1:
        raise DocumentError(f"missing or invalid {key!r}")
    return n


def solution_to_doc(sol: YbeSolution) -> dict:
    return {"kind": "solution", "n": sol.n, "r": _rows(sol.r)}


def group_to_doc(g: FiniteGroup) -> dict:
    return {"kind": "group", "n": g.n, "mul": [list(row) for row in g.mul]}


def brace_to_doc(b: BraidedGroup) -> dict:
    return {
        "kind": "brace",
        "n": b.n,
        "mul": [list(row) for row in b.group.mul],
        "r": _rows(b.r),
    }


def twist_to_doc(t: TwistTriple) -> dict:
    return {
        "kind": "twist",
        "n": t.n,
        "f": _rows(t.F),
        "phi": _rows(t.Phi),
        "psi": _rows(t.Psi),
    }


def family_to_doc(fam: IsoFamily) -> dict:
    return {
        "kind": "family",
        "n": fam.n,
        "source": [list(row) for row in fam.source.mul],
        "target": [list(row) for row in fam.target.mul],
        "maps": [list(m) for m in fam.maps],
    }


def matched_pair_to_doc(p: MatchedPair) -> dict:
    return {
        "kind": "matched-pair",
        "nplus": p.gplus.n,
        "nminus": p.gminus.n,
        "gplus": [list(row) for row in p.gplus.mul],
        "gminus": [list(row) for row in p.gminus.mul],
        "actl": [list(row) for row in p.act_left],
        "actr": [list(row) for row in p.act_right],
    }


def theta_to_doc(theta: ThetaMap) -> dict:
    rows = [
        [theta.theta1[i], theta.theta2[i]] for i in range(theta.nminus * theta.nminus)
    ]
    return {"kind": "theta", "nminus": theta.nminus, "nplus": theta.nplus, "theta": rows}


def doc_to_solution(doc: dict) -> YbeSolution:
    n = _read_n(doc)
    return check_solution(n, _read_table(PairMap, n, doc.get("r")))


def doc_to_group(doc: dict) -> FiniteGroup:
    n = _read_n(doc)
    rows = _read_rows(n, n, doc.get("mul"), n, "mul")
    return FiniteGroup.from_table(rows)


def doc_to_brace(doc: dict) -> BraidedGroup:
    n = _read_n(doc)
    group = FiniteGroup.from_table(_read_rows(n, n, doc.get("mul"), n, "mul"))
    return check_braided_group(group, _read_table(PairMap, n, doc.get("r")))


def doc_to_twist(doc: dict) -> TwistTriple:
    n = _read_n(doc)
    return TwistTriple(
        _read_table(PairMap, n, doc.get("f")),
        _read_table(TripleMap, n, doc.get("phi")),
        _read_table(TripleMap, n, doc.get("psi")),
    )


def doc_to_family(doc: dict) -> IsoFamily:
    n = _read_n(doc)
    source = FiniteGroup.from_table(_read_rows(n, n, doc.get("source"), n, "source"))
    target = FiniteGroup.from_table(_read_rows(n, n, doc.get("target"), n, "target"))
    maps = _read_rows(n, n, doc.get("maps"), n, "maps")
    return make_iso_family(source, target, maps)


def doc_to_matched_pair(doc: dict) -> MatchedPair:
    np_ = _read_n(doc, "nplus")
    nm = _read_n(doc, "nminus")
    gplus = FiniteGroup.from_table(_read_rows(np_, np_, doc.get("gplus"), np_, "gplus"))
    gminus = FiniteGroup.from_table(_read_rows(nm, nm, doc.get("gminus"), nm, "gminus"))
    actl = _read_rows(np_, nm, doc.get("actl"), nm, "actl")
    actr = _read_rows(np_, nm, doc.get("actr"), np_, "actr")
    return check_matched_pair(gplus, gminus, actl, actr)


def doc_to_theta(doc: dict) -> ThetaMap:
    nm = _read_n(doc, "nminus")
    np_ = _read_n(doc, "nplus")
    rows = doc.get("theta")
    if not isinstance(rows, list) or len(rows) != nm * nm:
        raise DocumentError(f"theta table must have {_count_text(nm * nm, 'nminus^2')} rows")
    t1, t2 = [], []
    for row in rows:
        if not isinstance(row, list) or len(row) != 2:
            raise DocumentError("theta rows must be [u, v]")
        u, v = row
        if not all(_is_element(x, np_) for x in (u, v)):
            raise DocumentError("theta entry out of range")
        t1.append(u)
        t2.append(v)
    return ThetaMap(nm, np_, tuple(t1), tuple(t2))


_LOADERS = {
    "solution": doc_to_solution,
    "group": doc_to_group,
    "brace": doc_to_brace,
    "twist": doc_to_twist,
    "family": doc_to_family,
    "matched-pair": doc_to_matched_pair,
    "theta": doc_to_theta,
}


def load_document(doc: dict):
    """Dispatch on 'kind'; the payload is validated by its module's checker."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("kind")
    if kind == "report":
        return doc
    loader = _LOADERS.get(kind)
    if loader is None:
        raise DocumentError(f"unknown document kind: {kind!r}")
    return loader(doc)


def parse_document(text: str) -> dict:
    # ValueError covers JSONDecodeError and an integer too long to convert;
    # RecursionError, a document nested too deeply.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    return doc
