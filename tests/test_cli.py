"""CLI contract: document round trips, streaming output, exit codes."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

from skewtwist.cli import main
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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "s4.json"
    code, out, err = run(capsys, "gen", "s4-solution", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert text.endswith("\n")
    doc = parse_document(text)
    sol = doc_to_solution(doc)
    # canonical serialization round-trips byte-identically
    assert canonical_dumps(solution_to_doc(sol)) == text
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 0
    assert "ok" in err


def test_gen_unknown_generator(capsys):
    code, out, err = run(capsys, "gen", "no-such-thing")
    assert code == 2
    assert "unknown generator" in err


def test_gen_bad_params(capsys):
    code, out, err = run(capsys, "gen", "flip")
    assert code == 2


@pytest.mark.parametrize(
    "argv, label",
    [
        (["flip", "216"], "flip on 216"),
        (["lyubashenko", "1000", "(0 1)", "id"], "lyubashenko on 1000"),
        (["cyclic-trivial-brace", "100000"], "cyclic-trivial-brace on 100000"),
        (["sym-trivial-brace", "7"], "sym-trivial-brace on 7!"),
        (["sym-trivial-brace", "1000000"], "sym-trivial-brace on 1000000!"),
    ],
)
def test_gen_refuses_oversized_universes(capsys, argv, label):
    # n^3 > 10^7, the default budget: refused before any table is built.
    code, out, err = run(capsys, "gen", *argv)
    assert (code, out) == (3, "")
    assert err == f"error: {label} elements exceeds the budget of 10000000 triple-table entries\n"


@pytest.mark.parametrize("cycles", ["(0 1)(0 1)", "(0 1)(1 0)", "(0 1 2)(0 1 2)", "(0 1)(2 1)"])
def test_gen_refuses_cycles_sharing_an_element(capsys, cycles):
    for sigma, gamma in ((cycles, "id"), ("id", cycles)):
        code, out, err = run(capsys, "gen", "lyubashenko", "3", sigma, gamma)
        assert (code, out) == (2, "")
        assert err == f"error: cycles overlap in {cycles!r}\n"


def test_gen_size_guard_follows_the_budget(capsys, monkeypatch):
    monkeypatch.setenv("SKEWTWIST_BUDGET", "27")
    code, out, err = run(capsys, "gen", "flip", "3")
    assert code == 0 and out.startswith('{"kind":"solution","n":3')
    code, out, err = run(capsys, "gen", "sym-trivial-brace", "3")
    assert (code, out, err) == (
        3, "", "error: sym-trivial-brace on 3! elements exceeds the budget of 27 triple-table entries\n"
    )
    monkeypatch.setenv("SKEWTWIST_BUDGET", "26")
    code, out, err = run(capsys, "gen", "flip", "3")
    assert (code, out) == (3, "")
    assert err.startswith("error: flip on 3 elements exceeds the budget of 26")


def test_verify_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "data, message",
    [
        (b"[" * 100000, "error: invalid JSON: maximum recursion depth exceeded"),
        (b"\xff\xfe{", "is not UTF-8 text: "),
    ],
    ids=["deeply-nested", "not-utf8"],
)
def test_verify_rejects_unreadable_documents(tmp_path, capsys, data, message):
    # Deeply nested JSON and bytes that are not UTF-8 are format errors.
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_overlong_json_integer_exits_2(tmp_path, capsys):
    # json.loads refuses an integer of more than 4300 digits with a plain
    # ValueError (on interpreters that limit int conversion); either way the
    # document is a format error, never a traceback.
    path = tmp_path / "big.json"
    path.write_text('{"kind":"solution","n":' + "1" * 5000 + ',"r":[]}')
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"kind":"solution","n":%s,"r":[]}', "error: pair table must have "),
        ('{"kind":"twist","n":%s,"f":[],"phi":[],"psi":[]}', "error: pair table must have "),
        ('{"kind":"theta","nminus":%s,"nplus":2,"theta":[]}', "error: theta table must have "),
    ],
    ids=["solution", "twist", "theta"],
)
def test_row_count_of_a_huge_size_exits_2(tmp_path, capsys, doc, message):
    # A 3000-digit size parses, but its square has more digits than Python
    # converts to text on interpreters that limit int conversion; the row
    # count message still comes out as one line.
    path = tmp_path / "big.json"
    path.write_text(doc % ("1" * 3000))
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.endswith(" rows\n") and err.count("\n") == 1


def test_format_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_verify_rejects_axiom_violation(tmp_path, capsys):
    # bijective pair table that is not a braiding: 3-cycle on encoded pairs
    doc = {"kind": "solution", "n": 2, "r": [[0, 1], [1, 0], [0, 0], [1, 1]]}
    path = tmp_path / "notbraid.json"
    path.write_text(canonical_dumps(doc))
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 1


def test_verify_missing_file(capsys):
    code, out, err = run(capsys, "verify", "--in", "/nonexistent/file.json")
    assert code == 2


def test_twist_apply_and_invert(tmp_path, capsys):
    base = tmp_path / "z4.json"
    run(capsys, "gen", "z4-brace", "--out", str(base))
    # produce the canonical twist via theta-apply on the brace's own pair
    import skewtwist as st

    b = st.z4_brace()
    t = st.theta_canonical_twist(b)
    twist_path = tmp_path / "twist.json"
    twist_path.write_text(canonical_dumps(twist_to_doc(t)))

    out_path = tmp_path / "trivial.json"
    code, out, err = run(
        capsys, "twist", "--base", str(base), "--twist", str(twist_path), "--out", str(out_path)
    )
    assert code == 0
    twisted = doc_to_brace(parse_document(out_path.read_text()))
    assert twisted.is_trivial()

    inv_path = tmp_path / "inv.json"
    code, out, err = run(
        capsys, "invert", "--twist", str(twist_path), "--base", str(base), "--out", str(inv_path)
    )
    assert code == 0
    inv = doc_to_twist(parse_document(inv_path.read_text()))
    assert inv == st.invert_brace_twist(t, b)

    # compose the inverse (outer) with the twist (inner): identity
    comp_path = tmp_path / "comp.json"
    code, out, err = run(
        capsys,
        "compose",
        "--outer", str(inv_path),
        "--inner", str(twist_path),
        "--base", str(base),
        "--out", str(comp_path),
    )
    assert code == 0
    comp = doc_to_twist(parse_document(comp_path.read_text()))
    assert comp == st.TwistTriple.identity(4)


def test_verify_twist_against_base(tmp_path, capsys):
    import skewtwist as st

    base = tmp_path / "z4.json"
    run(capsys, "gen", "z4-brace", "--out", str(base))
    b = st.z4_brace()
    good = tmp_path / "good.json"
    good.write_text(canonical_dumps(twist_to_doc(st.theta_canonical_twist(b))))
    code, out, err = run(capsys, "verify", "--in", str(good), "--base", str(base))
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(
        canonical_dumps(twist_to_doc(st.kappa_twist(st.flip_solution(4), (1, 0, 3, 2))))
    )
    code, out, err = run(capsys, "verify", "--in", str(bad), "--base", str(base))
    assert code == 1


def test_enumerate_twists_stream(tmp_path, capsys):
    b1 = tmp_path / "z4brace.json"
    b2 = tmp_path / "trivial.json"
    run(capsys, "gen", "z4-brace", "--out", str(b1))
    run(capsys, "gen", "cyclic-trivial-brace", "4", "--out", str(b2))
    code, out, err = run(capsys, "enumerate", "twists", "--b1", str(b1), "--b2", str(b2))
    assert code == 0
    lines = out.strip().split("\n")
    summary = json.loads(lines[-1])
    assert summary == {"count": 4, "kind": "report"}
    assert len(lines) == 5
    for line in lines[:-1]:
        doc = json.loads(line)
        assert doc["kind"] == "twist"
        doc_to_twist(doc)  # parses and validates shape


def test_enumerate_families_stream(tmp_path, capsys):
    import skewtwist as st
    from skewtwist.serialize import group_to_doc

    g = tmp_path / "klein.json"
    g.write_text(canonical_dumps(group_to_doc(st.klein())))
    code, out, err = run(capsys, "enumerate", "families", "--src", str(g), "--tgt", str(g))
    assert code == 0
    lines = out.strip().split("\n")
    assert json.loads(lines[-1])["count"] == 48


def test_enumerate_thetas_budget_exit_code(tmp_path, capsys):
    import skewtwist as st
    from skewtwist.matched import pair_from_brace
    from skewtwist.serialize import matched_pair_to_doc

    p = pair_from_brace(st.trivial_brace(st.cyclic(4)))
    pair = tmp_path / "pair.json"
    pair.write_text(canonical_dumps(matched_pair_to_doc(p)))
    code, out, err = run(capsys, "enumerate", "thetas", "--pair", str(pair), "--budget", "10")
    assert code == 3
    code, out, err = run(capsys, "enumerate", "thetas", "--pair", str(pair))
    assert code == 0
    lines = out.strip().split("\n")
    assert json.loads(lines[-1])["count"] == 256


def test_enumerate_twists_and_families_honour_the_budget(tmp_path, capsys):
    import skewtwist as st
    from skewtwist.groups import direct_product
    from skewtwist.serialize import group_to_doc

    # The trivial brace on Z2^3 has 168 * 24^7 = 770,527,199,232 twists.
    z2_cubed = direct_product(st.cyclic(2), st.klein())
    brace = tmp_path / "z2cubed.json"
    brace.write_text(canonical_dumps(brace_to_doc(st.trivial_brace(z2_cubed))))
    group = tmp_path / "z2cubed-group.json"
    group.write_text(canonical_dumps(group_to_doc(z2_cubed)))
    code, out, err = run(capsys, "enumerate", "twists", "--b1", str(brace), "--b2", str(brace),
                         "--budget", "10")
    assert (code, out) == (3, "")
    assert err == "error: twist enumeration of 770527199232 items exceeded budget of 10\n"
    code, out, err = run(capsys, "enumerate", "families", "--src", str(group), "--tgt", str(group),
                         "--budget", "10")
    assert (code, out) == (3, "")
    assert err == "error: family enumeration of 770527199232 items exceeded budget of 10\n"
    # the budget bounds the count: Klein has 48 families and 48 twists
    klein = tmp_path / "klein.json"
    klein.write_text(canonical_dumps(group_to_doc(st.klein())))
    kb = tmp_path / "klein-brace.json"
    run(capsys, "gen", "klein-trivial-brace", "--out", str(kb))
    for argv in (["families", "--src", str(klein), "--tgt", str(klein)],
                 ["twists", "--b1", str(kb), "--b2", str(kb)]):
        code, out, err = run(capsys, "enumerate", *argv, "--budget", "47")
        assert (code, out) == (3, "")
        code, out, err = run(capsys, "enumerate", *argv, "--budget", "48")
        assert code == 0
        assert json.loads(out.strip().split("\n")[-1]) == {"count": 48, "kind": "report"}


def test_classify_honours_the_budget(tmp_path, capsys, monkeypatch):
    import skewtwist as st
    from skewtwist.groups import direct_product

    brace = tmp_path / "z2cubed.json"
    brace.write_text(canonical_dumps(brace_to_doc(
        st.trivial_brace(direct_product(st.cyclic(2), st.klein())))))
    monkeypatch.setenv("SKEWTWIST_BUDGET", "10")
    code, out, err = run(capsys, "classify", "--b1", str(brace), "--b2", str(brace))
    assert (code, out) == (3, "")
    assert err == "error: twist enumeration of 770527199232 items exceeded budget of 10\n"
    # Klein has 48 twists: refused at a budget of 47, reported at 48.
    kb = tmp_path / "klein-brace.json"
    run(capsys, "gen", "klein-trivial-brace", "--out", str(kb))
    monkeypatch.setenv("SKEWTWIST_BUDGET", "47")
    code, out, err = run(capsys, "classify", "--b1", str(kb), "--b2", str(kb))
    assert (code, out) == (3, "")
    monkeypatch.setenv("SKEWTWIST_BUDGET", "48")
    code, out, err = run(capsys, "classify", "--b1", str(kb), "--b2", str(kb))
    assert code == 0 and json.loads(out)["count"] == 48
    # the warm parser reads the environment on every call
    monkeypatch.delenv("SKEWTWIST_BUDGET")
    assert run(capsys, "classify", "--b1", str(kb), "--b2", str(kb))[0] == 0
    # an explicit --budget beats it
    monkeypatch.setenv("SKEWTWIST_BUDGET", "1")
    assert run(capsys, "enumerate", "twists", "--b1", str(kb), "--b2", str(kb), "--budget", "48")[0] == 0


def test_classify_report(tmp_path, capsys):
    b1 = tmp_path / "z4brace.json"
    b2 = tmp_path / "trivial.json"
    run(capsys, "gen", "z4-brace", "--out", str(b1))
    run(capsys, "gen", "cyclic-trivial-brace", "4", "--out", str(b2))
    code, out, err = run(capsys, "classify", "--b1", str(b1), "--b2", str(b2))
    assert code == 0
    report = json.loads(out)
    assert report["related"] is True
    assert report["count"] == 4
    assert all(entry["anytwist_f_ok"] for entry in report["twists"])
    # unrelated pair
    b3 = tmp_path / "klein.json"
    run(capsys, "gen", "klein-trivial-brace", "--out", str(b3))
    code, out, err = run(capsys, "classify", "--b1", str(b2), "--b2", str(b3))
    assert code == 0
    report = json.loads(out)
    assert report["related"] is False
    assert report["count"] == 0


def test_classify_related_with_no_twist_on_the_labels(tmp_path, capsys):
    # Z4 against Z4 with 1 and 2 exchanged: the additive groups are isomorphic,
    # but no isomorphism fixes 1 on these labels, so there is no twist.
    import skewtwist as st

    p = (0, 2, 1, 3)
    swapped = st.FiniteGroup.from_table([[p[(p[x] + p[y]) % 4] for y in range(4)] for x in range(4)])
    b1, b2 = tmp_path / "z4.json", tmp_path / "z4-swapped.json"
    b1.write_text(canonical_dumps(brace_to_doc(st.trivial_brace(st.cyclic(4)))))
    b2.write_text(canonical_dumps(brace_to_doc(st.trivial_brace(swapped))))
    code, out, err = run(capsys, "classify", "--b1", str(b1), "--b2", str(b2))
    assert (code, out, err) == (0, '{"count":0,"kind":"report","related":true,"twists":[]}\n', "")


def test_matched_check_and_theta_apply(tmp_path, capsys):
    import skewtwist as st
    from skewtwist.matched import ThetaMap, pair_from_brace
    from skewtwist.serialize import matched_pair_to_doc, theta_to_doc

    b = st.z4_brace()
    p = pair_from_brace(b)
    pair = tmp_path / "pair.json"
    pair.write_text(canonical_dumps(matched_pair_to_doc(p)))
    code, out, err = run(capsys, "matched-check", "--in", str(pair))
    assert code == 0
    assert "ok" in err

    base = tmp_path / "z4.json"
    base.write_text(canonical_dumps(brace_to_doc(b)))
    theta = tmp_path / "theta.json"
    theta.write_text(canonical_dumps(theta_to_doc(ThetaMap.canonical(p))))
    out_path = tmp_path / "twist.json"
    code, out, err = run(
        capsys, "theta-apply", "--pair", str(pair), "--theta", str(theta),
        "--base", str(base), "--out", str(out_path),
    )
    assert code == 0
    t = doc_to_twist(parse_document(out_path.read_text()))
    assert t == st.theta_canonical_twist(b)

    code, out, err = run(
        capsys, "theta-apply", "--pair", str(pair), "--theta", str(theta),
        "--base", str(base), "--apply",
    )
    assert code == 0
    twisted = doc_to_brace(parse_document(out))
    assert twisted.is_trivial()


def test_stdin_stdout(tmp_path, capsys, monkeypatch):
    import io

    doc = canonical_dumps({"kind": "solution", "n": 2, "r": [[0, 0], [1, 0], [0, 1], [1, 1]]})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, "verify", "--in", "-")
    assert code == 0


def test_all_generators_roundtrip(tmp_path, capsys):
    cases = [
        ("s4-solution",),
        ("flip", "3"),
        ("lyubashenko", "3", "(0 1 2)", "(0 2 1)"),
        ("cyclic-trivial-brace", "5"),
        ("klein-trivial-brace",),
        ("sym-trivial-brace", "3"),
        ("z4-brace",),
    ]
    for case in cases:
        code, out, err = run(capsys, "gen", *case)
        assert code == 0
        doc = parse_document(out)
        from skewtwist.serialize import load_document

        obj = load_document(doc)
        # re-serializing is byte-identical
        if doc["kind"] == "solution":
            assert canonical_dumps(solution_to_doc(obj)) == out
        else:
            assert canonical_dumps(brace_to_doc(obj)) == out


def test_non_integer_budget_environment_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SKEWTWIST_BUDGET", "abc")
    code, out, err = run(capsys, "gen", "z4-brace")
    assert (code, out) == (2, "")
    assert err == "error: SKEWTWIST_BUDGET must be an integer, got 'abc'\n"
    # an integer value is the default --budget
    import skewtwist as st
    from skewtwist.matched import pair_from_brace
    from skewtwist.serialize import matched_pair_to_doc

    pair = tmp_path / "pair.json"
    pair.write_text(canonical_dumps(matched_pair_to_doc(pair_from_brace(st.z4_brace()))))
    monkeypatch.setenv("SKEWTWIST_BUDGET", "10")
    code, out, err = run(capsys, "enumerate", "thetas", "--pair", str(pair))
    assert code == 3
    # the environment is checked even where --budget overrides it
    monkeypatch.setenv("SKEWTWIST_BUDGET", "abc")
    assert run(capsys, "enumerate", "thetas", "--pair", str(pair), "--budget", "5") == (
        2, "", "error: SKEWTWIST_BUDGET must be an integer, got 'abc'\n"
    )


def _z4_and_klein_braces(tmp_path):
    import skewtwist as st

    paths = []
    for name, group in (("z4", st.cyclic(4)), ("klein", st.klein())):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(canonical_dumps(brace_to_doc(st.trivial_brace(group))))
    return [str(path) for path in paths]


def test_negative_budget_is_a_bad_parameter(tmp_path, capsys, monkeypatch):
    z4, klein = _z4_and_klein_braces(tmp_path)
    argv = ["enumerate", "twists", "--b1", z4, "--b2", klein]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--budget", "-1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: skewtwist enumerate ")
    assert err.endswith("\nskewtwist enumerate: error: argument --budget: must be non-negative, got '-1'\n")
    monkeypatch.setenv("SKEWTWIST_BUDGET", "-1")
    for command in (["gen", "flip", "3"], argv):
        assert run(capsys, *command) == (2, "", "error: SKEWTWIST_BUDGET must be non-negative, got '-1'\n")
    # a budget of 0 stays valid: Z4 -> Klein has no twist
    monkeypatch.setenv("SKEWTWIST_BUDGET", "0")
    for budget in ([], ["--budget", "0"]):
        assert run(capsys, *argv, *budget) == (0, '{"count":0,"kind":"report"}\n', "")


def test_one_parser_per_process(tmp_path, capsys, monkeypatch):
    from skewtwist import cli

    z4, klein = _z4_and_klein_braces(tmp_path)
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    cli.build_parser()
    assert len(built) == 10  # the top-level parser and its 9 subcommands
    cli.build_parser.cache_clear()
    built.clear()
    assert run(capsys, "gen", "z4-brace")[0] == 0
    assert run(capsys, "verify", "--in", z4)[0] == 0
    assert run(capsys, "classify", "--b1", z4, "--b2", klein)[0] == 0
    assert run(capsys, "enumerate", "twists", "--b1", z4, "--b2", z4)[0] == 0
    with pytest.raises(SystemExit):
        main(["theta-apply"])
    assert len(built) == 10


def test_importing_the_cli_builds_no_parser():
    import skewtwist

    code = (
        "import argparse\n"
        "built = []\n"
        "real_init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    real_init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import skewtwist.cli\n"
        "print(len(built))\n"
    )
    src = str(pathlib.Path(skewtwist.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def _documents_with_a_one():
    """(document, key whose rows hold an entry equal to 1, --base document)
    for each integer position a document reader checks."""
    import skewtwist as st
    from skewtwist.matched import ThetaMap, pair_from_brace
    from skewtwist.serialize import group_to_doc, matched_pair_to_doc, theta_to_doc

    b = st.z4_brace()
    p = pair_from_brace(b)
    return {
        "pair-table": (solution_to_doc(st.flip_solution(2)), "r", None),
        "triple-table": (twist_to_doc(st.theta_canonical_twist(b)), "phi", brace_to_doc(b)),
        "theta-row": (theta_to_doc(ThetaMap.canonical(p)), "theta", None),
        "action-left": (matched_pair_to_doc(p), "actl", None),
        "action-right": (matched_pair_to_doc(p), "actr", None),
        "mul": (group_to_doc(st.cyclic(3)), "mul", None),
    }


def _verify_doc(tmp_path, capsys, doc, base):
    path = tmp_path / "doc.json"
    path.write_text(canonical_dumps(doc))
    argv = ["verify", "--in", str(path)]
    if base is not None:
        base_path = tmp_path / "base.json"
        base_path.write_text(canonical_dumps(base))
        argv += ["--base", str(base_path)]
    return run(capsys, *argv)


@pytest.mark.parametrize(
    "position",
    ["pair-table", "triple-table", "theta-row", "action-left", "action-right", "mul"],
)
def test_json_boolean_table_entry_exits_2(tmp_path, capsys, position):
    doc, key, base = _documents_with_a_one()[position]
    assert _verify_doc(tmp_path, capsys, doc, base)[0] == 0
    row = next(row for row in doc[key] if 1 in row)
    row[row.index(1)] = True  # equal to 1 in Python, but not a JSON integer
    code, out, err = _verify_doc(tmp_path, capsys, doc, base)
    assert code == 2
    assert err.startswith("error: ") and "out of range" in err


@pytest.mark.parametrize("key", ["n", "nminus", "nplus"])
def test_json_boolean_size_exits_2(tmp_path, capsys, key):
    import skewtwist as st
    from skewtwist.matched import ThetaMap, pair_from_brace
    from skewtwist.serialize import theta_to_doc

    if key == "n":
        doc = solution_to_doc(st.flip_solution(1))
    else:
        doc = theta_to_doc(ThetaMap.canonical(pair_from_brace(st.trivial_brace(st.cyclic(1)))))
    assert _verify_doc(tmp_path, capsys, doc, None)[0] == 0
    doc[key] = True
    code, out, err = _verify_doc(tmp_path, capsys, doc, None)
    assert code == 2
    assert err == f"error: missing or invalid {key!r}\n"


_PAIRS = [[x, y] for x in range(2) for y in range(2)]
_TRIPLES = [[x, y, z] for x in range(2) for y in range(2) for z in range(2)]


@pytest.mark.parametrize(
    "key, rows, message",
    [
        ("f", _PAIRS[:3], "pair table must have 4 rows"),
        ("f", _PAIRS[:3] + [[1]], "pair table rows must be [a, b]"),
        ("f", _PAIRS[:3] + [[1, 2]], "pair table entry out of range"),
        ("phi", _TRIPLES[:7], "triple table must have 8 rows"),
        ("phi", _TRIPLES[:7] + [[1, 1]], "triple table rows must be [a, b, c]"),
        ("psi", _TRIPLES[:7] + [[1, 1, -1]], "triple table entry out of range"),
    ],
)
def test_table_row_errors_are_exact(tmp_path, capsys, key, rows, message):
    # Pair and triple tables share one reader; each keeps its own wording.
    doc = {"kind": "twist", "n": 2, "f": _PAIRS, "phi": _TRIPLES, "psi": _TRIPLES, key: rows}
    path = tmp_path / "t.json"
    path.write_text(canonical_dumps(doc))
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "what, flag", [("twists", "--b1"), ("families", "--src"), ("thetas", "--pair"), ("brute", "--solution")]
)
def test_enumerate_without_its_input_flag_exits_2(capsys, what, flag):
    assert run(capsys, "enumerate", what) == (2, "", f"error: {flag} is required\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["twist", "--base", "b.json", "--twist", "b.json"], "--twist"),
        (["compose", "--outer", "b.json", "--inner", "t.json", "--base", "b.json"], "--outer"),
        (["compose", "--outer", "t.json", "--inner", "b.json", "--base", "b.json"], "--inner"),
        (["invert", "--twist", "b.json", "--base", "b.json"], "--twist"),
    ],
)
def test_twist_inputs_of_another_kind_exit_2(tmp_path, capsys, monkeypatch, argv, flag):
    import skewtwist as st

    b = st.z4_brace()
    (tmp_path / "b.json").write_text(canonical_dumps(brace_to_doc(b)))
    (tmp_path / "t.json").write_text(canonical_dumps(twist_to_doc(st.theta_canonical_twist(b))))
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"error: {flag} must be a TwistTriple document\n")


# The exit code of every error class, written out: 2 for malformed input,
# 3 for work over budget, 1 for an axiom violation.
EXIT_CODES = {
    "DocumentError": 2,
    "UnknownGenerator": 2,
    "BadParams": 2,
    "SizeMismatch": 2,
    "TooLarge": 3,
    "AxiomFails": 1,
    "BraidFails": 1,
    "Degenerate": 1,
    "InvalidFamily": 1,
    "InvalidTheta": 1,
    "InvalidTwist": 1,
    "NonCommuting": 1,
    "NotABrace": 1,
    "NotBijective": 1,
    "NotClassifiable": 1,
    "ShapeMismatch": 1,
}


def _error_classes():
    from skewtwist import errors

    return sorted(
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.SkewtwistError) and obj is not errors.SkewtwistError
    )


def test_exit_code_table_names_only_error_classes():
    assert sorted(EXIT_CODES) == _error_classes()


@pytest.mark.parametrize("name", _error_classes())
def test_each_error_class_exits_with_its_code(capsys, monkeypatch, name):
    from skewtwist import cli, errors

    exc = getattr(errors, name)("boom")  # BraidFails and AxiomFails take a witness or axiom

    def raising(*args):
        raise exc

    monkeypatch.setattr(cli, "gen", raising)
    code, out, err = run(capsys, "gen", "z4-brace")
    assert code == EXIT_CODES[name]  # a class missing from the table fails here
    assert (out, err) == ("", f"error: {exc}\n")


def _theta_apply_argv(tmp_path, theta2=None):
    """theta-apply arguments for the z4-brace self-pair and its canonical Theta,
    with theta2 replaced when given."""
    import skewtwist as st
    from skewtwist.matched import ThetaMap, pair_from_brace
    from skewtwist.serialize import matched_pair_to_doc, theta_to_doc

    b = st.z4_brace()
    p = pair_from_brace(b)
    theta = ThetaMap.canonical(p)
    if theta2 is not None:
        theta = ThetaMap(theta.nminus, theta.nplus, theta.theta1, theta2)
    docs = {"pair": matched_pair_to_doc(p), "theta": theta_to_doc(theta), "base": brace_to_doc(b)}
    argv = ["theta-apply"]
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_dumps(doc))
        argv += [f"--{name}", str(path)]
    return argv, b, p, theta


@pytest.mark.parametrize("apply", [False, True])
def test_theta_apply_builds_f_theta_once(tmp_path, capsys, monkeypatch, apply):
    from skewtwist import matched

    calls = []
    build = matched.f_theta

    def counted(p, theta):
        calls.append(theta)
        return build(p, theta)

    monkeypatch.setattr(matched, "f_theta", counted)
    argv, *_ = _theta_apply_argv(tmp_path)
    code, out, err = run(capsys, *argv, *(["--apply"] if apply else []))
    assert code == 0
    assert len(calls) == 1


def test_theta_apply_verifies_the_induced_triple_once(tmp_path, capsys, monkeypatch):
    import skewtwist as st
    from skewtwist import braces, matched

    calls = []
    verify = braces.verify_brace_twist

    def counted(b, t):
        calls.append(t)
        return verify(b, t)

    monkeypatch.setattr(braces, "verify_brace_twist", counted)
    monkeypatch.setattr(matched, "verify_brace_twist", counted)
    argv, b, p, theta = _theta_apply_argv(tmp_path)
    code, out, err = run(capsys, *argv, "--apply")
    assert code == 0
    assert len(calls) == 1
    monkeypatch.undo()
    # The output is the checked application of the induced triple.
    twisted = st.apply_brace_twist(b, st.triple_from_theta(p, theta, b))
    assert out == canonical_dumps(brace_to_doc(twisted))


def test_theta_apply_refuses_a_theta_failing_a_cocycle_condition(tmp_path, capsys):
    # Theta_2(1, 0) = 0 instead of 1 breaks theta-2 at (1, 0, 1); the units hold.
    theta2 = (0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3)
    argv = _theta_apply_argv(tmp_path, theta2)[0]
    for extra in ([], ["--apply"]):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (1, "")
        assert "theta-2 fails at (1, 0, 1)" in err
