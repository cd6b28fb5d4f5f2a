"""The benchmark's own tests: every workload prints every declared metric,
and a tampered answer makes the checker fail the run.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
st = run.import_library()


def query(workload, label, *extra):
    built = workloads.BUILDERS[workload](st, 7, *extra)
    return next(q for qs in built.variants for q in qs if q.label == label)


def check(q):
    outcome, _ = run.execute(q, workloads.Outcome)
    return q.check(outcome)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_twist_count_off_by_one_is_caught(monkeypatch):
    q = query("twists", "Klein->Klein")
    real = st.enumerate_brace_twists
    monkeypatch.setattr(st, "enumerate_brace_twists", lambda b1, b2: list(real(b1, b2))[:-1])
    with pytest.raises(workloads.WrongAnswer, match="47 twists, expected 48"):
        check(q)


def test_theta_count_off_by_one_is_caught(monkeypatch):
    q = query("thetas", "Z3@e=1")
    real = st.enumerate_thetas
    monkeypatch.setattr(st, "enumerate_thetas", lambda p, budget: list(real(p, budget))[1:])
    with pytest.raises(workloads.WrongAnswer, match="26 theta maps"):
        check(q)


def test_moved_witness_is_caught(monkeypatch):
    q = query("verify", "flip8~")
    real = st.check_solution

    def moved(n, r):
        try:
            return real(n, r)
        except st.BraidFails as exc:
            x, y, z = exc.witness
            raise st.BraidFails((x, y, (z + 1) % n)) from None
    monkeypatch.setattr(st, "check_solution", moved)
    with pytest.raises(workloads.WrongAnswer, match="verdict"):
        check(q)


def test_accepting_a_corrupted_twist_is_caught(monkeypatch):
    q = query("verify", "twist-S3-op~")
    monkeypatch.setattr(st, "verify_brace_twist", lambda b, t: st.TwistReport(True))
    with pytest.raises(workloads.WrongAnswer):
        check(q)


def test_cli_output_byte_change_is_caught(monkeypatch, tmp_path):
    q = query("cli", "classify z4-brace/Z4", str(tmp_path))
    real = st.cli.canonical_dumps
    monkeypatch.setattr(st.cli, "canonical_dumps", lambda doc: real(doc).replace(",", ", ", 1))
    with pytest.raises(workloads.WrongAnswer, match="stdout"):
        check(q)


def test_refused_and_crashing_ops_count_as_failed(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise st.TooLarge("budget")
        yield
    monkeypatch.setattr(st, "enumerate_thetas", refuse)
    assert check(query("thetas", "Z3@e=0")) is True
    # The known defect: a non-integer SKEWTWIST_BUDGET crashes instead of exiting 2.
    assert check(query("cli", "bad SKEWTWIST_BUDGET", str(tmp_path))) is True
    assert check(query("cli", "gen z4-brace", str(tmp_path))) is False


def test_wrong_answer_aborts_the_run(monkeypatch, capsys):
    monkeypatch.setattr(st, "check_theta", functools.partial(st.TwistReport, True))
    assert run.main(["--workload", "verify", "--seed", "1", "--seconds", "0.1"]) == 1
    assert "wrong answer" in capsys.readouterr().err


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
