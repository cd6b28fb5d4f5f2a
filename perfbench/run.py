"""skewtwist benchmark: one closed-loop client driving the library in-process.

    python3 perfbench/run.py --workload {verify,twists,thetas,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else.  A single client issues queries back
to back (a closed loop, one process, one thread) in whole rounds until the
time spent inside queries reaches ``--seconds``.  An op is one item handed
back: a verdict, one streamed result, the end-of-stream marker, or one CLI
invocation; its latency runs from the query's start or its previous item.
Latencies and ops_per_s are rescaled to a fixed speed of a reference job
timed between queries, which cancels the host's drift (see run_pass).
Every answer is checked against the independent code in ``oracle.py``; a wrong
answer aborts the run with exit code 1 and no result line.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
rounds once untraced and once with spans around every call into the nine
library modules and prints the per-layer metrics.  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# Op latencies are rescaled to a host on which reference_seconds() takes
# this long; see run_pass.
REFERENCE_S = 0.001

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p95_ms": "ms",
    "first_op_p50_ms": "ms", "peak_rss_mb": "MB",
}


def import_library():
    """Import skewtwist from this checkout's src/, never from elsewhere."""
    if not (SRC / "skewtwist" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'skewtwist'} not found; run from a skewtwist checkout")
    sys.path.insert(0, str(SRC))
    import skewtwist
    import skewtwist.cli  # noqa: F401  (queries call skewtwist.cli.main)
    if Path(skewtwist.__file__).resolve().parent != SRC / "skewtwist":
        sys.exit(f"perfbench: imported skewtwist from {skewtwist.__file__}, not {SRC}")
    return skewtwist


class Pass:
    """Op latencies and counts of one timed pass.  `busy` is wall time spent
    inside queries; latencies and `scaled_busy` are rescaled (see run_pass)."""

    def __init__(self):
        self.latencies = []
        self.first = []
        self.reference = []
        self.ops = self.failed = self.results = self.rounds = 0
        self.busy = self.scaled_busy = 0.0


def reference_seconds():
    """Time a fixed pure-Python job shaped like the library's table work
    (tuple composition, inversion through a dict), with the collector off
    so that the program's heap cannot slow it down."""
    gc.disable()
    try:
        start = time.perf_counter()
        t = tuple((7 * i + 3) % 144 for i in range(144))
        for _ in range(40):
            t = tuple(t[i] for i in t)
            inv = {v: i for i, v in enumerate(t)}
            sum(inv[v] for v in range(144))
        return time.perf_counter() - start
    finally:
        gc.enable()


def execute(query, Outcome):
    """Run one query, timing each op.  Returns (outcome, latencies)."""
    clock = time.perf_counter
    outcome = Outcome()
    lat = []
    start = prev = clock()
    try:
        if query.stream:
            it = iter(query.call())
            while True:
                try:
                    item = next(it)
                except StopIteration:
                    lat.append(clock() - prev)
                    break
                now = clock()
                lat.append(now - prev)
                prev = now
                outcome.items.append(item)
        else:
            outcome.value = query.call()
            lat.append(clock() - start)
    except Exception as exc:  # the check decides whether this is an answer
        lat.append(clock() - prev)
        outcome.error = exc
    return outcome, lat


def run_pass(workload, seed, Outcome, seconds=None, rounds=None, tracer=None):
    """Run `rounds` rounds, or else whole cycles through every variant until
    the time spent inside queries reaches `seconds`.

    The shared host's speed drifts by a third and more over tens of seconds,
    far beyond the bounds, so a fixed reference job runs after every query
    and each round's latencies are multiplied by REFERENCE_S over the
    round's median reference time: a round that ran on a slowed host is
    scaled back.  The reference never calls the library, so the program's
    own speed still shows in full."""
    p = Pass()
    gc.collect()
    qid = 0
    while True:
        queries = list(workload.variants[p.rounds % len(workload.variants)])
        if not workload.ordered:
            random.Random(f"{seed}:order:{p.rounds}").shuffle(queries)
        round_lat, refs = [], []
        for q in queries:
            if tracer is not None:
                tracer.query, tracer.active = qid, True
            outcome, lat = execute(q, Outcome)
            if tracer is not None:
                tracer.active = False
            qid += 1
            p.failed += bool(q.check(outcome))
            p.ops += len(lat)
            p.results += len(outcome.items) if q.stream else 1
            p.busy += sum(lat)
            round_lat.append(lat)
            refs.append(reference_seconds())
        scale = REFERENCE_S / statistics.median(refs)
        p.reference.extend(refs)
        for lat in round_lat:
            p.latencies.extend(x * scale for x in lat)
            p.first.append(lat[0] * scale)
            p.scaled_busy += sum(lat) * scale
        p.rounds += 1
        if rounds is not None:
            if p.rounds >= rounds:
                return p
        elif p.busy >= seconds and p.rounds % len(workload.variants) == 0:
            return p


def setup_probe_seconds(args):
    """Wall time from spawning a fresh interpreter until it is ready to send
    its first query (imports and input generation), median of a few."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {code})")
        samples.append(ready - start)
    return statistics.median(samples)


def end_to_end_metrics(p, setup_s):
    ms = [x * 1000.0 for x in p.latencies]
    return {
        "setup_s": setup_s,
        "ops_per_s": p.ops / p.scaled_busy,
        "op_p50_ms": statistics.median(ms),
        "op_p95_ms": statistics.quantiles(ms, n=100, method="inclusive")[94],
        "first_op_p50_ms": statistics.median(x * 1000.0 for x in p.first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, plain, traced):
    """Layer and function metrics from the traced pass, with units."""
    layers, func_self = tracer.layer_metrics()
    calls = tracer.calls
    summed = lambda prefix: sum(v for k, v in calls.items() if k.startswith(prefix))
    out = {}
    for name, value in layers.items():
        out[name] = (value, "count" if name.endswith(".calls") else "s")
    out.update({
        "tables.from_callable.calls": (calls.get("tables.from_callable", 0), "count"),
        "tables.from_callable.self_s": (func_self.get("tables.from_callable", 0.0), "s"),
        "tables.lift.calls": (summed("tables.lift_"), "count"),
        "tables.compose.calls": (summed("tables.compose_"), "count"),
        "tables.first_difference.calls": (summed("tables.first_"), "count"),
        "tables.entries_built": (tracer.counters["tables.entries_built"], "count"),
        "groups.from_table.calls": (calls.get("groups.from_table", 0), "count"),
        "groups.enumerate_isomorphisms.self_s":
            (func_self.get("groups.enumerate_isomorphisms", 0.0), "s"),
        "groups.isomorphisms_yielded": (tracer.counters["groups.isomorphisms_yielded"], "count"),
        "solutions.check_solution.self_s": (func_self.get("solutions.check_solution", 0.0), "s"),
        "solutions.verify_twist.calls": (calls.get("solutions.verify_twist", 0), "count"),
        "braces.check_braided_group.self_s":
            (func_self.get("braces.check_braided_group", 0.0), "s"),
        "braces.verify_brace_twist.calls": (calls.get("braces.verify_brace_twist", 0), "count"),
        "classification.twist_from_family.calls":
            (calls.get("classification.twist_from_family", 0), "count"),
        "matched.enumerate_thetas.self_s": (func_self.get("matched.enumerate_thetas", 0.0), "s"),
        "matched.check_theta.calls": (calls.get("matched.check_theta", 0), "count"),
        "serialize.bytes_in": (tracer.counters["serialize.bytes_in"], "bytes"),
        "serialize.bytes_out": (tracer.counters["serialize.bytes_out"], "bytes"),
        "serialize.canonical_dumps.self_s":
            (func_self.get("serialize.canonical_dumps", 0.0), "s"),
        "serialize.parse_document.self_s": (func_self.get("serialize.parse_document", 0.0), "s"),
        "cli.main.calls": (calls.get("cli.main", 0), "count"),
        "verifications_per_result": (
            (calls.get("solutions.verify_twist", 0) + calls.get("braces.verify_brace_twist", 0))
            / max(traced.results, 1), "ratio"),
        "entries_per_op": (tracer.counters["tables.entries_built"] / traced.ops, "ratio"),
        "trace_overhead_frac": (traced.scaled_busy / plain.scaled_busy - 1.0, "ratio"),
        "fail_frac": (plain.failed / plain.ops, "ratio"),
    })
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify", "twists", "thetas", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    st = import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from tracer import Tracer

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        builder = workloads.BUILDERS[args.workload]
        extra = (workdir,) if args.workload == "cli" else ()
        workload = builder(st, args.seed, *extra)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        setup_s = None if args.trace else setup_probe_seconds(args)
        try:
            plain = run_pass(workload, args.seed, workloads.Outcome,
                             seconds=args.seconds / (2 if args.trace else 1))
            if args.trace:
                tracer = Tracer()
                tracer.install()
                try:
                    traced = run_pass(workload, args.seed, workloads.Outcome,
                                      rounds=plain.rounds, tracer=tracer)
                finally:
                    tracer.remove()
        except workloads.WrongAnswer as exc:
            print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            metrics = per_layer_metrics(tracer, plain, traced)
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        else:
            metrics = {k: (v, END_TO_END[k]) for k, v in
                       end_to_end_metrics(plain, setup_s).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  rounds {plain.rounds}  "
          f"ops {plain.ops}  failed {plain.failed}  "
          f"fail_frac {plain.failed / plain.ops:.6f}  timed {plain.busy:.2f} s  "
          f"unscaled ops/s {plain.ops / plain.busy:.6g}  "
          f"reference median {statistics.median(plain.reference) * 1000:.4f} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": plain.ops,
        "failed": plain.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
