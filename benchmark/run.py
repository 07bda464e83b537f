"""stripgain benchmark: CLI verbs called in-process on seeded model files.

    python3 benchmark/run.py --workload {sec5,ss-large,tf-small} --seed N \
        --seconds S --trace {0,1} [--inputs-only]

Run from the repository root.  One closed-loop caller repeats the
workload's round of operations until S seconds have passed, always
finishing the round it is in.  A first, untimed round warms caches and is
judged operation by operation against the independent reference
(checker.py); a later call counts as checked when its output is
byte-identical to the judged one, and is judged afresh otherwise.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (tracing.py).  The last stdout line is the JSON result.  Model
files, --out tables and a copy of the result go to
benchmark/results/<workload>-seed<N>/; --inputs-only writes the inputs there
and stops.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("sec5", "ss-large", "tf-small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs-only", action="store_true")
    return ap.parse_args(argv)


def load_program():
    """Import stripgain from this checkout's src/, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "stripgain", "cli.py")):
        raise SystemExit("benchmark: no stripgain sources under %s" % SRC)
    sys.path.insert(0, SRC)
    from stripgain import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("benchmark: imported stripgain from %s" % cli.__file__)
    return cli


def make_caller(cli, checker):
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 3
            except Exception:
                rc = -1
                err.write(traceback.format_exc())
        return checker.Outcome(rc, out.getvalue(), err.getvalue())

    return call


def digest(outcome) -> str:
    h = hashlib.sha256()
    h.update(repr(outcome.rc).encode())
    h.update(outcome.stdout.encode())
    return h.hexdigest()


def measure_setup(workdir, ops) -> float:
    """Median over SETUP_REPEATS fresh processes of import + warm-up time."""
    seen, warmups = set(), []
    for op in ops:
        if op.argv[0] not in seen:
            seen.add(op.argv[0])
            warmups.append(op.argv)
    path = os.path.join(workdir, "warmups.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(warmups, fh)
    probe = os.path.join(HERE, "setup_probe.py")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "STRIPGAIN_THREADS")}
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, probe, SRC, path], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit("benchmark: set-up probe failed:\n" + proc.stderr)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("benchmark: --seconds must be positive")
    os.chdir(ROOT)
    os.environ.pop("STRIPGAIN_THREADS", None)
    cli = load_program()
    sys.path.insert(0, HERE)
    import checker
    import inputs

    workdir = os.path.join(os.path.relpath(HERE, ROOT), "results",
                           "%s-seed%d" % (args.workload, args.seed))
    inp, ops = inputs.build(args.workload, args.seed, workdir)
    if args.inputs_only:
        print(workdir)
        return 0
    setup_s = measure_setup(workdir, ops) if args.trace == 0 else None

    call = make_caller(cli, checker)
    judge = checker.Checker(inp.models)

    # Round 0: untimed; warms caches and judges every operation.
    verdict, first = {}, {}
    problems_seen = {}
    for op in ops:
        oc = call(op.argv)
        first[op.name] = digest(oc)
        problems = judge.check(op, oc)
        verdict[op.name] = not problems
        if problems:
            problems_seen[op.name] = problems

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        timed_call = lambda a: tracer.verb(call, a)  # noqa: E731
    else:
        timed_call = call

    latencies, round_s, failed = [], [], 0
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            oc = timed_call(op.argv)
            latencies.append(time.perf_counter() - t0)
            if digest(oc) == first[op.name]:
                ok = verdict[op.name]
            else:
                problems = judge.check(op, oc)
                ok = not problems
                if problems:
                    problems_seen.setdefault(op.name, problems)
            if not ok:
                failed += 1
                if op.known_fault is None:
                    problems_seen.setdefault(op.name, ["failed in a timed round"])
        now = time.perf_counter()
        round_s.append(now - t_round)
        if now - t_start >= args.seconds:
            break
    rounds = len(round_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    fault_of = {op.name: op.known_fault for op in ops}
    unexpected = [n for n in problems_seen if fault_of[n] is None]
    for name in sorted(problems_seen):
        fault = fault_of[name]
        sys.stderr.write("%s %s: %s\n" % (fault or "UNEXPECTED", name,
                                          "; ".join(problems_seen[name])[:400]))
    # Rounds are identical, so the median round time is the steadiest
    # measure of throughput on a machine whose speed drifts during a run.
    ops_per_s = len(ops) / statistics.median(round_s)
    if tracer is None:
        ms = sorted(1000.0 * x for x in latencies)
        deciles = statistics.quantiles(ms, n=10)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "op_p90_ms": {"value": deciles[8], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = tracer.report(rounds)
        sys.stderr.write("traced ops_per_s %.6g\n" % ops_per_s)
    result = {
        "correct": not unexpected,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": metrics,
    }
    per_op_ms = {op.name: 1000.0 * statistics.median(latencies[k::len(ops)])
                 for k, op in enumerate(ops)}
    detail = dict(result, rounds=rounds, ops_per_round=len(ops), round_s=round_s,
                  per_op_ms=per_op_ms,
                  ops_per_s=ops_per_s,
                  failures={n: problems_seen[n] for n in sorted(problems_seen)})
    with open(os.path.join(workdir, "result-trace%d.json" % args.trace), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
