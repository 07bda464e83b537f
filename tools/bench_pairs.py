"""Time two stripgain checkouts against each other in alternating benchmark runs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N [--seconds S]

PARENT and CHANGE are checkout roots (each with benchmark/run.py and
src/stripgain).  Pair k (k = 0, 1, ...) runs ``benchmark/run.py --workload W
--seed k+1 --seconds S --trace 0`` once from each checkout, each in a fresh
subprocess with the checkout as its working directory; the parent goes
first in even pairs and the change in odd ones, so a machine that drifts
between slow and fast phases burdens both sides alike.  Both runs of a pair
use the same seed.  S defaults to BENCHMARK.json's run_seconds.

Each metric of BENCHMARK.json's end_to_end list (read from this checkout) is
summarised by each side's median and quartiles (statistics.quantiles, n=4),
the change's wins, losses and ties over the pairs, and its median change in
the metric's worse direction, relative to the parent's median.  The
verdict follows the benchmark's rules:

- ``better everywhere``: every change run reads better than every parent run;
- ``unresolved``: the quartile distance of either side, relative to its
  median, exceeds the metric's bound;
- ``worse beyond bound`` / ``within bound``: the median change against the
  bound otherwise.

``gain`` is true when the change wins at least nine tenths of the pairs,
the medians differ by more than the parent's quartile distance, and the
change fails no more operations over all pairs than the parent.

After the pairs, each checkout makes one traced run (``--trace 1``) at seed 1
for S seconds, the parent first.  Its per-layer metrics (tracing.py) are
call counts, points and bytes per round, which repeat exactly from run to
run, so they back up the timings; the self times beside them are only as
steady as the machine.

The pairs, the failed and attempted operations of every run, the summary and
the two traced runs' per-layer metrics are written to BENCH_<W>.json in the
current directory, and two tables are printed: the end-to-end metrics, and
the per-layer metrics other than times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv, run_seconds: float):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=run_seconds)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be >= 1 and --seconds positive")
    return args


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The JSON result line of one benchmark run of a checkout."""
    script = os.path.join(os.path.abspath(checkout), "benchmark", "run.py")
    if not os.path.isfile(script):
        raise SystemExit("bench_pairs: no benchmark/run.py under %s" % checkout)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=os.path.dirname(os.path.dirname(script)), env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("bench_pairs: %s failed:\n%s" % (" ".join(cmd), proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarise(metric: dict, parent: list, change: list, fails_more: bool) -> dict:
    """Medians, quartiles, wins and verdict of one metric over the pairs;
    fails_more (the change failed more operations) rules out a gain."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    a, b = spread(parent), spread(change)
    worse = sign * (b["median"] - a["median"]) / abs(a["median"])
    widest = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (a, b))
    if max(sign * c for c in change) < min(sign * p for p in parent):
        verdict = "better everywhere"
    elif widest > metric["bound"]:
        verdict = "unresolved"
    else:
        verdict = "worse beyond bound" if worse > metric["bound"] else "within bound"
    gain = (not fails_more and wins >= 0.9 * len(parent)
            and abs(b["median"] - a["median"]) > a["q3"] - a["q1"])
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": a, "change": b, "median_worse_by": worse, "widest_spread": widest,
            "change_wins": wins, "parent_wins": losses, "ties": len(parent) - wins - losses,
            "verdict": verdict, "gain": gain}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    args = parse_args(argv, bench["run_seconds"])
    pairs = []
    for k in range(args.pairs):
        seed = k + 1
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            pair[side] = run_once(checkout, args.workload, seed, args.seconds)
        pairs.append(pair)
        sys.stderr.write("pair %d/%d (seed %d) done\n" % (k + 1, args.pairs, seed))
    failed = {side: [sum(p[side][key] for p in pairs) for key in ("failed", "attempted")]
              for side in ("parent", "change")}
    fails_more = failed["change"][0] > failed["parent"][0]
    summary = {}
    for m in bench["end_to_end"]:
        values = {side: [p[side]["metrics"][m["name"]]["value"] for p in pairs]
                  for side in ("parent", "change")}
        summary[m["name"]] = summarise(m, values["parent"], values["change"], fails_more)
    traced = {"seed": 1}
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        traced[side] = run_once(checkout, args.workload, 1, args.seconds, trace=1)["metrics"]
    sys.stderr.write("traced runs done\n")
    report = {"workload": args.workload, "seconds": args.seconds,
              "failed_of_attempted": failed, "summary": summary, "pairs": pairs,
              "traced": traced}
    out = "BENCH_%s.json" % args.workload
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print("%s: %d pairs of %g s; failed/attempted parent %d/%d, change %d/%d; written to %s"
          % (args.workload, args.pairs, args.seconds, *failed["parent"], *failed["change"], out))
    print("| metric | parent median [q1, q3] | change median [q1, q3] | worse by | "
          "widest spread | change wins / parent wins / ties | verdict |")
    print("|---|---|---|---|---|---|---|")
    for name, s in summary.items():
        a, b = s["parent"], s["change"]
        print("| %s (%s) | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% | %.1f%% | %d / %d / %d | %s |"
              % (name, s["unit"], a["median"], a["q1"], a["q3"], b["median"], b["q1"], b["q3"],
                 100 * s["median_worse_by"], 100 * s["widest_spread"], s["change_wins"],
                 s["parent_wins"], s["ties"], s["verdict"] + (", gain" if s["gain"] else "")))
    print()
    print("| per-layer metric, traced seed-1 run | parent | change |")
    print("|---|---|---|")
    for name, m in traced["parent"].items():
        if m["unit"] != "s":
            change = traced["change"].get(name, {}).get("value")
            print("| %s (%s) | %.6g | %s |" % (name, m["unit"], m["value"],
                                              "absent" if change is None else "%.6g" % change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
