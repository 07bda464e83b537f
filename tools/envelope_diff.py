"""Compare the CLI output of two stripgain checkouts on the benchmark's operations.

    python3 tools/envelope_diff.py PARENT CHANGE SEED [SEED ...]

PARENT and CHANGE are checkout roots (each with src/stripgain).  For every
workload and seed, the operations and model files come from this checkout's
benchmark/inputs.py (imported, never edited), written once to a temporary
directory.  A fixed set of error-path operations (ERROR_OPS, on the model
files in ERROR_MODELS), which no benchmark operation reaches, runs too and
is reported as the workload "errors".  Each checkout then runs every
operation through its own ``stripgain.cli.main`` in a subprocess of its
own, and the outputs (stdout, any --out file, and the ``error: ...`` lines
main writes to stderr; Python warning lines name source files and line
numbers, so they are left out) are compared operation by operation: exit
codes, byte identity, and the largest relative change of any printed
number.  Numbers under the certificate fields P, epsilon and lmi_residual
are reported apart, as are certificates printed by one checkout and null
in the other.  The report ends with one row per workload and operation
kind.  The exit status is 0 when every operation has the same exit code
and byte-identical output, 1 when any differs.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CERT_KEYS = {"P", "epsilon", "lmi_residual"}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)\b")
DIGEST = re.compile(r"[0-9a-f]{64}")

# Runs in a fresh interpreter: argv = [src, ops.json, out.json].
RUNNER = r"""
import contextlib, io, json, os, re, sys
src, ops_path, out_path = sys.argv[1:]
error_line = re.compile(r"(?:stripgain[^:]*: )?error: ")
sys.path.insert(0, src)
from stripgain import cli
if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
    raise SystemExit("imported stripgain from %s" % cli.__file__)
with open(ops_path, encoding="utf-8") as fh:
    ops = json.load(fh)
results = []
for name, argv in ops:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 3
        except Exception as exc:
            rc = "raised %s" % type(exc).__name__
    files = {}
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                files[path] = fh.read()
            os.remove(path)
    errors = "".join(x for x in err.getvalue().splitlines(True) if error_line.match(x))
    results.append({"name": name, "rc": rc, "stdout": out.getvalue(), "files": files,
                    "stderr": errors})
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""


# Model files of the error-path operations, written as given (a str verbatim).
ERROR_MODELS = {
    "truncated": '{"kind": "tf", "num": [1.0',
    "first-order": {"kind": "tf", "num": [1.0], "den": [1.0, 1.0]},
    "improper": {"kind": "tf", "num": [0.0, 0.0, 1.0], "den": [1.0, 1.0]},
    "feedthrough": {"kind": "tf", "num": [16.0, 13.5, 3.25], "den": [21.0, 8.7, 1.0]},
    "peak": {"kind": "tf", "num": [1e200], "den": [1.0, 0.1, 1.0]},
    "huge": {"kind": "ss", "A": [[-1e300, 1e300], [1e300, -1e300]], "B": [[1.0], [0.0]],
             "C": [[1.0, 0.0]], "D": [[0.0]]},
    "two-input": {"kind": "ss", "A": [[1.0, 0.0], [0.0, -1.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
                  "C": [[1.0, 1.0]], "D": [[0.0, 0.0]]},
    "cube": {"kind": "tf", "num": [1.0], "den": [1.0, 3.0, 3.0, 1.0]},
    "two-sided": {"kind": "tf", "num": [1.0, 2.0], "den": [-5.0, 3.0, 1.0, 1.0]},
}
# (name, argv) of each: example-sec5's input errors, a malformed model file,
# one operation per typed analysis error the CLI prints, two level tests
# whose Hamiltonian overflows, the zero eigenvalue of a matrix of norm
# 2e300, computed as 2.2e284, on a rate line, a model with two inputs,
# which the loader refuses, and the table and the grid norm of 1/(s + 1)^3
# on two lines within 1e-5 of its triple pole, where the computed roots
# scatter (one on-line verdict each).  The laplace operations take the
# partial-fraction path, which no benchmark operation reaches either:
# invert of a model with poles on both sides of the imaginary axis on each
# of its three bands and of the triple pole (ROADMAP item 5's fault), and
# forward of a conjugate pair beside an anticausal term and of a zero
# signal.  "{model}" is the path of ERROR_MODELS[model].
ERROR_OPS = [
    ("example-sec5 --tau -1", ["example-sec5", "--tau", "-1"]),
    ("example-sec5 --d 0", ["example-sec5", "--d", "0"]),
    ("example-sec5 --ki 0", ["example-sec5", "--ki", "0"]),
    ("example-sec5 --slopes 1", ["example-sec5", "--slopes", "1"]),
    ("example-sec5 --strip 1,1", ["example-sec5", "--strip", "1,1"]),
    ("malformed model file", ["norm", "{truncated}", "--line", "0"]),
    ("PoleOnLine", ["norm", "{first-order}", "--line", "1"]),
    ("PoleInStrip", ["norm", "{first-order}", "--strip", "0.5,1.5"]),
    ("NotPDominant", ["dominance", "{first-order}", "--p", "1", "--rate", "0"]),
    ("NotPDominantAtSlope", ["example-sec5", "--d", "1e-300"]),
    ("MarginalRate", ["example-sec5", "--strip", "0,1"]),
    ("NumericalFailure", ["norm", "{feedthrough}", "--line", "0.5", "--tol", "1e-12"]),
    ("ImproperTransferFunction", ["norm", "{improper}", "--line", "0"]),
    ("NoCommonROC", ["laplace", "forward",
                     '{"terms": [{"side": "causal", "a": 1}, {"side": "anticausal", "a": -1}]}']),
    ("PoleInROC", ["laplace", "invert", "{first-order}", "--roc=-2,0"]),
    ("overflow: norm --line 0", ["norm", "{peak}", "--line", "0"]),
    ("overflow: gain --p 0 --line 0", ["gain", "{peak}", "--p", "0", "--line", "0"]),
    ("overflow: example-sec5 --ki 1e300", ["example-sec5", "--ki", "1e300"]),
    ("scale: dominance --p 0 --rate 0", ["dominance", "{huge}", "--p", "0", "--rate", "0"]),
    ("scale: norm --line 0", ["norm", "{huge}", "--line", "0"]),
    ("two-input: dominance --p 1 --rate 0",
     ["dominance", "{two-input}", "--p", "1", "--rate", "0"]),
] + [
    ("cube: %s --line %s" % (verb, rate), [verb, "{cube}", "--line", rate] + extra)
    for rate in ("0.99999179", "0.99999101")
    for verb, extra in (("nyquist", ["--points", "5"]), ("norm", ["--method", "grid"]))
] + [
    ("laplace invert two-sided --roc=%s" % roc, ["laplace", "invert", "{two-sided}",
                                                 "--roc=" + roc])
    for roc in ("-inf,-1", "-1,1", "1,inf")
] + [
    ("laplace invert cube --roc=-0.5,inf", ["laplace", "invert", "{cube}", "--roc=-0.5,inf"]),
    ("laplace forward: conjugate pair", ["laplace", "forward", json.dumps({"terms": [
        {"side": "causal", "a": [-1, 2], "c": [0.5, 1]},
        {"side": "causal", "a": [-1, -2], "c": [0.5, -1]},
        {"side": "anticausal", "a": 1, "k": 1}]})]),
    ("laplace forward: zero signal", ["laplace", "forward",
                                      json.dumps({"terms": [{"side": "causal", "c": 0}]})]),
]


def error_ops(workdir: str):
    """(workload, seed, op name, argv) of every error-path operation, its
    model files written under workdir."""
    paths = {}
    for model, content in ERROR_MODELS.items():
        path = paths["{%s}" % model] = os.path.join(workdir, "error-%s.json" % model)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content if isinstance(content, str) else json.dumps(content))
    return [("errors", 0, name, [paths.get(a, a) for a in argv]) for name, argv in ERROR_OPS]


def build_ops(workdir: str, seeds):
    """(workload, seed, op name, argv) of every benchmark operation, then
    the error-path operations."""
    sys.path.insert(0, os.path.join(ROOT, "benchmark"))
    import inputs

    ops = []
    for workload in inputs.WORKLOADS:
        for seed in seeds:
            root = os.path.join(workdir, "%s-seed%d" % (workload, seed))
            _, round_ops = inputs.build(workload, seed, root)
            ops += [(workload, seed, op.name, list(op.argv)) for op in round_ops]
    return ops + error_ops(workdir)


def run_checkout(checkout: str, ops, workdir: str, tag: str):
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "stripgain", "cli.py")):
        raise SystemExit("envelope_diff: no stripgain sources under %s" % src)
    ops_path = os.path.join(workdir, "ops-%s.json" % tag)
    out_path = os.path.join(workdir, "out-%s.json" % tag)
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump([[op[2], op[3]] for op in ops], fh)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run([sys.executable, "-c", RUNNER, src, ops_path, out_path],
                   cwd=workdir, env=env, check=True)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


class Scan:
    """Printed numbers of one output, in order, and the text around them.

    A certificate object goes to its own Scan in ``certificates`` (None when
    printed as null), and the warnings to ``warnings``, so the rest compares
    even where one side has no certificate (and a warning saying so); the
    fields in CERT_KEYS go to ``cert_numbers``.
    """

    def __init__(self):
        self.skeleton, self.numbers, self.cert_numbers = [], [], []
        self.certificates: list[Scan | None] = []
        self.warnings: list = []

    def text(self, text: str) -> None:
        self.skeleton.append(NUMBER.sub("#", text))
        self.numbers += [float(x) for x in NUMBER.findall(text)]

    def walk(self, node, in_cert=False) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                self.skeleton.append(key)
                if key == "certificate":
                    sub = None if value is None else Scan()
                    if sub is not None:
                        sub.walk(value)
                    self.certificates.append(sub)
                elif key == "warnings":
                    self.warnings.append(value)
                else:
                    self.walk(value, in_cert or key in CERT_KEYS)
        elif isinstance(node, list):
            self.skeleton.append("[%d" % len(node))
            for value in node:
                self.walk(value, in_cert)
        elif isinstance(node, bool) or node is None:
            self.skeleton.append(repr(node))
        elif isinstance(node, (int, float)):
            self.skeleton.append("#")
            (self.cert_numbers if in_cert else self.numbers).append(float(node))
        elif DIGEST.fullmatch(node):
            self.skeleton.append("digest")
        else:
            self.text(node)


def scan(output: dict) -> Scan:
    """Scan of one operation's printed text: a leading JSON envelope is
    walked, everything else split into numbers and the text between them."""
    out = Scan()
    texts = [output["stdout"]] + [output["files"][k] for k in sorted(output["files"])]
    texts.append(output["stderr"])
    for text in texts:
        if text.startswith("{"):
            try:
                obj, end = json.JSONDecoder().raw_decode(text)
            except ValueError:
                pass
            else:
                out.walk(obj)
                text = text[end:]
        for line in text.splitlines():
            out.text(line)
    return out


def max_rel(a: list, b: list) -> float:
    worst = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y))
        worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return worst


def _numbers_rel(a: Scan, b: Scan) -> tuple[float, float]:
    """Largest relative change outside and inside the certificate fields;
    inf when the printed structure differs."""
    if a.skeleton != b.skeleton or len(a.numbers) != len(b.numbers) \
            or len(a.cert_numbers) != len(b.cert_numbers):
        return math.inf, math.inf
    return max_rel(a.numbers, b.numbers), max_rel(a.cert_numbers, b.cert_numbers)


def compare(old: dict, new: dict) -> dict:
    same_bytes = all(old[k] == new[k] for k in ("stdout", "files", "stderr"))
    row = {"rc_same": old["rc"] == new["rc"], "bytes_same": same_bytes,
           "rel": 0.0, "cert_rel": 0.0, "cert_lost": 0, "cert_gained": 0}
    if same_bytes:
        return row
    a, b = scan(old), scan(new)
    row["rel"], row["cert_rel"] = _numbers_rel(a, b)
    for x, y in zip(a.certificates, b.certificates):
        row["cert_lost"] += x is not None and y is None
        row["cert_gained"] += x is None and y is not None
        if x is not None and y is not None:
            rel, cert_rel = _numbers_rel(x, y)
            row["rel"], row["cert_rel"] = max(row["rel"], rel), max(row["cert_rel"], cert_rel)
    if len(a.certificates) != len(b.certificates) or (
        a.warnings != b.warnings and not (row["cert_lost"] or row["cert_gained"])
    ):
        row["rel"] = math.inf
    return row


def kind_of(workload: str, name: str) -> str:
    if workload == "errors":
        return "error paths"
    return name.split("/", 1)[1] if "/" in name else "example-sec5"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 3:
        raise SystemExit(__doc__.strip().splitlines()[2].strip())
    parent, change, seeds = args[0], args[1], [int(s) for s in args[2:]]
    with tempfile.TemporaryDirectory(prefix="envelope-diff-") as workdir:
        ops = build_ops(workdir, seeds)
        old = run_checkout(parent, ops, workdir, "parent")
        new = run_checkout(change, ops, workdir, "change")
    table = defaultdict(lambda: {"ops": 0, "rc_same": 0, "bytes_same": 0, "rel": 0.0,
                                 "cert_rel": 0.0, "cert_lost": 0, "cert_gained": 0})
    for (workload, seed, name, _), a, b in zip(ops, old, new):
        row = compare(a, b)
        if not (row["rc_same"] and row["bytes_same"]):
            print("%-8s seed %-3d %-45s exit %s -> %s  numbers %.2e  certificate fields %.2e%s%s"
                  % (workload, seed, name, a["rc"], b["rc"], row["rel"], row["cert_rel"],
                     "  CERTIFICATE LOST" if row["cert_lost"] else "",
                     "  certificate built" if row["cert_gained"] else ""))
        t = table[(workload, kind_of(workload, name))]
        t["ops"] += 1
        for key in ("rc_same", "bytes_same", "cert_lost", "cert_gained"):
            t[key] += row[key]
        t["rel"] = max(t["rel"], row["rel"])
        t["cert_rel"] = max(t["cert_rel"], row["cert_rel"])
    print()
    print("| workload | operation | ops | same exit code | byte-identical | largest "
          "relative change | in certificate fields | certificates lost | built |")
    print("|---|---|---|---|---|---|---|---|---|")
    for (workload, kind), t in sorted(table.items()):
        print("| %s | %s | %d | %d | %d | %.2g | %.2g | %d | %d |"
              % (workload, kind, t["ops"], t["rc_same"], t["bytes_same"], t["rel"],
                 t["cert_rel"], t["cert_lost"], t["cert_gained"]))
    return int(any(min(t["rc_same"], t["bytes_same"]) < t["ops"] for t in table.values()))


if __name__ == "__main__":
    sys.exit(main())
