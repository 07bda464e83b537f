"""Tests of the benchmark's independent checker.

    python3 -m pytest benchmark/test_checker.py

They show that the checker rejects wrong answers the program prints at
exit 0 (the F1 round trip among them) and accepts correct ones.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checker  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from stripgain import cli  # noqa: E402

call = run.make_caller(cli, checker)


def _build(workload, tmp_path_factory):
    inp, ops = inputs.build(workload, 7, str(tmp_path_factory.mktemp(workload)))
    return checker.Checker(inp.models), {op.name: op for op in ops}


@pytest.fixture(scope="module")
def ss_large(tmp_path_factory):
    return _build("ss-large", tmp_path_factory)


@pytest.fixture(scope="module")
def tf_small(tmp_path_factory):
    return _build("tf-small", tmp_path_factory)


@pytest.fixture(scope="module")
def sec5(tmp_path_factory):
    return _build("sec5", tmp_path_factory)


def _tampered(outcome, edit):
    env = json.loads(outcome.stdout)
    edit(env["results"])
    return checker.Outcome(outcome.rc, json.dumps(env), outcome.stderr)


def test_f1_norm_rejected_while_gain_on_same_file_accepted(ss_large):
    judge, ops = ss_large
    norm, gain = ops["f1-ss10/norm-line-bisection"], ops["f1-ss10/gain-line"]
    assert norm.spec["model"] == gain.spec["model"]
    oc = call(norm.argv)
    assert oc.rc == 0
    problems = judge.check(norm, oc)
    assert any("not within" in p for p in problems), problems
    assert judge.check(gain, call(gain.argv)) == []


def test_f1_grid_value_above_supremum_rejected(ss_large):
    judge, ops = ss_large
    op = ops["f1-ss40/norm-line-grid"]
    problems = judge.check(op, call(op.argv))
    assert any("exceeds reference supremum" in p for p in problems), problems


def test_f3_feedthrough_limit_rejected_and_seeded_sups_are_peaks(ss_large):
    judge, ops = ss_large
    op = ops["f3-leadlag-ss10/gain-line"]
    model = judge.models[op.spec["model"]]
    assert ref.line_sup(model, 0.5) == (2.0, float("inf"))
    problems = judge.check(op, call(op.argv))
    assert any("not within" in p for p in problems), problems
    for op in ops.values():
        if op.known_fault is None and op.spec["verb"] == "gain":
            rates = [op.spec["line"]] if "line" in op.spec else op.spec["strip"]
            for rate in rates:
                v, w = ref.line_sup(judge.models[op.spec["model"]], rate)
                assert w != float("inf"), (op.name, rate)


def test_bracket_and_tolerance_properties(tf_small):
    judge, ops = tf_small
    op = ops["tf-n2-p1/norm-line-bisection"]
    oc = call(op.argv)
    assert judge.check(op, oc) == []
    S = judge.sup(op.spec["model"], judge.models[op.spec["model"]], op.spec["line"])

    def below(res):
        res["bracket"] = [S * 0.999 - 1e-7, S * 0.999]
        res["value"] = S * 0.999 - 5e-8

    assert any("bracket top" in p for p in judge.check(op, _tampered(oc, below)))

    def off(res):
        res["value"] = S + 3e-6
        res["bracket"] = [S + 2.5e-6, S + 3.5e-6]

    assert any("not within" in p for p in judge.check(op, _tampered(oc, off)))

    grid = ops["tf-n5-p1/norm-line-grid"]
    oc = call(grid.argv)
    assert judge.check(grid, oc) == []

    def high(res):
        res["value"] *= 1.0 + 1e-6

    assert any("exceeds" in p for p in judge.check(grid, _tampered(oc, high)))


def test_dominance_verdict_follows_eigenvalue_count(tf_small):
    judge, ops = tf_small
    op = ops["tf-n4-p2/dominance"]
    oc = call(op.argv)
    assert judge.check(op, oc) == []

    def wrong_p(res):
        res["p"] = 1

    assert judge.check(op, _tampered(oc, wrong_p))


def test_certificate_inequality_assembled_here(tf_small):
    judge, ops = tf_small
    for name, op in ops.items():
        if name.endswith("gain-strip-cert") and op.known_fault is None:
            oc = call(op.argv)
            if json.loads(oc.stdout)["results"]["certificate"] is not None:
                break
    else:
        pytest.skip("no certificate built for these inputs")
    assert judge.check(op, oc) == []

    def flipped(res):
        res["certificate"]["P"] = [[-x for x in row] for row in res["certificate"]["P"]]

    assert judge.check(op, _tampered(oc, flipped))


def test_response_table_rows_match_reference(tf_small):
    judge, ops = tf_small
    op = ops["tf-n6-p0/bode"]
    oc = call(op.argv)
    assert judge.check(op, oc) == []
    with open(op.spec["out"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = lines[1000].split(",")
    row[1] = repr(float(row[1]) + 1e-3)
    lines[1000] = ",".join(row)
    with open(op.spec["out"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    problems = judge.check(op, oc)
    assert problems, "a changed table row must be rejected"


def test_sec5_reference_values_at_defaults(sec5):
    at_one = ref.sec5_slope_model(1.0, 5.0, -1.0)
    assert ref.line_sup(at_one, 1.0)[0] == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert ref.line_sup(at_one, 2.0)[0] == pytest.approx(1.0 / 11.0, rel=1e-13)
    judge, ops = sec5
    default, lag10 = ops["sec5-0"], ops["sec5-1"]
    oc = call(default.argv)
    assert oc.rc == 0 and judge.check(default, oc) == []
    oc10 = call(lag10.argv)
    assert oc10.rc == 2 and judge.check(lag10, oc10) == []
    flipped = checker.Outcome(oc.rc, oc.stdout.replace(
        "robust 2-dominance: CONFIRMED", "robust 2-dominance: NOT CONFIRMED"), oc.stderr)
    assert judge.check(default, flipped)
