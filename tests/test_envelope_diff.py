"""tools/envelope_diff.py reports a difference through its exit status, and
its error-path operations reach both error codes."""

import importlib.util
import os
import re

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "envelope_diff.py")


def _tool():
    spec = importlib.util.spec_from_file_location("envelope_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OPS = [("sec5", 1, "example-sec5", ["example-sec5"]), ("tf-small", 1, "f1/norm", ["norm"])]
SAME = [{"rc": 0, "stdout": '{"value": 1.0}\n', "files": {}, "stderr": ""}] * 2


def _changed(**fields):
    return [SAME[0], dict(SAME[1], **fields)]


@pytest.mark.parametrize(
    "change, status",
    [
        (SAME, 0),
        (_changed(stdout='{"value": 1.5}\n'), 1),
        (_changed(rc=2), 1),
        (_changed(files={"t.csv": "1\n"}), 1),
        (_changed(stderr="error: rate must be finite and >= 0\n"), 1),
    ],
    ids=["identical", "number", "exit-code", "out-file", "stderr"],
)
def test_exit_status_says_whether_any_operation_differs(monkeypatch, capsys, change, status):
    tool = _tool()
    monkeypatch.setattr(tool, "build_ops", lambda workdir, seeds: OPS)
    outputs = {"parent": SAME, "change": change}
    monkeypatch.setattr(tool, "run_checkout", lambda checkout, ops, workdir, tag: outputs[tag])
    assert tool.main(["parent", "change", "1"]) == status
    out = capsys.readouterr().out
    assert "| workload | operation |" in out and "| tf-small | norm | 1 |" in out


def test_error_paths_reach_both_error_codes_and_capture_each_error_line(tmp_path):
    tool = _tool()
    ops = tool.error_ops(str(tmp_path))
    outputs = tool.run_checkout(tool.ROOT, ops, str(tmp_path), "change")
    assert len(ops) == 21
    assert {out["rc"] for out in outputs} == {2, 3}
    errors = {name: out["stderr"] for (_, _, name, _), out in zip(ops, outputs)}
    assert "dominance at rate 0 is marginal" in errors["scale: dominance --p 0 --rate 0"]
    assert "lies on the line Re(s) = -0" in errors["scale: norm --line 0"]
    assert "B[0] must have 1 entries, got 2" in errors["two-input: dominance --p 1 --rate 0"]
    for (workload, _, name, _), out in zip(ops, outputs):
        assert workload == "errors" and tool.kind_of(workload, name) == "error paths"
        assert re.fullmatch(r"error: [^\n]+\n", out["stderr"]), name
