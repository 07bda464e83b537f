import ast
import json
import math
import re
import warnings

import numpy as np
import pytest

from stripgain import (
    RationalFunction,
    StateSpace,
    Strip,
    cli,
    matkernel,
    realize,
    robust_dominance,
    verify_gain_lmi,
)
from stripgain.cli import main
from stripgain.modelio import float_repr


def write_model(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


@pytest.fixture
def first_order(tmp_path):
    return write_model(tmp_path / "g.json", {"kind": "tf", "num": [1.0], "den": [1.0, 1.0]})


@pytest.fixture
def unstable(tmp_path):
    return write_model(
        tmp_path / "u.json",
        {"kind": "ss", "A": [[1.0]], "B": [[1.0]], "C": [[0.5]], "D": [[0.0]]},
    )


def test_norm_line(capsys, first_order):
    code, env = run_json(capsys, ["norm", first_order, "--line", "0", "--tol", "1e-8"])
    assert code == 0
    assert env["command"] == "norm"
    assert env["results"]["value"] == pytest.approx(1.0, abs=1e-6)
    assert len(env["inputs"]) == 1 and len(env["inputs"][0]["sha256"]) == 64


def test_norm_strip_and_degenerate(capsys, tmp_path):
    model = write_model(
        tmp_path / "m.json",
        {"kind": "tf", "num": [1.0], "den": [-3.0, 2.0, 1.0]},
    )
    code, env = run_json(capsys, ["norm", model, "--strip", "0,2"])
    assert code == 0
    assert env["results"]["mode"] == "strip"
    assert env["results"]["value"] == pytest.approx(1.0 / 3.0, abs=1e-5)

    code, env = run_json(capsys, ["norm", model, "--strip", "0.5,0.5"])
    assert code == 0
    assert env["results"]["mode"] == "line"
    assert env["warnings"]


def test_norm_grid_method(capsys, first_order):
    code, env = run_json(capsys, ["norm", first_order, "--line", "0.5", "--method", "grid"])
    assert code == 0
    assert env["results"]["value"] == pytest.approx(2.0, abs=1e-6)


def test_dominance_envelope(capsys, unstable):
    code, env = run_json(capsys, ["dominance", unstable, "--p", "1", "--rate", "0.5"])
    assert code == 0
    r = env["results"]
    assert r["dominant"] is True
    assert r["epsilon"] > 0
    assert r["lmi_residual"] <= 0


def test_dominance_failure_exits_2(capsys, unstable):
    code, out = run(capsys, ["dominance", unstable, "--p", "0", "--rate", "0.5"])
    assert code == 2
    env = json.loads(out)
    assert env["error"]["type"] == "NotPDominant"
    assert env["error"]["actual"] == 1


def test_gain_with_certificate(capsys, unstable):
    code, env = run_json(
        capsys,
        ["gain", unstable, "--p", "1", "--strip", "0.5,1.5", "--certificate"],
    )
    assert code == 0
    r = env["results"]
    assert r["gamma"] == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert r["boundary_gammas"][1] == pytest.approx(0.2, abs=1e-5)
    assert r["small_gain_margin"] == pytest.approx(3.0, abs=1e-4)
    assert r["certificate"] is not None
    assert r["certificate"]["lmi_residual"] <= 0


def test_smallgain_conclusive(capsys, tmp_path, unstable):
    one = write_model(
        tmp_path / "one.json",
        {"kind": "ss", "A": [], "B": [], "C": [[]], "D": [[1.0]]},
    )
    code, env = run_json(
        capsys,
        ["smallgain", unstable, one, "--p1", "1", "--p2", "0", "--strip", "0.5,1.5"],
    )
    assert code == 0
    assert env["results"]["conclusive"] is True
    assert env["results"]["closed_p"] == 1
    assert not env["warnings"]


def test_smallgain_warns_when_inconclusive(capsys, tmp_path):
    two = write_model(tmp_path / "two.json", {"kind": "tf", "num": [2.0], "den": [1.0, 1.0]})
    code, env = run_json(
        capsys, ["smallgain", two, two, "--p1", "0", "--p2", "0", "--strip", "0,0.5"]
    )
    assert code == 0
    assert env["warnings"] == ["gain product 16 >= 1; small-gain test is inconclusive"]
    assert env["results"]["conclusive"] is False


def test_nyquist_csv_schema(capsys, first_order):
    code, out = run(capsys, ["nyquist", first_order, "--line", "0", "--points", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,re,im,mag,disk_radius"
    assert len(lines) == 6
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0)


def test_nyquist_out_file(capsys, tmp_path, first_order):
    out_path = tmp_path / "nyq.csv"
    code, env = run_json(
        capsys,
        ["nyquist", first_order, "--line", "0", "--points", "5", "--out", str(out_path)],
    )
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == "omega,re,im,mag,disk_radius"
    assert env["results"]["rows"] == 5
    assert env["results"]["critical_point_excluded"] is True


def test_bode_csv_schema(capsys, first_order):
    code, out = run(capsys, ["bode", first_order, "--line", "0", "--points", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,mag_db,phase_deg"
    row = [float(x) for x in lines[1].split(",")]
    assert row[1] == pytest.approx(0.0, abs=1e-9)  # |G(0)| = 1 -> 0 dB


def test_laplace_forward_verb(capsys):
    sig = json.dumps(
        {
            "terms": [
                {"c": 1, "k": 0, "a": -1, "side": "causal"},
                {"c": 1, "k": 0, "a": 1, "side": "anticausal"},
            ]
        }
    )
    code, env = run_json(capsys, ["laplace", "forward", sig])
    assert code == 0
    assert env["results"]["num"] == [-2]
    assert env["results"]["den"] == [-1, 0, 1]
    assert env["results"]["roc"] == [-1, 1]


def test_laplace_invert_verb(capsys, tmp_path):
    model = write_model(
        tmp_path / "m.json", {"kind": "tf", "num": [1.0], "den": [-3.0, 2.0, 1.0]}
    )
    code, env = run_json(capsys, ["laplace", "invert", model, "--roc=-3,1"])
    assert code == 0
    sides = {t["side"] for t in env["results"]["terms"]}
    assert sides == {"causal", "anticausal"}
    assert len(env["results"]["roc_options"]) == 3
    # --roc is one pair of numbers, either of which may be infinite
    code, env = run_json(capsys, ["laplace", "invert", model, "--roc=-inf,-3"])
    assert code == 0 and env["results"]["roc"] == ["-inf", -3]
    for roc in ("1", "a,b"):
        assert main(["laplace", "invert", model, "--roc", roc]) == 3
        assert capsys.readouterr().err.startswith("error: --roc must be")


@pytest.mark.parametrize("tol", ["1e-6", "1e-12"])
def test_level_search_resolves_a_gain_below_the_feedthrough_band(capsys, tmp_path, tol):
    # sup |G| = |G(0)| = 1e-9 with D = 0: the feedthrough band is relative
    # to max(d^2, gamma^2), so no level above 0 falls inside it
    tiny = write_model(tmp_path / "tiny.json", {"kind": "tf", "num": [1e-9], "den": [1.0, 1.0]})
    for argv, key in ((["norm"], "value"), (["gain", "--p", "0"], "gamma")):
        code, env = run_json(capsys, [argv[0], tiny, *argv[1:], "--line", "0", "--tol", tol])
        assert code == 0
        lo, hi = env["results"]["bracket"]
        assert lo == pytest.approx(1e-9, rel=1e-12) and lo <= env["results"][key] <= hi


def test_missing_model_exits_3(capsys, tmp_path):
    code, _ = run(capsys, ["norm", str(tmp_path / "nope.json"), "--line", "0"])
    assert code == 3


def test_malformed_model_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "tf", "num": [1.0]}')
    code, _ = run(capsys, ["norm", str(bad), "--line", "0"])
    assert code == 3


@pytest.mark.parametrize(
    "argv", [["dominance", "--p", "1", "--rate", "0"], ["norm", "--line", "0"]]
)
def test_a_two_input_model_is_refused_at_load(capsys, tmp_path, argv):
    path = write_model(
        tmp_path / "two.json",
        {"kind": "ss", "A": [[1.0, 0.0], [0.0, -1.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
         "C": [[1.0, 1.0]], "D": [[0.0, 0.0]]},
    )
    code = main([argv[0], path, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "error: %s.B[0] must have 1 entries, got 2\n" % path in captured.err


def test_bad_strip_exits_3(capsys, first_order):
    code, _ = run(capsys, ["norm", first_order, "--strip", "2,1"])
    assert code == 3


def test_missing_region_exits_3(capsys, first_order):
    with pytest.raises(SystemExit) as info:
        main(["norm", first_order])
    assert info.value.code == 3
    capsys.readouterr()


def test_pole_on_line_exits_2(capsys, first_order):
    code, out = run(capsys, ["norm", first_order, "--line", "1"])
    assert code == 2
    env = json.loads(out)
    assert env["error"]["type"] == "PoleOnLine"


def test_tolerance_below_feedthrough_resolution_exits_2(capsys, tmp_path):
    # a well-formed request the level test cannot resolve: analysis failure
    model = write_model(
        tmp_path / "ft.json", {"kind": "tf", "num": [16.0, 13.5, 3.25], "den": [21.0, 8.7, 1.0]}
    )
    code, out = run(capsys, ["norm", model, "--line", "0.5", "--tol", "1e-12"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NumericalFailure"


def test_example_sec5_confirms(capsys, tmp_path):
    out_path = tmp_path / "fig.csv"
    code, out = run(
        capsys, ["example-sec5", "--slopes", "3", "--out", str(out_path)]
    )
    assert code == 0
    assert out.strip().endswith("robust 2-dominance: CONFIRMED")
    env = json.loads(out[: out.rindex("robust")])
    eigs = sorted(z[0] for z in env["results"]["closed_loop"]["eigenvalues"])
    assert eigs[-1] == pytest.approx(0.4207469788, abs=1e-6)
    assert env["results"]["small_gain"]["satisfied"] is True
    assert out_path.read_text().splitlines()[0] == "omega,re,im,mag,disk_radius"
    assert env["notes"]  # benchmark annotation present


def test_example_sec5_large_lag_not_confirmed(capsys):
    code, out = run(capsys, ["example-sec5", "--tau", "10", "--slopes", "3"])
    assert code == 2
    assert out.strip().endswith("robust 2-dominance: NOT CONFIRMED")


def test_example_sec5_warns_when_the_small_gain_product_is_not_below_one(capsys):
    # the warning only: the verdict beside it is revisited by ROADMAP item 6
    _, out = run(capsys, ["example-sec5", "--tau", "0.4"])
    env = json.loads(out[: out.rindex("robust")])
    product = env["results"]["small_gain"]["product"]
    assert product == pytest.approx(4.0 / 3.0, rel=1e-5)
    assert env["warnings"] == [
        "small-gain product %s is not below one; the sector bound alone does not "
        "certify robustness" % float_repr(product)
    ]
    assert env["results"]["small_gain"]["satisfied"] is False


def test_example_sec5_rejects_a_single_slope(capsys):
    # one slope would sample the sector [0, 1] at k = 0 only
    assert main(["example-sec5", "--slopes", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_slopes must be >= 2 to sample the slope interval [0, 1]" in captured.err


@pytest.mark.parametrize("argv", [[], ["--tau", "10"]], ids=["default", "tau-10"])
def test_robust_dominance_is_what_example_sec5_prints(capsys, argv):
    """The library call and the verb agree bit for bit: the sector gains,
    the lag block's gain or warning, the product, the counts, the
    eigenvalues and the verdict (at tau = 10 the lag block is not
    0-dominant on the strip, so its gain is a warning)."""
    code, out = run(capsys, ["example-sec5"] + argv)
    env = json.loads(out[: out.rindex("robust")])
    res = env["results"]
    report = robust_dominance(float(argv[1]) if argv else 0.1, 5.0, -1.0, Strip(1.0, 2.0))
    lo, hi = report.sector_lo, report.sector_hi
    assert res["loop_gain"]["boundary_gammas"] == [lo.gamma, hi.gamma]
    assert res["loop_gain"]["slope_one_gains"] == [lo.evaluations[-1][1], hi.evaluations[-1][1]]
    if argv:
        assert report.lag is None and res["lag_gain"] is None and res["small_gain"] is None
        assert env["warnings"] == ["lag block strip gain unavailable: %s" % report.lag_error]
    else:
        lag = {"gamma": report.lag.gamma, "boundary_gammas": list(report.lag.boundary_gammas)}
        assert res["lag_gain"] == lag and res["small_gain"]["product"] == report.product
    assert res["closed_loop"]["eigenvalues"] == [[z.real, z.imag] for z in report.poles]
    counts = [(c["rate"], c["right_of_line"], c["dominant"]) for c in res["closed_loop"]["counts"]]
    assert counts == [(rate, count, error is None) for rate, count, error in report.counts]
    assert report.confirmed is not argv and code == (2 if argv else 0)
    assert res["verdict"] == ("NOT CONFIRMED" if argv else "CONFIRMED")


def test_cli_imports_no_private_name():
    """The CLI formats public library calls only."""
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "stripgain")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "{peak}", "--line", "0"],
        ["gain", "{peak}", "--p", "0", "--line", "0"],
        ["example-sec5", "--ki", "1e300"],
    ],
    ids=["norm", "gain", "example-sec5"],
)
def test_an_overflowing_level_test_is_a_numerical_failure(capsys, tmp_path, argv):
    """gamma^2 of a peak near 1e201 (norm, gain), or C'C of a loop gain of
    1e300 (example-sec5), overflows the Hamiltonian: an analysis failure
    naming the level, with no numpy warning on the way."""
    peak = write_model(tmp_path / "peak.json", {"kind": "tf", "num": [1e200], "den": [1.0, 0.1, 1.0]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([peak if a == "{peak}" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and caught == []
    assert json.loads(captured.out)["error"]["type"] == "NumericalFailure"
    assert re.fullmatch(r"error: the level test at \S+ overflows\n", captured.err)
    if argv[0] == "norm":  # the grid estimate needs no level test
        code, env = run_json(capsys, ["norm", peak, "--line", "0", "--method", "grid"])
        assert code == 0 and 1e200 < env["results"]["value"] < math.inf


def test_example_sec5_runs_one_sweep_and_one_lag_search(capsys, monkeypatch):
    """A default walk-through builds the slope family once, runs two level
    searches (the sector sweep over both strip edges, and the lag block's
    strip), eigensolves at most five times and sorts no member's grid or
    crossings one at a time (np.unique) inside the level search."""
    from stripgain import dominance, matkernel, stripnorm

    counts = {"family": 0, "search": 0, "eig": 0, "unique_in_search": 0}
    inside = []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def searching(*args, **kwargs):
        counts["search"] += 1
        inside.append(True)
        try:
            return level_search(*args, **kwargs)
        finally:
            inside.pop()

    def unique(*args, **kwargs):
        counts["unique_in_search"] += bool(inside)
        return np_unique(*args, **kwargs)

    level_search, np_unique = stripnorm._level_search, np.unique
    monkeypatch.setattr(dominance, "_slope_family", counted("family", dominance._slope_family))
    monkeypatch.setattr(matkernel, "eig", counted("eig", matkernel.eig))
    monkeypatch.setattr(stripnorm, "_level_search", searching)
    monkeypatch.setattr(dominance, "_level_search", searching)
    monkeypatch.setattr(np, "unique", unique)
    code, out = run(capsys, ["example-sec5"])
    assert code == 0 and out.strip().endswith("CONFIRMED")
    assert counts["family"] == 1 and counts["search"] == 2
    assert counts["eig"] <= 5 and counts["unique_in_search"] == 0


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["example-sec5"], 3),
        (["gain", "{unstable}", "--p", "1", "--strip", "0.5,1.5"], 1),
        (["gain", "{unstable}", "--p", "1", "--line", "0.5"], 1),
        (["norm", "{first_order}", "--strip", "0,0.5", "--method", "grid"], 1),
        (["dominance", "{unstable}", "--p", "1", "--rate", "0.5"], 1),
        (["smallgain", "{unstable}", "{one}", "--p1", "1", "--p2", "0", "--strip", "0.5,1.5"], 4),
    ],
    ids=["example-sec5", "gain-strip", "gain-line", "norm-strip-grid", "dominance", "smallgain"],
)
def test_each_request_asks_the_on_line_rule_once_per_spectrum(
    capsys, monkeypatch, tmp_path, unstable, first_order, argv, calls
):
    """A gain counts dominance at all its rates at once and searches without
    asking again; a strip norm's guard covers its edges; example-sec5 counts
    its sweep, its lag block and its direct check once each; a dominance
    certificate's Schur split splits at the count; a conclusive small-gain
    test adds one count per closed-loop edge."""
    from stripgain import dominance, matkernel, regions

    one = {"kind": "ss", "A": [], "B": [], "C": [[]], "D": [[1.0]]}
    one = write_model(tmp_path / "one.json", one)
    paths = {"unstable": unstable, "first_order": first_order, "one": one}
    seen, on_band = [], regions._on_band

    def counting(*args):
        seen.append(args)
        return on_band(*args)

    for module in (regions, dominance, matkernel, cli):
        if hasattr(module, "_on_band"):
            monkeypatch.setattr(module, "_on_band", counting)
    code, _ = run(capsys, [a.format(**paths) for a in argv])
    assert code == 0 and len(seen) == calls


def random_stable_ss(seed, n):
    """Stable SISO model in a random basis of condition number at most 4:
    poles with Re in [-4, -0.6] and |Im| up to 4, Gaussian B and C."""
    rng = np.random.default_rng(seed)
    blocks, k = [], 0
    while k < n:
        re = rng.uniform(-4.0, -0.6)
        if n - k >= 2 and rng.random() < 0.5:
            im = rng.uniform(0.1, 4.0)
            blocks.append([[re, im], [-im, re]])
            k += 2
        else:
            blocks.append([[re]])
            k += 1
    A0 = np.zeros((n, n))
    k = 0
    for b in blocks:
        A0[k : k + len(b), k : k + len(b)] = b
        k += len(b)
    V = np.linalg.qr(rng.standard_normal((n, n)))[0] * rng.uniform(0.5, 2.0, n)
    A = V @ A0 @ np.linalg.inv(V)
    B = rng.standard_normal((n, 1))
    C = rng.standard_normal((1, n))
    return {"kind": "ss", "A": A.tolist(), "B": B.tolist(), "C": C.tolist(), "D": [[0.0]]}


@pytest.fixture
def stable_ss10(tmp_path):
    return write_model(tmp_path / "ss10.json", random_stable_ss(0, 10))


def test_norm_on_ss_agrees_with_gain(capsys, stable_ss10):
    # A transfer-function round trip of this realization puts the line norm
    # near 592; the supremum is about 1.0714.
    code, norm = run_json(capsys, ["norm", stable_ss10, "--line", "0"])
    assert code == 0
    code, gain = run_json(capsys, ["gain", stable_ss10, "--p", "0", "--line", "0"])
    assert code == 0
    tol = norm["results"]["tolerance"]
    assert norm["results"]["value"] == pytest.approx(gain["results"]["gamma"], abs=tol)
    code, grid = run_json(capsys, ["norm", stable_ss10, "--line", "0", "--method", "grid"])
    assert code == 0
    assert grid["results"]["value"] <= norm["results"]["bracket"][1]


def test_norm_strip_and_tables_on_ss(capsys, tmp_path, stable_ss10):
    tf = write_model(
        tmp_path / "tf.json", {"kind": "tf", "num": [1.0], "den": [2.0, 3.0, 1.0]}
    )
    ss = write_model(
        tmp_path / "ss.json",
        {"kind": "ss", "A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [1.0]],
         "C": [[1.0, -1.0]], "D": [[0.0]]},
    )
    code, a = run_json(capsys, ["norm", tf, "--strip", "0,0.5"])
    code2, b = run_json(capsys, ["norm", ss, "--strip", "0,0.5"])
    assert code == code2 == 0
    assert b["results"]["value"] == pytest.approx(a["results"]["value"], abs=1e-6)
    for verb in ("nyquist", "bode"):
        _, out_tf = run(capsys, [verb, tf, "--line", "0.5", "--points", "9"])
        _, out_ss = run(capsys, [verb, ss, "--line", "0.5", "--points", "9"])
        rows_tf = np.array([r.split(",") for r in out_tf.splitlines()[1:]], dtype=float)
        rows_ss = np.array([r.split(",") for r in out_ss.splitlines()[1:]], dtype=float)
        assert np.allclose(rows_ss, rows_tf, rtol=1e-12, atol=1e-12)
    code, out = run(capsys, ["norm", stable_ss10, "--strip", "1,4"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PoleInStrip"


def test_gain_warns_when_certificate_is_null(capsys, monkeypatch, unstable):
    import stripgain.dominance as dom

    argv = ["gain", unstable, "--p", "1", "--line", "0.5", "--certificate"]
    code, env = run_json(capsys, argv)
    assert code == 0
    assert env["results"]["certificate"] is not None
    assert env["warnings"] == []
    # no rung of the Riccati ladder yields a certificate
    monkeypatch.setattr(dom, "_riccati_certificate", lambda *args: None)
    code, env = run_json(capsys, argv)
    assert code == 0
    assert env["results"]["certificate"] is None
    assert any("certificate" in w for w in env["warnings"])


def _companion(num, den):
    """The controllable canonical form of num/den (ascending coefficients,
    a monic den), built from np.eye(n, k=1) and the coefficients alone: the
    coordinates a tf file's printed certificate refers to."""
    n = len(den) - 1
    d = num[n] if len(num) == n + 1 else 0.0
    A, B = np.eye(n, k=1), np.eye(n)[:, -1:]
    A[-1] = -np.asarray(den[:n])
    C = np.zeros((1, n))
    C[0, : min(len(num), n)] = np.asarray(num[:n]) - d * np.asarray(den[: len(num[:n])])
    return StateSpace(A, B, C, [[d]])


def test_gain_certificate_of_a_sixth_order_lag(capsys, tmp_path):
    # 1/((s+1)(s+2)...(s+6)): the printed P's eigenvalues span 6e-12 to 5.2,
    # inside the zero band of inertia(); the verified strict inequality
    # fixes P's signature, so the first rung's certificate is printed.  It
    # is built on the balanced realization and printed in the companion
    # form's coordinates, an exact congruence by powers of two.
    den = [720.0, 1764.0, 1624.0, 735.0, 175.0, 21.0, 1.0]
    model = write_model(tmp_path / "g6.json", {"kind": "tf", "num": [1.0], "den": den})
    code, env = run_json(capsys, ["gain", model, "--p", "0", "--line", "0", "--certificate"])
    assert code == 0
    assert env["warnings"] == []
    cert = env["results"]["certificate"]
    assert cert is not None
    assert cert["certified_gamma"] >= env["results"]["gamma"] >= 1.0 / 720.0 * (1 - 1e-6)
    comp = _companion([1.0], den)
    rep = verify_gain_lmi(comp, cert["P"], cert["certified_gamma"], 0.0, cert["epsilon"])
    assert rep.valid
    t = matkernel.balance(comp.A)[1]
    ss = realize(RationalFunction([1.0], den))
    P = np.asarray(cert["P"]) * np.outer(t, t)
    rep = verify_gain_lmi(ss, P, cert["certified_gamma"], 0.0, cert["epsilon"])
    assert rep.valid and rep.residual == cert["lmi_residual"]


@pytest.mark.parametrize(
    "num, den, argv",
    [
        ([1.0, -0.5, 2.0], [-6.0, 1.0, 4.0, 1.0], ["--p", "1", "--strip", "0.5,1.5"]),
        ([0.5, 1.0, 0.0, 2.0], [30.0, 31.0, 10.0, 1.0], ["--p", "0", "--line", "0.5"]),
        ([2.0, 1.0, -1.0, 3.0, 1.0], [50.0, -5.0, 35.0, 10.0, 1.0], ["--p", "2", "--line", "0"]),
    ],
)
def test_tf_gain_certificate_is_printed_in_companion_coordinates(capsys, tmp_path, num, den, argv):
    """A tf file's printed `gain --certificate` P passes verify_gain_lmi on
    the companion form of the file's coefficients, the form it is printed
    in (the sixth-order lag above is one more case)."""
    model = write_model(tmp_path / "g.json", {"kind": "tf", "num": num, "den": den})
    code, env = run_json(capsys, ["gain", model, "--certificate"] + argv)
    assert code == 0
    cert, rate = env["results"]["certificate"], env["results"]["rate"]
    rep = verify_gain_lmi(
        _companion(num, den), cert["P"], cert["certified_gamma"], rate, cert["epsilon"]
    )
    assert rep.valid


def test_csv_lines_matches_per_cell_float_repr():
    rows = np.array(
        [
            [0.0, math.nan, math.inf, -math.inf, -0.0],
            [5e-324, 1e308, -1e308, 3.0, -42.0],
            [1e16, 1e17, 0.1, 1.0 / 3.0, 2.0**-1074 * 3],
        ]
    )
    reference = "\n".join(
        ["a,b,c,d,e"] + [",".join(float_repr(float(x)) for x in row) for row in rows]
    ) + "\n"
    assert cli._csv_lines("a,b,c,d,e", rows) == reference
    assert reference.splitlines()[1] == "0,nan,inf,-inf,-0"
    assert cli._csv_lines("omega", np.zeros((0, 1))) == "omega\n"


def test_a_triple_pole_gets_one_on_line_verdict_from_every_verb(capsys, tmp_path):
    """1/(s + 1)^3 has one spectrum: on the line through each real part of
    its realization's poles, and of the eigenvalues of its column companion
    (ones on the subdiagonal, last column -den, which spreads the triple
    root differently by up to 1e-5), the table's pole guard and the grid
    norm reach one verdict."""
    den = [1.0, 3.0, 3.0, 1.0]
    model = write_model(tmp_path / "cube.json", {"kind": "tf", "num": [1.0], "den": den})
    column = np.eye(3, k=-1)
    column[:, -1] = -np.asarray(den[:3])
    poles = np.concatenate(
        [realize(RationalFunction([1.0], den)).poles(), np.linalg.eigvals(column)]
    )
    for rate in sorted(set(-poles.real)):
        line = float_repr(rate)
        nyquist = run(capsys, ["nyquist", model, "--line", line, "--points", "5"])[0]
        norm = run(capsys, ["norm", model, "--line", line, "--method", "grid"])[0]
        assert nyquist == norm, line


def test_shared_parser_carries_nothing_between_calls(capsys, tmp_path, unstable):
    """Calls made in sequence on the one parser main keeps print what each
    prints when made first, on a freshly built parser."""
    table = tmp_path / "nyq.csv"
    calls = [
        ["gain", unstable, "--p", "1", "--strip", "0.5,1.5", "--certificate"],
        ["gain", unstable, "--p", "1"],  # usage error: no region
        ["dominance", unstable, "--p", "0", "--rate", "0.5"],  # analysis error
        ["gain", unstable, "--p", "1", "--line", "0.5"],
        ["nyquist", unstable, "--line", "0.5", "--points", "50", "--out", str(table)],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, table.read_text() if table.exists() else None

    fresh = []
    for argv in calls:
        cli._shared_parser.cache_clear()
        table.unlink(missing_ok=True)
        fresh.append(call(argv))
    assert [f[0] for f in fresh] == [0, 3, 2, 0, 0]
    table.unlink()
    shared = [call(argv) for argv in calls]
    assert shared == fresh


IMPROPER_NYQUIST = """omega,re,im,mag,disk_radius
0,1.5,0,1.5,0.375
0.10000000000000001,1.346153846153846,-0.46923076923076917,1.4255902960906024,0.3563975740226506
1,-1.7000000000000002,1.4000000000000001,2.2022715545545246,0.55056788863863115
10,-2.4900249376558601,29.800498753117203,29.904346676105266,7.4760866690263166
"""

IMPROPER_BODE = """omega,mag_db,phase_deg
0,3.5218251811136247,0
0.10000000000000001,3.0798946097167148,-19.21709517697867
1,6.8574173860226386,140.52754015165618
10,29.514686375349243,94.776338948068911
"""


def test_improper_tf_has_tables_and_no_norms(capsys, tmp_path):
    """(3 s^2 + 2 s + 1)/(s + 1) has no realization: its tables print, read
    off its polynomials, and every verb that measures it refuses it with
    the one conversion's message."""
    model = write_model(tmp_path / "imp.json", {"kind": "tf", "num": [1, 2, 3], "den": [1, 1]})
    grid = ["--line", "0.5", "--points", "4", "--omega-min", "0.1", "--omega-max", "10"]
    assert run(capsys, ["nyquist", model, *grid, "--uncertainty", "0.25"]) == (0, IMPROPER_NYQUIST)
    assert run(capsys, ["bode", model, *grid]) == (0, IMPROPER_BODE)
    calls = [
        ["norm", model, "--line", "0.5", "--method", "grid"],
        ["norm", model, "--strip", "0.5,1", "--method", "grid"],
        ["norm", model, "--line", "0.5"],
        ["norm", model, "--strip", "0.5,1"],
        ["gain", model, "--p", "0", "--line", "0.5"],
        ["gain", model, "--p", "0", "--strip", "0.5,1", "--certificate"],
        ["dominance", model, "--p", "0", "--rate", "0.5"],
    ]
    for argv in calls:
        code, env = run_json(capsys, argv)
        assert code == 2, argv
        assert env["error"] == {
            "type": "ImproperTransferFunction",
            "message": "numerator degree 2 exceeds denominator degree 1",
        }


def test_nyquist_rejects_a_non_finite_uncertainty(capsys, first_order):
    for value in ("nan", "inf", "-0.5"):
        assert main(["nyquist", first_order, "--line", "0.5", "--uncertainty", value]) == 3, value
        assert capsys.readouterr() == ("", "error: uncertainty scale must be finite and >= 0\n")


def test_tf_gain_reads_its_poles_off_one_schur_form_and_its_lower_end_off_its_polynomials(
    capsys, monkeypatch, tmp_path
):
    """A degree-4 tf through `gain --certificate` on a strip: its roots come
    from the two companion eigensolves of the reduction on load, its poles
    from the one real Schur form of its balanced realization (no eigensolve
    of the realization's A), and the level search's lower end is |G| by
    Horner's rule at the reported peak, within Horner's error bound of |G|
    in 50-digit arithmetic: 4 n u (cond(num) + cond(den)) relative, cond(p)
    = sum |p_k| |s|^k / |p(s)| (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 5; twice gamma_2n for complex arithmetic)."""
    import mpmath

    from stripgain import rational, strip_norm
    from stripgain.modelio import load_model
    from stripgain.regions import Strip

    num = np.real(np.polynomial.polynomial.polyfromroots([-1.0, 0.5 + 1j, 0.5 - 1j]))
    den = np.real(np.polynomial.polynomial.polyfromroots([-2 + 1.5j, -2 - 1.5j, -2.5, -4.0]))
    model = write_model(tmp_path / "g4.json", {"kind": "tf", "num": num.tolist(),
                                                "den": den.tolist()})
    roots, matrices, schurs = [], [], []
    inside = []
    poly_roots, eig, real_schur = rational.poly_roots, matkernel.eig, matkernel.real_schur

    def counting_roots(p):
        roots.append(p)
        inside.append(True)
        try:
            return poly_roots(p)
        finally:
            inside.pop()

    def counting_eig(M):
        if np.ndim(M) == 2 and not inside:
            matrices.append(np.shape(M))
        return eig(M)

    def counting_schur(M):
        schurs.append(np.shape(M))
        return real_schur(M)

    monkeypatch.setattr(rational, "poly_roots", counting_roots)
    monkeypatch.setattr(matkernel, "eig", counting_eig)
    monkeypatch.setattr(matkernel, "real_schur", counting_schur)
    code, env = run_json(capsys, ["gain", model, "--p", "0", "--strip", "0.5,1.5",
                                  "--certificate"])
    assert code == 0 and env["results"]["certificate"] is not None
    assert len(roots) <= 2
    assert matrices == []
    assert schurs.count((4, 4)) == 1
    monkeypatch.undo()

    _, G, _ = load_model(model)
    res = strip_norm(G, Strip(0.5, 1.5))
    assert env["results"]["bracket"] == list(res.bracket)
    lam = 0.5 if res.attaining_boundary == "lo" else 1.5
    s = -np.array([lam]) + 1j * np.array([res.peak_frequency])
    assert res.bracket[0] == np.abs(G.eval_unchecked(s))[0]
    with mpmath.workdps(50):
        z = mpmath.mpc(-lam, res.peak_frequency)
        want = abs(mpmath.polyval(num[::-1].tolist(), z) / mpmath.polyval(den[::-1].tolist(), z))
    poly = np.polynomial.polynomial
    cond = sum(poly.polyval(abs(s[0]), np.abs(c)) / abs(poly.polyval(s[0], c)) for c in (num, den))
    assert abs(res.bracket[0] - want) <= 4 * (len(den) - 1) * np.finfo(float).eps * cond * want
