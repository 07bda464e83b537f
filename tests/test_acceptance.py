"""End-to-end acceptance checks for the package.

Every test here gates one externally visible behavior at a stated tolerance
and prints a single [PASS]/[FAIL] line (written past pytest's capture so the
run doubles as an acceptance report).  Reference numbers marked as frozen
were computed with 40-digit mpmath arithmetic independently of this code.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
from scipy.integrate import quad

import conftest

import stripgain
from stripgain import (
    ROC,
    Line,
    Polynomial,
    RationalFunction,
    SampledSignal,
    StateSpace,
    Strip,
    convolve,
    decompose_line,
    dominance_check,
    eval_signal,
    forward,
    h2_line_norm,
    impulse_response,
    inertia,
    inverse,
    l2p_gain,
    line_norm_bisection,
    line_norm_grid,
    maxmod_slack,
    realize,
    roc_options,
    singular_value_test,
    small_gain_check,
    strip_gain,
    strip_norm,
    verify_gain_lmi,
    weighted_l2_norm,
)

# Damped oscillator 1/(s^2 + 0.2 s + 1): peak magnitude and its location
# (frozen; 1/(2 zeta sqrt(1 - zeta^2)) at sqrt(1 - 2 zeta^2) for zeta = 0.1).
RESONANCE_PEAK = 5.025189076296060377

# Roots of s^4 + 15 s^3 + 50 s^2 - 10, the feedback loop the command-line
# benchmark closes through a 0.1-second lag (frozen).
QUARTIC_ROOTS = (
    0.420746978837162011,
    -0.482249421264234506,
    -4.91865543245667775,
    -10.0198421251162498,
)


def _report(label: str, ok: bool, detail: str = "") -> None:
    line = "[%s] %s" % ("PASS" if ok else "FAIL", label)
    if detail and not ok:
        line += " :: " + detail
    conftest.write_report_line(line)
    assert ok, line


def _random_tf(rng, lam, n_lo=2, n_hi=6, margin=0.05):
    """Random real-rational function with all poles at least margin away
    from the line Re(s) = -lam."""
    while True:
        n = rng.randint(n_lo, n_hi + 1)
        poles = []
        while len(poles) < n:
            re = rng.uniform(-5.0, 3.0)
            if abs(re + lam) < margin:
                continue
            if rng.rand() < 0.5 and n - len(poles) >= 2:
                im = rng.uniform(0.2, 6.0)
                poles += [complex(re, im), complex(re, -im)]
            else:
                poles.append(complex(re, 0.0))
        den = np.real(np.polynomial.polynomial.polyfromroots(poles))
        num = rng.randn(rng.randint(1, n + 1))
        if np.max(np.abs(num)) < 1e-3:
            continue
        return RationalFunction(Polynomial(num), Polynomial(den))


def test_line_norm_reference_values():
    t0 = time.monotonic()
    first = line_norm_bisection(RationalFunction([1.0], [1.0, 1.0]), Line(0.0), 1e-8)
    t1 = time.monotonic()
    peak = line_norm_bisection(RationalFunction([1.0], [1.0, 0.2, 1.0]), Line(0.0), 1e-8)
    t2 = time.monotonic()
    ok = (
        abs(first.value - 1.0) <= 1e-6
        and abs(peak.value - RESONANCE_PEAK) <= 1e-4
        and (t1 - t0) < 1.0
        and (t2 - t1) < 1.0
    )
    _report(
        "line norm reference values (static gain 1, resonance peak)",
        ok,
        "got %.9g and %.9g in %.2fs/%.2fs" % (first.value, peak.value, t1 - t0, t2 - t1),
    )


def test_bisection_matches_dense_grid_on_random_systems():
    rng = np.random.RandomState(101)
    t0 = time.monotonic()
    worst = 0.0
    ok = True
    detail = ""
    for k in range(20):
        lam = rng.uniform(0.0, 2.0)
        G = _random_tf(rng, lam)
        b = line_norm_bisection(G, Line(lam), 1e-8)
        g = line_norm_grid(G, Line(lam))
        diff = abs(b.value - g.value)
        allowed = max(1e-6, 1e-3 * b.value)
        worst = max(worst, diff / allowed)
        if diff > allowed:
            ok = False
            detail = "draw %d: |%.9g - %.9g| > %.3g" % (k, b.value, g.value, allowed)
            break
    elapsed = time.monotonic() - t0
    if ok and elapsed >= 10.0:
        ok = False
        detail = "took %.1fs" % elapsed
    _report(
        "bisection and dense-grid line norms agree on 20 random systems",
        ok,
        detail or ("worst fraction of allowance %.3g" % worst),
    )


def test_level_crossing_detected_at_measured_magnitudes():
    rng = np.random.RandomState(103)
    t0 = time.monotonic()
    done = 0
    ok = True
    detail = ""
    while done < 50:
        lam = rng.uniform(0.0, 2.0)
        G = _random_tf(rng, lam, 2, 4)
        w0 = rng.uniform(0.0, 10.0)
        g0 = abs(complex(G.eval_unchecked(-lam + 1j * w0)))
        if g0 <= 1e-8:
            continue
        if not singular_value_test(realize(G), g0, w0, Line(lam)):
            ok = False
            detail = "missed crossing at level %.6g, omega %.6g" % (g0, w0)
            break
        done += 1
    elapsed = time.monotonic() - t0
    if ok and elapsed >= 5.0:
        ok = False
        detail = "took %.1fs" % elapsed
    _report("level crossing flagged at 50 directly measured magnitudes", ok, detail)


def test_strip_norm_dominated_by_boundary():
    rng = np.random.RandomState(109)
    done = 0
    ok = True
    detail = ""
    while done < 20:
        lo = rng.uniform(0.0, 1.0)
        hi = lo + rng.uniform(0.4, 1.5)
        strip = Strip(lo, hi)
        n = rng.randint(2, 6)
        poles = []
        while len(poles) < n:
            re = rng.uniform(-4.0, 2.0)
            if -hi - 0.05 <= re <= -lo + 0.05:
                continue
            if rng.rand() < 0.5 and n - len(poles) >= 2:
                im = rng.uniform(0.2, 5.0)
                poles += [complex(re, im), complex(re, -im)]
            else:
                poles.append(complex(re, 0.0))
        den = np.real(np.polynomial.polynomial.polyfromroots(poles))
        num = rng.randn(rng.randint(1, n + 1))
        if np.max(np.abs(num)) < 1e-3:
            continue
        G = RationalFunction(Polynomial(num), Polynomial(den))
        res = strip_norm(G, strip, method="grid")
        slack = maxmod_slack(res.value)
        omegas = np.linspace(0.0, 50.0, 400)
        for lam in strip.interior_rates(4):
            mags = np.abs(G.eval_unchecked(-lam + 1j * omegas))
            excess = float(np.max(mags)) - (res.value + slack)
            if excess > 0:
                ok = False
                detail = "interior rate %.4g exceeds boundary by %.3g" % (lam, excess)
                break
        if not ok:
            break
        done += 1
    _report("strip norm attained on the boundary for 20 random strips", ok, detail)


def test_certificates_verify_with_exact_signature():
    # indefinite Lyapunov certificates for eigenvalue counts
    rng = np.random.RandomState(105)
    done = 0
    ok = True
    detail = ""
    while done < 15:
        n = rng.randint(2, 7)
        A = rng.randn(n, n)
        lam = rng.uniform(0.0, 2.0)
        re = np.real(np.linalg.eigvals(A + lam * np.eye(n)))
        if np.min(np.abs(re)) < 1e-3:
            continue
        p = int(np.sum(re > 0))
        ss = StateSpace(A, rng.randn(n, 1), rng.randn(1, n), [[0.0]])
        cert = dominance_check(ss, p, lam)
        if (
            tuple(inertia(cert.P)) != (p, 0, n - p)
            or cert.lmi_residual > 0
            or not cert.epsilon > 0
        ):
            ok = False
            detail = "count certificate failed at n=%d p=%d" % (n, p)
            break
        done += 1
    # quadratic gain certificates at the reported level
    if ok:
        rng = np.random.RandomState(107)
        for k in range(10):
            lam = rng.uniform(0.0, 1.5)
            G = _random_tf(rng, lam, 1, 4, margin=0.3)
            ss = realize(G)
            re = np.real(np.linalg.eigvals(ss.A + lam * np.eye(ss.n)))
            p = int(np.sum(re > 0))
            cert = l2p_gain(ss, p, Line(lam), 1e-6, with_certificate=True)
            if cert.P is None:
                ok = False
                detail = "gain certificate missing at draw %d" % k
                break
            rep = verify_gain_lmi(ss, cert.P, cert.certified_gamma, lam, cert.epsilon)
            if rep.residual > 0 or tuple(rep.p_inertia) != (p, 0, ss.n - p):
                ok = False
                detail = "gain certificate fails to verify at draw %d" % k
                break
    _report(
        "count and gain certificates verify with signature (p, 0, n-p)", ok, detail
    )


def test_small_gain_certifies_feedback_dominance():
    ss = StateSpace([[1.0]], [[1.0]], [[0.5]], [[0.0]])
    one = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[1.0]])
    report = small_gain_check(ss, 1, one, 0, Strip(0.5, 1.5), 1e-8)
    ok = (
        abs(report.gamma1 - 1.0 / 3.0) <= 1e-6
        and report.conclusive
        and report.closed_p == 1
        and report.certificate_lo is not None
        and report.certificate_hi is not None
    )
    _report(
        "small gain certifies 1-dominant feedback of 0.5/(s-1) with a unit block",
        ok,
        "gamma1 %.9g conclusive %s" % (report.gamma1, report.conclusive),
    )


def _run_cli(args):
    # the child imports the stripgain this suite imported, installed or not
    src = os.path.dirname(os.path.dirname(stripgain.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "stripgain.cli"] + args,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc, time.monotonic() - t0


def test_cli_benchmark_pipeline():
    proc, elapsed = _run_cli(["example-sec5"])
    ok = proc.returncode == 0 and proc.stdout.strip().endswith(
        "robust 2-dominance: CONFIRMED"
    )
    detail = "exit %d in %.1fs" % (proc.returncode, elapsed)
    if ok:
        env = json.loads(proc.stdout[: proc.stdout.rindex("robust")])
        eigs = sorted(
            z[0] for z in env["results"]["closed_loop"]["eigenvalues"]
        )
        for got, want in zip(eigs, sorted(QUARTIC_ROOTS)):
            if abs(got - want) > 1e-3:
                ok = False
                detail = "eigenvalue %.6g vs %.6g" % (got, want)
                break
        gains = env["results"]["loop_gain"]["slope_one_gains"]
        if ok and not (
            abs(gains[0] - 1.0 / 3.0) <= 1e-5 and abs(gains[1] - 1.0 / 11.0) <= 1e-5
        ):
            ok = False
            detail = "slope-one gains %s" % (gains,)
        if ok and not any("2.8345" in note for note in env["notes"]):
            ok = False
            detail = "recorded benchmark annotation missing"
        if ok and elapsed >= 5.0:
            ok = False
            detail = "took %.1fs" % elapsed
    if ok:
        proc2, _ = _run_cli(["example-sec5", "--tau", "10"])
        if not (
            proc2.returncode == 2
            and proc2.stdout.strip().endswith("robust 2-dominance: NOT CONFIRMED")
        ):
            ok = False
            detail = "slow lag run: exit %d" % proc2.returncode
    _report(
        "command-line benchmark confirms robustness and rejects a 10x slower lag",
        ok,
        detail,
    )


def test_convolution_respects_strip_gain():
    t0 = time.monotonic()
    G = RationalFunction([1.0], Polynomial((-3.0, 2.0, 1.0)))
    ss = realize(G)
    strip = Strip(0.0, 2.0)
    gamma = strip_gain(ss, 1, strip).gamma
    ok = abs(gamma - 1.0 / 3.0) <= 1e-5
    detail = "gamma %.9g" % gamma

    dt = 0.02
    tt = np.arange(-12.0, 64.0 + dt / 2, dt)
    if ok:
        rng = np.random.RandomState(61)
        for k in range(10):
            a = rng.uniform(-2.0, 2.0)
            b = a + rng.uniform(2.0, 8.0)
            mask = (tt >= a) & (tt <= b)
            ts = tt[mask]
            core = np.zeros(ts.size)
            for _ in range(3):
                core += rng.randn() * np.sin(
                    rng.uniform(0.2, 3.0) * ts + rng.uniform(0.0, 2.0 * math.pi)
                )
            vals = np.zeros(tt.size)
            vals[mask] = np.hanning(ts.size) * core
            u = SampledSignal(t0=tt[0], dt=dt, values=vals)
            nu = weighted_l2_norm(u, strip)
            if nu == 0.0:
                continue
            ny = weighted_l2_norm(convolve(ss, strip, u), strip)
            if ny > 1.02 * gamma * nu:
                ok = False
                detail = "input %d: ratio %.6g above bound" % (k, ny / nu)
                break
    if ok:
        # a long constant input comes within 10% of the bound at the rate
        # where the gain is attained
        mask = (tt >= 0.0) & (tt <= 40.0)
        vals = np.zeros(tt.size)
        vals[mask] = 1.0
        u = SampledSignal(t0=tt[0], dt=dt, values=vals)
        edge = Line(0.0)
        ratio = weighted_l2_norm(convolve(ss, strip, u), edge) / weighted_l2_norm(
            u, edge
        )
        if ratio < 0.90 * gamma:
            ok = False
            detail = "constant input ratio %.6g below 0.9 gamma" % ratio
    elapsed = time.monotonic() - t0
    if ok and elapsed >= 30.0:
        ok = False
        detail = "took %.1fs" % elapsed
    _report(
        "convolution never beats the strip gain and a constant input nears it",
        ok,
        detail,
    )


def test_transform_round_trip_and_kernel_match():
    rng = np.random.RandomState(111)
    ok = True
    detail = ""
    done = 0
    while done < 20:
        k = rng.randint(2, 5)
        reals = np.sort(rng.uniform(-3.0, 3.0, size=k))
        if np.min(np.diff(reals)) < 0.3:
            continue
        poles = []
        for re in reals:
            if rng.rand() < 0.4:
                im = rng.uniform(0.3, 2.0)
                poles += [complex(re, im), complex(re, -im)]
            else:
                poles.append(complex(re, 0.0))
        den = np.real(np.polynomial.polynomial.polyfromroots(poles))
        num = rng.randn(rng.randint(1, len(poles)))
        F = RationalFunction(Polynomial(num), Polynomial(den))
        num_scale = max(1.0, float(np.max(np.abs(F.num.coeffs))))
        den_scale = max(1.0, float(np.max(np.abs(F.den.coeffs))))
        for roc in roc_options(F):
            back = forward(inverse(F, roc))
            lo_match = back.roc.re_lo == roc.re_lo or abs(back.roc.re_lo - roc.re_lo) <= 1e-9
            hi_match = back.roc.re_hi == roc.re_hi or abs(back.roc.re_hi - roc.re_hi) <= 1e-9
            if not (
                np.allclose(back.F.num.coeffs, F.num.coeffs, atol=1e-9 * num_scale)
                and np.allclose(back.F.den.coeffs, F.den.coeffs, atol=1e-9 * den_scale)
                and lo_match
                and hi_match
            ):
                ok = False
                detail = "round trip drifted on band (%g, %g)" % (roc.re_lo, roc.re_hi)
                break
        if not ok:
            break
        done += 1

    if ok:
        # e^{-|t|} maps to -2/(s^2 - 1) on the band (-1, 1), exactly
        from stripgain import SignalSpec, SignalTerm

        spec = SignalSpec(
            (
                SignalTerm(1.0, 0, -1.0, "causal"),
                SignalTerm(1.0, 0, 1.0, "anticausal"),
            )
        )
        pair = forward(spec)
        if not (
            tuple(pair.F.num.coeffs) == (-2.0,)
            and tuple(pair.F.den.coeffs) == (-1.0, 0.0, 1.0)
            and pair.roc.re_lo == -1.0
            and pair.roc.re_hi == 1.0
        ):
            ok = False
            detail = "two-sided exponential image wrong"

    if ok:
        G = RationalFunction([1.0], Polynomial((-3.0, 2.0, 1.0)))
        ss = realize(G)
        strip = Strip(0.0, 2.0)
        spec = inverse(G, ROC.from_strip(strip))
        for t in np.linspace(-6.0, 6.0, 100):
            err = abs(impulse_response(ss, strip, float(t)) - eval_signal(spec, float(t)))
            if err > 1e-8:
                ok = False
                detail = "kernel mismatch %.3g at t=%.3g" % (err, t)
                break
    _report(
        "transform inversion round-trips on every band and matches the kernel",
        ok,
        detail,
    )


def test_energy_norm_and_orthogonal_split():
    got = h2_line_norm(RationalFunction([1.0], [1.0, 1.0]), Line(0.0))
    ok = abs(got - math.sqrt(0.5)) <= 1e-6
    detail = "energy norm %.9g" % got
    if ok:
        G = RationalFunction([1.0], Polynomial((-3.0, 2.0, 1.0)))
        g_minus, g_plus = decompose_line(G, Line(0.0))
        n_minus = h2_line_norm(g_minus, Line(0.0))
        n_plus = h2_line_norm(g_plus, Line(0.0))

        def cross(w):
            z = g_minus.eval_unchecked(1j * w) * np.conj(g_plus.eval_unchecked(1j * w))
            return z.real

        # real part is even in omega, so twice the half-line integral
        val, _ = quad(cross, 0.0, np.inf, limit=200)
        inner = 2.0 * val / (2.0 * math.pi)
        if abs(inner) > 1e-6 * n_minus * n_plus:
            ok = False
            detail = "split parts not orthogonal: inner product %.3g" % inner
    _report(
        "energy norm reference value and orthogonality of the two-sided split",
        ok,
        detail,
    )
