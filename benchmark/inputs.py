"""Seeded model files and the operation list of each workload.

Every workload is a fixed list of CLI operations (one "round").  Its model
files and parameters come from ``--seed``; the operations that hit a known
program fault (F1, F2, F3 in README.md) run on files made from fixed seeds, so
the same operations fail in every round of every run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

WORKLOADS = ("sec5", "ss-large", "tf-small")

# Fixed seeds of the known-fault files; they never depend on --seed.
F1_SEED = 1909
F2_SEED = 12202
F3_SEED = 1990

TABLE_POINTS = 2000


@dataclass
class Op:
    """One CLI call and what the checker needs to judge its output."""

    name: str
    argv: list
    spec: dict = field(default_factory=dict)
    known_fault: str | None = None


class Inputs:
    """Writes model files under ``root`` and records their reference models."""

    def __init__(self, root: str):
        self.root = root
        self.models: dict[str, object] = {}
        os.makedirs(os.path.join(root, "models"), exist_ok=True)
        os.makedirs(os.path.join(root, "out"), exist_ok=True)

    def write(self, name: str, obj: dict, model) -> str:
        path = os.path.join(self.root, "models", name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        self.models[path] = model
        return path

    def out(self, name: str) -> str:
        return os.path.join(self.root, "out", name)


def _fmt(x: float) -> str:
    return repr(float(x))


# ----------------------------------------------------------------------------
# pole placement


def _place(rng, count: int, re_lo: float, re_hi: float, im_hi: float, pair_ok=True):
    """count poles with real parts in [re_lo, re_hi]; conjugate pairs allowed."""
    out: list[complex] = []
    while len(out) < count:
        re = rng.uniform(re_lo, re_hi)
        if pair_ok and count - len(out) >= 2 and rng.random() < 0.5:
            im = rng.uniform(0.3, im_hi)
            out += [complex(re, im), complex(re, -im)]
        else:
            out.append(complex(re, 0.0))
    return out


def _separated(points, gap: float) -> bool:
    z = np.asarray(points)
    if z.size < 2:
        return True
    d = np.abs(z[:, None] - z[None, :]) + np.eye(z.size) * 1e9
    return float(d.min()) >= gap


def _dominant_poles(rng, n: int, p: int, lo: float, hi: float, im_hi=3.0, depth=3.0,
                    gap=0.1):
    """p poles right of rate line lo (Re > -lo + 0.25), n - p left of rate
    line hi (-hi - depth < Re < -hi - 0.3), pairwise at least gap apart."""
    while True:
        poles = _place(rng, p, -lo + 0.25, 0.6, im_hi) + _place(
            rng, n - p, -hi - depth, -hi - 0.3, im_hi
        )
        if _separated(poles, gap):
            return poles


def _real_poly(roots) -> np.ndarray:
    """Ascending real coefficients of the monic polynomial with these roots."""
    return np.real(np.poly(np.asarray(roots, dtype=complex)))[::-1].copy()


# ----------------------------------------------------------------------------
# transfer functions


def _feedthrough(rng, model, rates) -> float:
    """A constant term between 0.1 and 0.4 times the smallest peak of the
    strictly proper model over the rate lines the file is used on, so that
    sup |G| on each of them is a finite-frequency peak, never the
    feedthrough limit at infinite frequency (F3 in README.md)."""
    peak = min(ref.line_sup(model, r)[0] for r in rates)
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.4) * peak


def tf_file(inp: Inputs, name: str, rng, poles, target: float, lam: float,
            feedthrough: bool, rates=()):
    """Transfer function with the given poles, n - 1 zeros kept 0.2 away
    from them and, if feedthrough, a constant term (_feedthrough) for the
    rate lines lam and rates; scaled so that sup |G| on the rate-lam line
    equals target."""
    n = len(poles)
    while True:
        zeros = _place(rng, n - 1, -4.0, 2.0, 2.0)
        if all(min(abs(z - q) for q in poles) >= 0.2 for z in zeros):
            break
    den = _real_poly(poles)
    num = _real_poly(zeros) if n > 1 else np.ones(1)
    num = num / ref.line_sup(ref.TFModel(num, den), lam)[0]
    if feedthrough:
        d = _feedthrough(rng, ref.TFModel(num, den), (lam,) + tuple(rates))
        num = np.concatenate([num, [0.0]]) + d * den
    num = num * (target / ref.line_sup(ref.TFModel(num, den), lam)[0])
    obj = {"kind": "tf", "num": num.tolist(), "den": den.tolist()}
    return inp.write(name, obj, ref.TFModel(obj["num"], obj["den"]))


# ----------------------------------------------------------------------------
# state space


def _balanced_scale(B, C, scale: float):
    """Scale the strictly proper part by scale > 0, splitting it evenly
    between B and C.  Putting it all into C would make the Hamiltonian's
    C'C block, and with it the eigenvalue band in which the program counts
    a level as crossed, grow with the square of the scale (F3 in
    README.md)."""
    root = math.sqrt(scale)
    return B * root, C * root


def ss_file(inp: Inputs, name: str, rng, poles, target: float, lam: float,
            feedthrough: bool, rates=()):
    """Real state space with the given poles in a mildly non-normal basis
    (condition number at most 4) and, if feedthrough, a D (_feedthrough) for
    the rate lines lam and rates; scaled so that sup |G| on the rate-lam line
    equals target."""
    n = len(poles)
    T = np.zeros((n, n))
    k = 0
    order = sorted(poles, key=lambda z: (z.real, z.imag))
    reals = [z for z in order if z.imag == 0.0]
    pairs = [z for z in order if z.imag > 0.0]
    for z in pairs:
        T[k:k + 2, k:k + 2] = [[z.real, z.imag], [-z.imag, z.real]]
        k += 2
    for z in reals:
        T[k, k] = z.real
        k += 1
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = Q1 @ np.diag(np.exp(rng.uniform(math.log(0.5), math.log(2.0), n))) @ Q2
    A = S @ T @ np.linalg.inv(S)
    B = rng.standard_normal((n, 1))
    C = rng.standard_normal((1, n))
    D = np.zeros((1, 1))
    B, C = _balanced_scale(B, C, 1.0 / ref.line_sup(ref.SSModel(A, B, C, D), lam)[0])
    if feedthrough:
        D[0, 0] = _feedthrough(rng, ref.SSModel(A, B, C, D), (lam,) + tuple(rates))
    scale = target / ref.line_sup(ref.SSModel(A, B, C, D), lam)[0]
    B, C = _balanced_scale(B, C, scale)
    D = D * scale
    obj = {"kind": "ss", "A": A.tolist(), "B": B.tolist(), "C": C.tolist(), "D": D.tolist()}
    return inp.write(name, obj, ref.SSModel(obj["A"], obj["B"], obj["C"], obj["D"]))


def leadlag_ss_file(inp: Inputs, name: str, rng, n: int, lam: float):
    """2 (s + z1)/(s + p1) ... (s + zn)/(s + pn) as a cascade of n first-order
    sections in a basis of condition number at most 4, with |zk - lam| <
    pk - lam: every section has modulus below 1 on the rate-lam line and
    tends to 1, so sup |G| there is the feedthrough limit 2 at infinite
    frequency."""
    A, B, C, D = np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), np.array([[2.0]])
    for k in range(n):
        p = rng.uniform(lam + 0.6, lam + 4.0)
        z = lam + rng.uniform(-0.9, 0.9) * (p - lam)
        # (s + z)/(s + p) = 1 + (z - p)/(s + p), fed by the sections before it
        A2 = np.zeros((k + 1, k + 1))
        A2[:k, :k] = A
        A2[k, :k] = C[0]
        A2[k, k] = -p
        A, B, C = A2, np.vstack([B, D]), np.hstack([C, [[z - p]]])
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = Q1 @ np.diag(np.exp(rng.uniform(math.log(0.5), math.log(2.0), n))) @ Q2
    obj = {"kind": "ss", "A": (S @ A @ np.linalg.inv(S)).tolist(), "B": (S @ B).tolist(),
           "C": (C @ np.linalg.inv(S)).tolist(), "D": D.tolist()}
    return inp.write(name, obj, ref.SSModel(obj["A"], obj["B"], obj["C"], obj["D"]))


# ----------------------------------------------------------------------------
# workloads


def _norm_ops(tag, path, lo, hi, methods, fault=None):
    """`norm` on the rate-lo line and, unless hi is None, on the strip."""
    ops = []
    for method in methods:
        ops.append(Op(
            "%s/norm-line-%s" % (tag, method),
            ["norm", path, "--line", _fmt(lo), "--method", method],
            {"verb": "norm", "model": path, "line": lo, "method": method},
            fault,
        ))
        if hi is not None:
            ops.append(Op(
                "%s/norm-strip-%s" % (tag, method),
                ["norm", path, "--strip", "%s,%s" % (_fmt(lo), _fmt(hi)), "--method", method],
                {"verb": "norm", "model": path, "strip": (lo, hi), "method": method},
                fault,
            ))
    return ops


def _dominance_op(tag, path, p, rate, fault=None):
    return Op(
        "%s/dominance" % tag,
        ["dominance", path, "--p", str(p), "--rate", _fmt(rate)],
        {"verb": "dominance", "model": path, "p": p, "rate": rate},
        fault,
    )


def _gain_op(tag, path, p, line=None, strip=None, certificate=False, fault=None):
    argv = ["gain", path, "--p", str(p)]
    spec = {"verb": "gain", "model": path, "p": p, "certificate": certificate}
    if line is not None:
        argv += ["--line", _fmt(line)]
        spec["line"] = line
        kind = "line"
    else:
        argv += ["--strip", "%s,%s" % (_fmt(strip[0]), _fmt(strip[1]))]
        spec["strip"] = strip
        kind = "strip"
    if certificate:
        argv.append("--certificate")
    return Op("%s/gain-%s%s" % (tag, kind, "-cert" if certificate else ""), argv, spec, fault)


def _smallgain_op(tag, m1, p1, m2, p2, lo, hi, fault=None):
    return Op(
        "%s/smallgain" % tag,
        ["smallgain", m1, m2, "--p1", str(p1), "--p2", str(p2),
         "--strip", "%s,%s" % (_fmt(lo), _fmt(hi))],
        {"verb": "smallgain", "models": (m1, m2), "p": (p1, p2), "strip": (lo, hi)},
        fault,
    )


def _partner_tf(inp, name, rng, lo, hi, gamma_first, product):
    """First-order or second-order stable tf on the strip, scaled so that the
    product of strip gains with the first model equals product."""
    n = int(rng.integers(1, 3))
    poles = _place(rng, n, -hi - 2.5, -hi - 0.5, 2.0)
    den = _real_poly(poles)
    num = np.array([1.0])
    g = ref.strip_sup(ref.TFModel(num, den), lo, hi)[0]
    num = num * (product / (gamma_first * g))
    obj = {"kind": "tf", "num": num.tolist(), "den": den.tolist()}
    return inp.write(name, obj, ref.TFModel(obj["num"], obj["den"]))


def _partner_ss(inp, name, rng, lo, hi, gamma_first, product):
    poles = _place(rng, 4, -hi - 3.0, -hi - 0.5, 3.0)
    path = ss_file(inp, name, rng, poles, 1.0, lo, False)
    model = inp.models[path]
    g = ref.strip_sup(model, lo, hi)[0]
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    B, C = _balanced_scale(np.array(obj["B"]), np.array(obj["C"]),
                           product / (gamma_first * g))
    obj["B"], obj["C"] = B.tolist(), C.tolist()
    return inp.write(name, obj, ref.SSModel(obj["A"], obj["B"], obj["C"], obj["D"]))


def sec5_ops(inp: Inputs, rng):
    """example-sec5 at the defaults, at --tau 10, and at seeded configurations
    around the defaults; each configuration keeps every slope loop and the
    lag-closed loop 0.02 clear of the rate lines it is counted against."""
    configs = [dict(tau=0.1, d=5.0, ki=-1.0, lo=1.0, hi=2.0, slopes=11),
               dict(tau=10.0, d=5.0, ki=-1.0, lo=1.0, hi=2.0, slopes=11)]
    slope_cycle = (7, 9, 11, 13, 9, 11, 13, 11)
    taus = [math.exp(rng.uniform(math.log(0.03), math.log(0.3))) for _ in range(6)]
    taus += [rng.uniform(2.0, 8.0) for _ in range(2)]
    for k, tau in enumerate(taus):
        while True:
            lo = rng.uniform(0.8, 1.2)
            c = dict(tau=tau, d=rng.uniform(4.0, 6.0), ki=rng.uniform(-1.3, -0.7),
                     lo=lo, hi=lo + rng.uniform(0.8, 1.2), slopes=slope_cycle[k])
            if _sec5_clear(c):
                configs.append(c)
                break
    ops = []
    for k, c in enumerate(configs):
        argv = ["example-sec5"]
        if k:
            argv += ["--tau", _fmt(c["tau"]), "--d", _fmt(c["d"]), "--ki", _fmt(c["ki"]),
                     "--strip", "%s,%s" % (_fmt(c["lo"]), _fmt(c["hi"])),
                     "--slopes", str(c["slopes"])]
        ops.append(Op("sec5-%d" % k, argv, dict(c, verb="example-sec5")))
    return ops


def _sec5_clear(c) -> bool:
    lo, hi = c["lo"], c["hi"]
    rates = (lo, 0.5 * (lo + hi), hi)
    closed = ref.sec5_closed_poles(c["tau"], c["d"], c["ki"])
    if any(np.min(np.abs(closed.real + r)) < 0.02 for r in rates):
        return False
    for k in np.linspace(0.0, 1.0, c["slopes"]):
        poles = ref.sec5_slope_model(k, c["d"], c["ki"]).poles
        for r in (lo, hi):
            shifted = poles.real + r
            if np.min(np.abs(shifted)) < 0.02 or np.count_nonzero(shifted > 0) != 2:
                return False
    return True


def ss_large_ops(inp: Inputs, rng):
    """Stable and p-dominant ss files with 10 to 80 states, plus the F1 and
    F3 files.

    Three files of each size up to 40 states and one of 80: enough
    operations per round that the median and the 90th percentile fall
    inside groups of like operations rather than between them.
    """
    ops = []
    for n, copies in ((10, 3), (20, 3), (40, 3), (80, 1)):
        for k in range(copies):
            lo = rng.uniform(0.4, 0.8)
            hi = lo + rng.uniform(0.6, 1.0)
            r0 = rng.uniform(0.0, 0.3)
            p = 1 + (n + k) % 2
            tag = "ss%d-%d" % (n, k)
            stable = ss_file(inp, tag + "-stable", rng, _place(rng, n, -4.0, -0.6, 4.0),
                             2.0, r0, rng.random() < 0.3)
            dom = ss_file(inp, tag + "-dominant", rng,
                          _dominant_poles(rng, n, p, lo, hi, 4.0, gap=0.0),
                          2.0, lo, rng.random() < 0.3, (hi,))
            ops.append(_gain_op(tag + "-stable", stable, 0, line=r0))
            ops.append(_gain_op(tag + "-dominant", dom, p, strip=(lo, hi)))
            ops.append(_dominance_op(tag + "-dominant", dom, p, 0.5 * (lo + hi)))
            if n == 80:
                continue
            g = ref.strip_sup(inp.models[dom], lo, hi)[0]
            for product, what in ((0.5, "conclusive"), (2.0, "inconclusive")):
                partner = _partner_ss(inp, "%s-partner-%s" % (tag, what), rng, lo, hi, g,
                                      product)
                ops.append(_smallgain_op("%s-%s" % (tag, what), dom, p, partner, 0, lo, hi))
    # F3: a feedthrough-limited supremum on a 10-state file.
    path = leadlag_ss_file(inp, "f3-leadlag-10", np.random.default_rng(F3_SEED), 10, 0.5)
    ops.append(_gain_op("f3-leadlag-ss10", path, 0, line=0.5, fault="F3"))
    # F1: the ss -> tf round trip behind `norm`, on files from a fixed seed.
    frng = np.random.default_rng(F1_SEED)
    for n, method in ((10, "bisection"), (20, "bisection"), (40, "grid"), (80, "grid")):
        path = ss_file(inp, "f1-stable-%d" % n, frng, _place(frng, n, -4.0, -0.6, 4.0),
                       4.0, 0.0, False)
        ops += _norm_ops("f1-ss%d" % n, path, 0.0, None, (method,), "F1")
        if n == 10:
            ops.append(_gain_op("f1-ss10", path, 0, line=0.0))
    return ops


def _tf_bisection_ops(inp, tag, rng, path, p, lo, hi, fault=None):
    """Operations that rest on the Hamiltonian level search."""
    ops = _norm_ops(tag, path, lo, hi, ("bisection",), fault)
    ops.append(_gain_op(tag, path, p, strip=(lo, hi), certificate=True, fault=fault))
    g = ref.strip_sup(inp.models[path], lo, hi)[0]
    product = 0.5 if p < 2 else 2.0
    partner = _partner_tf(inp, tag + "-partner", rng, lo, hi, g, product)
    ops.append(_smallgain_op(tag, path, p, partner, 0, lo, hi, fault))
    return ops


def tf_small_ops(inp: Inputs, rng):
    """tf files of degree 2 to 8 with p in {0, 1, 2}, plus fixed files for
    the faults F2 and F3.

    Level-search operations (bisection norms, gain, smallgain) run on the
    seeded files of degree 2 only: from degree 3 up their brackets miss the
    supremum on a seed-dependent share of files (F3), so they run on fixed
    files of degree 4 to 8 instead.  dominance runs on seeded files up to
    degree 7 for the same reason (F2 at degree 8).
    """
    ops = []
    for n in range(2, 9):
        for p in (0, 1, 2):
            lo = rng.uniform(0.3, 0.7)
            hi = lo + rng.uniform(0.6, 1.2)
            tag = "tf-n%d-p%d" % (n, p)
            path = tf_file(inp, tag, rng, _dominant_poles(rng, n, p, lo, hi, 2.0, 2.0),
                           math.exp(rng.uniform(math.log(0.5), math.log(5.0))), lo,
                           rng.random() < 0.25, (hi,))
            ops += _norm_ops(tag, path, lo, hi, ("grid",))
            if n <= 7:
                ops.append(_dominance_op(tag, path, p, 0.5 * (lo + hi)))
            if n == 2:
                ops += _tf_bisection_ops(inp, tag, rng, path, p, lo, hi)
            u = rng.uniform(0.05, 0.5)
            ops.append(Op(tag + "/nyquist",
                          ["nyquist", path, "--line", _fmt(lo), "--points", str(TABLE_POINTS),
                           "--uncertainty", _fmt(u), "--out", inp.out(tag + "-nyquist.csv")],
                          {"verb": "nyquist", "model": path, "line": lo, "uncertainty": u,
                           "points": TABLE_POINTS, "out": inp.out(tag + "-nyquist.csv")}))
            ops.append(Op(tag + "/bode",
                          ["bode", path, "--line", _fmt(lo), "--points", str(TABLE_POINTS),
                           "--out", inp.out(tag + "-bode.csv")],
                          {"verb": "bode", "model": path, "line": lo,
                           "points": TABLE_POINTS, "out": inp.out(tag + "-bode.csv")}))
    # F3: level searches on companion realizations of degree 4 to 8.
    frng = np.random.default_rng(F3_SEED)
    for n, p in ((4, 0), (5, 1), (6, 2), (7, 0), (8, 1)):
        lo, hi = 0.5, 1.5
        tag = "f3-n%d-p%d" % (n, p)
        path = tf_file(inp, tag, frng, _dominant_poles(frng, n, p, lo, hi, 2.0, 2.0),
                       2.0, lo, False)
        ops += _tf_bisection_ops(inp, tag, frng, path, p, lo, hi, "F3")
    # F3 also: a supremum that is the feedthrough limit at infinite frequency.
    num, den = [16.0, 13.5, 3.25], [21.0, 8.7, 1.0]
    path = inp.write("f3-feedthrough", {"kind": "tf", "num": num, "den": den},
                     ref.TFModel(num, den))
    ops += _norm_ops("f3-feedthrough", path, 0.5, None, ("bisection",), "F3")
    # F2: dominance and gain at p = 1 on degree-8 files with one pole at
    # +0.17 and the rest at Re <= -2.69.
    frng = np.random.default_rng(F2_SEED)
    for k in range(5):
        poles = [complex(0.17, 0.0)] + _place(frng, 7, -6.0, -2.69, 3.0)
        tag = "f2-n8-p1-%d" % k
        path = tf_file(inp, tag, frng, poles, 2.0, 0.5, False)
        ops.append(_dominance_op(tag, path, 1, 1.0, "F2"))
        ops.append(_gain_op(tag, path, 1, strip=(0.5, 1.5), fault="F2"))
    return ops


ROUNDS = {"sec5": sec5_ops, "ss-large": ss_large_ops, "tf-small": tf_small_ops}


def build(workload: str, seed: int, root: str):
    inp = Inputs(root)
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
    return inp, ROUNDS[workload](inp, rng)
