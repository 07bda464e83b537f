"""Judges every CLI output against the independent reference.

``Checker(models).check(op, outcome)`` returns a list of problems; an empty list
means the output is correct.  The properties checked are the ones the
methods promise: a bisection bracket top is never below a measured |G| and
its midpoint lies within the stated tolerance of the reference supremum; a
grid value never exceeds the reference supremum; verdicts and p match
eigenvalue counts made here; response tables match the reference at the
printed frequencies; a printed certificate satisfies the gain inequality
assembled here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np

import reference as ref

TOL = 1e-6            # the CLI's default --tol
REL = 1e-9            # slack for values the reference computes to ~1e-15
GRID_LOW = 1e-6       # a grid value may sit this far (relative) below the sup
TABLE_REL = 1e-9      # response-table entries against the reference
PHASE_DEG = 1e-7
LMI_REL = 1e-9


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str


class Checker:
    def __init__(self, models):
        self.models = models
        self._sup_cache = {}

    # -- reference values, cached per (file, rate) ------------------------

    def sup(self, key, model, lam):
        return self._line_sup(key, model, lam)[0]

    def _line_sup(self, key, model, lam):
        k = (key, float(lam))
        if k not in self._sup_cache:
            self._sup_cache[k] = ref.line_sup(model, lam)
        return self._sup_cache[k]

    def strip_sup(self, key, model, lo, hi):
        return ref.strip_sup(model, lo, hi,
                             lambda m, lam: self._line_sup(key, m, lam))

    # -- entry point --------------------------------------------------------

    def check(self, op, outcome: Outcome) -> list:
        verb = op.spec["verb"]
        try:
            return getattr(self, "_" + verb.replace("-", "_"))(op.spec, outcome)
        except ref.ReferenceError as exc:
            return ["reference cannot judge this input: %s" % exc]
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return ["malformed output: %s: %s" % (type(exc).__name__, exc)]

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _envelope(outcome, problems, want_rc=0):
        if outcome.rc != want_rc:
            problems.append("exit %r, expected %d (%s)" % (
                outcome.rc, want_rc, outcome.stderr.strip()[:200]))
            return None
        return json.loads(outcome.stdout)

    @staticmethod
    def _bisection_value(problems, what, value, bracket, tol, S):
        lo, hi = bracket
        if hi < S * (1.0 - 1e-12):
            problems.append("%s: bracket top %.17g below measured |G| %.17g" % (what, hi, S))
        if abs(value - S) > tol + REL * S:
            problems.append("%s: value %.17g not within %g of reference %.17g"
                            % (what, value, tol, S))
        if hi - lo > tol * (1.0 + 1e-9) or lo > hi:
            problems.append("%s: bracket %r wider than tolerance %g" % (what, bracket, tol))

    @staticmethod
    def _grid_value(problems, what, value, S):
        if value > S * (1.0 + REL) + 1e-300:
            problems.append("%s: grid value %.17g exceeds reference supremum %.17g"
                            % (what, value, S))
        elif value < S * (1.0 - GRID_LOW):
            problems.append("%s: grid value %.17g misses reference supremum %.17g"
                            % (what, value, S))

    @staticmethod
    def _close(problems, what, got, want, rel=1e-12):
        if got is None or abs(got - want) > rel * max(1.0, abs(want)):
            problems.append("%s: %r, expected %.17g" % (what, got, want))

    def _dominant_everywhere(self, model, p, lo, hi):
        for lam in np.linspace(lo, hi, 11):
            if ref.count_right(model.poles, lam) != p:
                raise ref.ReferenceError("input is not %d-dominant at rate %g" % (p, lam))

    # -- verbs --------------------------------------------------------------

    def _norm(self, spec, outcome):
        problems = []
        env = self._envelope(outcome, problems)
        if env is None:
            return problems
        res = env["results"]
        key = spec["model"]
        model = self.models[key]
        method = spec["method"]
        if "line" in spec:
            S = self.sup(key, model, spec["line"])
            if method == "bisection":
                self._bisection_value(problems, "norm", res["value"], res["bracket"],
                                      res["tolerance"], S)
            else:
                self._grid_value(problems, "norm", res["value"], S)
            return problems
        lo, hi = spec["strip"]
        S, edges = self.strip_sup(key, model, lo, hi)
        bv = res["boundary_values"]
        for what, v, Se in (("lo edge", bv[0], edges[0]), ("hi edge", bv[1], edges[1])):
            if method == "bisection":
                if abs(v - Se) > TOL + REL * Se:
                    problems.append("%s: value %.17g not within %g of %.17g" % (what, v, TOL, Se))
            else:
                self._grid_value(problems, what, v, Se)
        att = 0 if bv[0] >= bv[1] else 1
        if res["attaining_boundary"] != ("lo", "hi")[att] or res["value"] != bv[att]:
            problems.append("strip value/attaining boundary inconsistent with boundary values")
        if method == "bisection":
            self._bisection_value(problems, "strip", res["value"], res["bracket"],
                                  res["tolerance"], edges[att])
        return problems

    def _dominance(self, spec, outcome):
        problems = []
        model = self.models[spec["model"]]
        count = ref.count_right(model.poles, spec["rate"])
        if count != spec["p"]:
            raise ref.ReferenceError("input is not %d-dominant" % spec["p"])
        env = self._envelope(outcome, problems)
        if env is None:
            return problems
        res = env["results"]
        if res["p"] != count or res["dominant"] is not True or res["rate"] != spec["rate"]:
            problems.append("dominance verdict %r does not match count %d" % (res, count))
        if not (res["epsilon"] > 0 and res["lmi_residual"] <= 0):
            problems.append("certificate margins epsilon=%r residual=%r"
                            % (res["epsilon"], res["lmi_residual"]))
        return problems

    def _gain(self, spec, outcome):
        problems = []
        key = spec["model"]
        model = self.models[key]
        p = spec["p"]
        if "line" in spec:
            lo = hi = spec["line"]
        else:
            lo, hi = spec["strip"]
        self._dominant_everywhere(model, p, lo, hi)
        env = self._envelope(outcome, problems)
        if env is None:
            return problems
        res = env["results"]
        if res["p"] != p:
            problems.append("p %r, expected %d" % (res["p"], p))
        if "line" in spec:
            S = self.sup(key, model, lo)
            self._bisection_value(problems, "gain", res["gamma"], res["bracket"], TOL, S)
            S_att, rate = S, lo
        else:
            S, edges = self.strip_sup(key, model, lo, hi)
            bg = res["boundary_gammas"]
            for what, v, Se in (("lo edge", bg[0], edges[0]), ("hi edge", bg[1], edges[1])):
                if abs(v - Se) > TOL + REL * Se:
                    problems.append("%s: gain %.17g not within %g of %.17g" % (what, v, TOL, Se))
            att = 0 if bg[0] >= bg[1] else 1
            S_att, rate = edges[att], (lo, hi)[att]
            if res["gamma"] != bg[att] or res["rate"] != rate:
                problems.append("strip gain/rate inconsistent with boundary gains")
            self._bisection_value(problems, "gain", res["gamma"], res["bracket"], TOL, S_att)
        self._close(problems, "small_gain_margin", res["small_gain_margin"], 1.0 / res["gamma"])
        cert = res["certificate"]
        if cert is None:
            return problems
        if not spec["certificate"]:
            problems.append("certificate printed although none was requested")
            return problems
        gamma_c = cert["certified_gamma"]
        if gamma_c < res["gamma"] or gamma_c < S_att * (1.0 - 1e-12):
            problems.append("certified level %.17g below the gain" % gamma_c)
        A, B, C, D = model.realization()
        P = np.array(cert["P"], dtype=float)
        top, scale = ref.gain_lmi_max_eig(A, B, C, D, P, gamma_c, res["rate"])
        if top > LMI_REL * scale:
            problems.append("gain inequality not satisfied: max eigenvalue %.3e" % top)
        sig = ref.signature(P)
        if sig != (p, 0, A.shape[0] - p):
            problems.append("certificate signature %r, expected (%d, 0, %d)"
                            % (sig, p, A.shape[0] - p))
        return problems

    def _smallgain(self, spec, outcome):
        problems = []
        (k1, k2), (p1, p2) = spec["models"], spec["p"]
        lo, hi = spec["strip"]
        m1, m2 = self.models[k1], self.models[k2]
        self._dominant_everywhere(m1, p1, lo, hi)
        self._dominant_everywhere(m2, p2, lo, hi)
        g1 = self.strip_sup(k1, m1, lo, hi)[0]
        g2 = self.strip_sup(k2, m2, lo, hi)[0]
        if abs(g1 * g2 - 1.0) < 0.1:
            raise ref.ReferenceError("gain product too close to one")
        env = self._envelope(outcome, problems)
        if env is None:
            return problems
        res = env["results"]
        for what, v, S in (("gamma1", res["gamma1"], g1), ("gamma2", res["gamma2"], g2)):
            if abs(v - S) > TOL + REL * S:
                problems.append("%s %.17g not within %g of %.17g" % (what, v, TOL, S))
        self._close(problems, "product", res["product"], res["gamma1"] * res["gamma2"])
        conclusive = g1 * g2 < 1.0
        if res["conclusive"] is not conclusive:
            problems.append("conclusive=%r, reference product %.6g"
                            % (res["conclusive"], g1 * g2))
        elif conclusive:
            poles = ref.feedback_poles(m1, m2)
            counts = [ref.count_right(poles, lam) for lam in (lo, hi)]
            if counts != [p1 + p2] * 2 or res["closed_p"] != p1 + p2:
                problems.append("closed_p %r, reference counts %r" % (res["closed_p"], counts))
        elif res["closed_p"] is not None or res["message"] not in env["warnings"]:
            problems.append("inconclusive report without warning or with closed_p")
        return problems

    def _table(self, spec, outcome, header):
        problems = []
        env = self._envelope(outcome, problems)
        if env is None:
            return problems, None, None, None
        res = env["results"]
        with open(spec["out"], "rb") as fh:
            raw = fh.read()
        if res["sha256"] != hashlib.sha256(raw).hexdigest() or res["path"] != spec["out"]:
            problems.append("envelope does not describe the written table")
        rows = list(csv.reader(io.StringIO(raw.decode())))
        if rows[0] != header.split(","):
            problems.append("header %r" % rows[0])
        data = np.array([[float(x) for x in r] for r in rows[1:]])
        w = data[:, 0]
        if not (res["rows"] == len(data) == spec["points"]):
            problems.append("row count %d" % len(data))
        if not (w[0] == 0.0 and np.all(np.diff(w) > 0)
                and abs(w[1] - 1e-2) <= 1e-12 and abs(w[-1] - 1e2) <= 1e-10):
            problems.append("frequency column is not 0 then 1e-2 .. 1e2 increasing")
        model = self.models[spec["model"]]
        G = model.eval(-spec["line"] + 1j * w)
        for k in range(0, len(w), 100):
            exact = model.eval_exact(complex(-spec["line"], w[k]))
            if abs(exact - G[k]) > 1e-12 * max(abs(exact), 1e-300):
                raise ref.ReferenceError("factored evaluator disagrees with 40 digits")
        return problems, data, G, res

    def _nyquist(self, spec, outcome):
        problems, data, G, res = self._table(spec, outcome, "omega,re,im,mag,disk_radius")
        if data is None:
            return problems
        scale = TABLE_REL * (1.0 + np.abs(G))
        for col, want in ((1, G.real), (2, G.imag), (3, np.abs(G)),
                          (4, spec["uncertainty"] * np.abs(G))):
            bad = np.abs(data[:, col] - want) > scale
            if np.any(bad):
                k = int(np.argmax(bad))
                problems.append("row %d column %d: %.17g, reference %.17g"
                                % (k, col, data[k, col], want[k]))
        margin = float(np.min(np.abs(G + 1.0) - spec["uncertainty"] * np.abs(G)))
        if abs(res["min_critical_margin"] - margin) > TABLE_REL * (1.0 + abs(margin)):
            problems.append("min_critical_margin %.17g, reference %.17g"
                            % (res["min_critical_margin"], margin))
        if res["critical_point_excluded"] is not (margin > 0):
            problems.append("critical_point_excluded disagrees with the margin")
        return problems

    def _bode(self, spec, outcome):
        problems, data, G, _ = self._table(spec, outcome, "omega,mag_db,phase_deg")
        if data is None:
            return problems
        mag_db = 20.0 * np.log10(np.abs(G))
        if np.any(np.abs(data[:, 1] - mag_db) > 1e-7):
            problems.append("magnitude column differs from the reference by %.3e dB"
                            % float(np.max(np.abs(data[:, 1] - mag_db))))
        dphase = (data[:, 2] - np.degrees(np.angle(G)) + 180.0) % 360.0 - 180.0
        if np.any(np.abs(dphase) > PHASE_DEG):
            problems.append("phase column differs from the reference by %.3e deg"
                            % float(np.max(np.abs(dphase))))
        return problems

    def _example_sec5(self, spec, outcome):
        problems = []
        tau, d, ki, lo, hi = spec["tau"], spec["d"], spec["ki"], spec["lo"], spec["hi"]
        rates = (lo, 0.5 * (lo + hi), hi)
        roots = ref.sec5_closed_poles(tau, d, ki)
        counts = [ref.count_right(roots, lam) for lam in rates]
        confirmed = counts == [2, 2, 2]
        body, _, verdict_line = outcome.stdout.rstrip("\n").rpartition("\n")
        want_rc = 0 if confirmed else 2
        env = self._envelope(Outcome(outcome.rc, body, outcome.stderr), problems, want_rc)
        if env is None:
            return problems
        res = env["results"]
        verdict = "CONFIRMED" if confirmed else "NOT CONFIRMED"
        if res["verdict"] != verdict or verdict_line != "robust 2-dominance: " + verdict:
            problems.append("verdict %r, reference counts %r" % (res["verdict"], counts))
        got_counts = [c["right_of_line"] for c in res["closed_loop"]["counts"]]
        if got_counts != counts:
            problems.append("closed-loop counts %r, reference %r" % (got_counts, counts))
        eig = np.array([complex(a, b) for a, b in res["closed_loop"]["eigenvalues"]])
        if len(eig) != len(roots) or any(
            np.min(np.abs(roots - z)) > 1e-6 * (1.0 + abs(z)) for z in eig
        ):
            problems.append("closed-loop eigenvalues differ from the roots of "
                            "s^2 (s + d)(1 + tau s) + ki")
        # sector slope sweep, per boundary line
        slopes = np.linspace(0.0, 1.0, spec["slopes"])
        gains = np.array([[self.sup(("sec5", k, d, ki), ref.sec5_slope_model(k, d, ki), lam)
                           for k in slopes] for lam in (lo, hi)])
        lg = res["loop_gain"]
        for e in (0, 1):
            if abs(lg["boundary_gammas"][e] - gains[e].max()) > TOL + REL * gains[e].max():
                problems.append("loop gain on edge %d: %.17g, reference %.17g"
                                % (e, lg["boundary_gammas"][e], gains[e].max()))
            if abs(lg["slope_one_gains"][e] - gains[e, -1]) > TOL + REL * gains[e, -1]:
                problems.append("slope-one gain on edge %d: %.17g, reference %.17g"
                                % (e, lg["slope_one_gains"][e], gains[e, -1]))
        top = float(gains.max())
        if lg["gamma"] != max(lg["boundary_gammas"]):
            problems.append("loop gamma is not the larger boundary gain")
        at = int(np.argmin(np.abs(slopes - lg["slope_at_max"])))
        if gains[:, at].max() < top - 2 * TOL:
            problems.append("slope_at_max %r is not a worst slope" % lg["slope_at_max"])
        self._close(problems, "margin", res["margin"], 1.0 / lg["gamma"])
        # lag block: 0-dominant on the strip exactly when tau * hi < 1
        if tau * hi < 1.0:
            lag = ref.sec5_lag_model(tau)
            S, edges = self.strip_sup(("lag", tau), lag, lo, hi)
            lgain = res["lag_gain"]
            if lgain is None:
                problems.append("lag strip gain missing")
                return problems
            if abs(lgain["gamma"] - S) > TOL + REL * S:
                problems.append("lag gain %.17g, reference %.17g" % (lgain["gamma"], S))
            sg = res["small_gain"]
            self._close(problems, "small-gain product", sg["product"],
                        lgain["gamma"] * lg["gamma"])
            if sg["satisfied"] is not (sg["product"] < 1.0):
                problems.append("small-gain satisfied flag disagrees with the product")
        elif res["lag_gain"] is not None or res["small_gain"] is not None:
            problems.append("lag strip gain reported for a lag that is not 0-dominant")
        return problems
