"""Command line front end.

Verbs: norm, dominance, gain, smallgain, nyquist, bode, laplace,
example-sec5.  Every run prints one JSON envelope to stdout (the nyquist and
bode verbs print CSV instead when no --out path is given).  Exit codes:
0 success (including an inconclusive test reported with a warning),
2 analysis failure, 3 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .dominance import (
    classify_attractors,
    dominance_check,
    l2p_gain,
    robust_dominance,
    small_gain_check,
    strip_gain,
)
from .errors import (
    InvalidInput,
    MarginalRate,
    NotPDominant,
    NotPDominantAtSlope,
    StripgainError,
    Unsupported,
)
from .laplace import (
    ROC,
    SignalSpec,
    SignalTerm,
    forward,
    inverse,
    roc_options,
)
from .modelio import float_repr, json_text, load_model, sha256_hex
from .regions import Line, Strip
from .statespace import as_state_space, tf_of
from .stripnorm import frequency_response_data, line_norm_bisection, line_norm_grid, strip_norm

EXIT_OK = 0
EXIT_ANALYSIS = 2
EXIT_INPUT = 3

NYQUIST_HEADER = "omega,re,im,mag,disk_radius"
BODE_HEADER = "omega,mag_db,phase_deg"

# Recorded benchmark values for the lag-perturbed double-integrator loop.
# example-sec5 prints them as a note when run on exactly that configuration;
# this implementation does not reproduce them (see the computed results next
# to the note).
SEC5_STRIP = (1.0, 2.0)
SEC5_LAG_NORMS = ("1.1111", "1.0526")
SEC5_LOOP_GAINS = ("0.3528", "0.1414")
SEC5_MARGIN = "2.8345"


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


def _emit(envelope: dict) -> None:
    sys.stdout.write(json_text(envelope) + "\n")


def _envelope(command: str, inputs, results, warnings, notes) -> dict:
    return {
        "command": command,
        "inputs": [{"path": p, "sha256": d} for (p, d) in inputs],
        "results": results,
        "warnings": list(warnings),
        "notes": list(notes),
    }


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidInput("%s must be two comma-separated numbers, got %r" % (what, text))
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise InvalidInput("%s must be numeric, got %r" % (what, text)) from exc


def _region_from_args(args, warnings):
    if getattr(args, "line", None) is not None:
        return Line(args.line)
    lo, hi = _parse_pair(args.strip, "--strip")
    if lo == hi:
        warnings.append(
            "strip rates coincide; analyzing the single line at rate %s"
            % float_repr(lo)
        )
        return Line(lo)
    return Strip(lo, hi)


def _model_ss(path: str):
    """Load a model as a state-space system (a tf realized), and its digest."""
    _, system, digest = load_model(path)
    return as_state_space(system), digest


def _norm_result_fields(res) -> dict:
    out = {
        "value": res.value,
        "method": res.method,
        "peak_frequency": res.peak_frequency,
    }
    if res.tolerance is not None:
        out["tolerance"] = res.tolerance
    if res.bracket is not None:
        out["bracket"] = list(res.bracket)
    return out


def cmd_norm(args) -> int:
    warnings: list[str] = []
    system, digest = _model_ss(args.model)
    region = _region_from_args(args, warnings)
    if isinstance(region, Line):
        if args.method == "grid":
            res = line_norm_grid(system, region)
        else:
            res = line_norm_bisection(system, region, args.tol)
        results = {"mode": "line", "rate": region.lam, "real_part": region.real_part}
        results.update(_norm_result_fields(res))
    else:
        res = strip_norm(system, region, method=args.method, tol=args.tol)
        results = {
            "mode": "strip",
            "rates": [region.lo, region.hi],
        }
        results.update(_norm_result_fields(res))
        results["attaining_boundary"] = res.attaining_boundary
        results["boundary_values"] = list(res.boundary_values)
    _emit(_envelope("norm", [(args.model, digest)], results, warnings, []))
    return EXIT_OK


def cmd_dominance(args) -> int:
    ss, digest = _model_ss(args.model)
    cert = dominance_check(ss, args.p, args.rate)
    results = {
        "p": cert.p,
        "rate": cert.rate,
        "dominant": True,
        "epsilon": cert.epsilon,
        "lmi_residual": cert.lmi_residual,
        "classification": classify_attractors(cert.p),
    }
    _emit(_envelope("dominance", [(args.model, digest)], results, [], []))
    return EXIT_OK


def _gain_cert_fields(cert, system) -> dict:
    out = {
        "gamma": cert.gamma,
        "rate": cert.rate,
        "p": cert.p,
    }
    if cert.bracket is not None:
        out["bracket"] = list(cert.bracket)
    if cert.boundary_gammas is not None:
        out["boundary_gammas"] = list(cert.boundary_gammas)
    out["small_gain_margin"] = (1.0 / cert.gamma) if cert.gamma > 0 else None
    out["certificate"] = None if cert.P is None else {
        "certified_gamma": cert.certified_gamma,
        "epsilon": cert.epsilon,
        "lmi_residual": cert.lmi_residual,
        "P": system.in_given_coordinates(cert.P),
    }
    return out


def cmd_gain(args) -> int:
    warnings: list[str] = []
    system, digest = _model_ss(args.model)
    region = _region_from_args(args, warnings)
    if isinstance(region, Line):
        cert = l2p_gain(system, args.p, region, args.tol, args.certificate)
    else:
        cert = strip_gain(system, args.p, region, args.tol, args.certificate)
    if args.certificate and cert.P is None:
        warnings.append(
            "a certificate was requested but none could be built; "
            "the gain bound in results is not certified"
        )
    results = {"mode": "line" if isinstance(region, Line) else "strip"}
    results.update(_gain_cert_fields(cert, system))
    _emit(_envelope("gain", [(args.model, digest)], results, warnings, []))
    return EXIT_OK


def cmd_smallgain(args) -> int:
    warnings: list[str] = []
    ss1, digest1 = _model_ss(args.model1)
    ss2, digest2 = _model_ss(args.model2)
    lo, hi = _parse_pair(args.strip, "--strip")
    strip = Strip(lo, hi)
    report = small_gain_check(ss1, args.p1, ss2, args.p2, strip, args.tol)
    if not report.conclusive:
        warnings.append(report.message)
    results = {
        "gamma1": report.gamma1,
        "gamma2": report.gamma2,
        "product": report.product,
        "conclusive": report.conclusive,
        "closed_p": report.closed_p,
        "message": report.message,
    }
    if report.conclusive:
        results["classification"] = classify_attractors(report.closed_p)
    _emit(
        _envelope(
            "smallgain",
            [(args.model1, digest1), (args.model2, digest2)],
            results,
            warnings,
            [],
        )
    )
    return EXIT_OK


def _response_grid(args) -> np.ndarray:
    if not (args.omega_min > 0 and args.omega_max > args.omega_min):
        raise InvalidInput("need 0 < --omega-min < --omega-max")
    if args.points < 2:
        raise InvalidInput("--points must be at least 2")
    grid = np.logspace(
        math.log10(args.omega_min), math.log10(args.omega_max), args.points - 1
    )
    return np.concatenate([[0.0], grid])


def _csv_lines(header: str, rows) -> str:
    """Header plus one line per row, every cell %.17g (float_repr's spelling,
    nan and +-inf included), formatted in a single pass over the table."""
    table = np.asarray(rows, dtype=float)
    nrows, ncols = table.shape
    row_format = ",".join(["%.17g"] * ncols) + "\n"
    return header + "\n" + row_format * nrows % tuple(table.ravel().tolist())


def _write_text(path: str, text: str) -> str:
    """Write text to path and return its sha256; a failed write is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput("cannot write %s: %s" % (path, exc)) from exc
    return sha256_hex(text.encode())


def _min_critical_margin(data: np.ndarray) -> float:
    """Smallest distance from -1 to a response table's uncertainty disks."""
    return float(np.min(np.abs(data[:, 1] + 1j * data[:, 2] + 1.0) - data[:, 4]))


def _write_csv(args, command, digest, header, rows, extra_results) -> int:
    text = _csv_lines(header, rows)
    if args.out:
        results = {"rows": len(rows), "path": args.out, "sha256": _write_text(args.out, text)}
        results.update(extra_results)
        _emit(_envelope(command, [(args.model, digest)], results, [], []))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _response_table(args, uncertainty: float = 0.0):
    """(digest, line, frequency_response_data) of the model on --line: a tf
    is tabulated as loaded, since an improper one has no realization."""
    _, system, digest = load_model(args.model)
    line = Line(args.line)
    return digest, line, frequency_response_data(system, line, _response_grid(args), uncertainty)


def cmd_nyquist(args) -> int:
    digest, line, data = _response_table(args, args.uncertainty)
    min_margin = _min_critical_margin(data)
    extra = {
        "rate": line.lam,
        "uncertainty": args.uncertainty,
        "min_critical_margin": min_margin,
        "critical_point_excluded": bool(min_margin > 0.0),
    }
    return _write_csv(args, "nyquist", digest, NYQUIST_HEADER, data, extra)


def cmd_bode(args) -> int:
    digest, line, data = _response_table(args)
    with np.errstate(divide="ignore"):
        mag_db = 20.0 * np.log10(data[:, 3])
    phase = np.degrees(np.arctan2(data[:, 2], data[:, 1]))
    rows = np.column_stack([data[:, 0], mag_db, phase])
    return _write_csv(args, "bode", digest, BODE_HEADER, rows, {"rate": line.lam})


def _parse_complex_field(value, where: str) -> complex:
    if isinstance(value, bool):
        raise InvalidInput("%s is not a number" % where)
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        return complex(float(value[0]), float(value[1]))
    raise InvalidInput("%s must be a number or a [re, im] pair" % where)


def _parse_signal(text: str) -> SignalSpec:
    import json as _json

    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidInput("cannot read signal file: %s" % exc) from exc
    try:
        obj = _json.loads(text)
    except _json.JSONDecodeError as exc:
        raise InvalidInput("signal is not valid JSON: %s" % exc) from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise InvalidInput("signal must be an object with a 'terms' list")
    terms = []
    for i, t in enumerate(obj["terms"]):
        if not isinstance(t, dict):
            raise InvalidInput("terms[%d] must be an object" % i)
        where = "terms[%d]" % i
        k = t.get("k", 0)
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise InvalidInput("%s.k must be a nonnegative integer" % where)
        side = t.get("side")
        if side not in ("causal", "anticausal"):
            raise InvalidInput("%s.side must be 'causal' or 'anticausal'" % where)
        terms.append(
            SignalTerm(
                coefficient=_parse_complex_field(t.get("c", 1.0), where + ".c"),
                power=k,
                rate=_parse_complex_field(t.get("a", 0.0), where + ".a"),
                side=side,
            )
        )
    return SignalSpec(tuple(terms))


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def cmd_laplace_forward(args) -> int:
    spec = _parse_signal(args.signal)
    pair = forward(spec)
    results = {
        "num": list(pair.F.num.coeffs),
        "den": list(pair.F.den.coeffs),
        "roc": [pair.roc.re_lo, pair.roc.re_hi],
    }
    _emit(_envelope("laplace forward", [], results, [], []))
    return EXIT_OK


def cmd_laplace_invert(args) -> int:
    kind, system, digest = load_model(args.model)
    G = tf_of(system) if kind == "ss" else system
    roc = ROC(*_parse_pair(args.roc, "--roc"))
    spec = inverse(G, roc)
    results = {
        "terms": [
            {
                "c": _complex_pair(t.coefficient),
                "k": t.power,
                "a": _complex_pair(t.rate),
                "side": t.side,
            }
            for t in spec.terms
        ],
        "roc": [roc.re_lo, roc.re_hi],
        "roc_options": [[r.re_lo, r.re_hi] for r in roc_options(G)],
    }
    _emit(_envelope("laplace invert", [(args.model, digest)], results, [], []))
    return EXIT_OK


def cmd_example_sec5(args) -> int:
    warnings: list[str] = []
    notes: list[str] = []
    lo, hi = _parse_pair(args.strip, "--strip")
    strip = Strip(lo, hi)
    report = robust_dominance(args.tau, args.d, args.ki, strip, args.tol, args.slopes)
    lo_sector, hi_sector = report.sector_lo, report.sector_hi
    gamma_loop, lag, product = max(lo_sector.gamma, hi_sector.gamma), report.lag, report.product
    if lag is None:
        warnings.append("lag block strip gain unavailable: %s" % report.lag_error)
    elif product >= 1.0:
        warnings.append(
            "small-gain product %s is not below one; the sector bound "
            "alone does not certify robustness" % float_repr(product)
        )
    warnings += [str(error) for _, _, error in report.counts if isinstance(error, MarginalRate)]

    if (args.tau, args.d, args.ki, (strip.lo, strip.hi)) == (0.1, 5.0, -1.0, SEC5_STRIP):
        notes.append(
            "recorded benchmark values for this configuration: lag norms "
            "%s / %s at the strip edges, loop gains %s / %s, margin %s; "
            "this implementation computes the values in results instead"
            % (SEC5_LAG_NORMS + SEC5_LOOP_GAINS + (SEC5_MARGIN,))
        )

    results = {
        "parameters": {
            "tau": args.tau,
            "d": args.d,
            "ki": args.ki,
            "strip": [strip.lo, strip.hi],
            "slopes": args.slopes,
            "tol": args.tol,
        },
        "loop_gain": {
            "gamma": gamma_loop,
            "boundary_gammas": [lo_sector.gamma, hi_sector.gamma],
            "slope_at_max": max(lo_sector, hi_sector, key=lambda r: r.gamma).slope_at_max,
            "slope_one_gains": [lo_sector.evaluations[-1][1], hi_sector.evaluations[-1][1]],
        },
        "lag_gain": None if lag is None else {
            "gamma": lag.gamma, "boundary_gammas": list(lag.boundary_gammas)
        },
        "small_gain": None if lag is None else {"product": product, "satisfied": product < 1.0},
        "margin": (1.0 / gamma_loop) if gamma_loop > 0 else None,
        "closed_loop": {
            "eigenvalues": [[float(z.real), float(z.imag)] for z in report.poles],
            "counts": [
                {"rate": lam, "right_of_line": right, "dominant": error is None}
                for lam, right, error in report.counts
            ],
        },
        "verdict": "CONFIRMED" if report.confirmed else "NOT CONFIRMED",
    }

    if args.out:
        omegas = np.concatenate([[0.0], np.logspace(-2.0, 2.0, 199)])
        radius = 0.0 if lag is None else lag.gamma
        data = frequency_response_data(-report.loop, strip.lower_line, omegas, radius)
        sha = _write_text(args.out, _csv_lines(NYQUIST_HEADER, data))
        min_margin = _min_critical_margin(data)
        results["nyquist"] = {
            "path": args.out,
            "rows": len(data),
            "sha256": sha,
            "min_critical_margin": min_margin,
            "critical_point_excluded": bool(min_margin > 0.0),
        }

    _emit(_envelope("example-sec5", [], results, warnings, notes))
    sys.stdout.write("robust 2-dominance: %s\n" % results["verdict"])
    return EXIT_OK if report.confirmed else EXIT_ANALYSIS


def build_parser() -> _Parser:
    parser = _Parser(
        prog="stripgain",
        description="Dominance analysis and gain bounds on vertical strips.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_region(p, strip_only=False):
        if strip_only:
            p.add_argument("--strip", required=True, help="rate interval LO,HI")
            return
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--line", type=float, help="single rate (line Re = -rate)")
        group.add_argument("--strip", help="rate interval LO,HI")

    p = sub.add_parser("norm", help="sup |G| on a line or strip")
    p.add_argument("model")
    add_region(p)
    p.add_argument("--method", choices=("bisection", "grid"), default="bisection")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("dominance", help="p-dominance certificate at a rate")
    p.add_argument("model")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.set_defaults(func=cmd_dominance)

    p = sub.add_parser("gain", help="weighted gain of a p-dominant system")
    p.add_argument("model")
    p.add_argument("--p", type=int, required=True)
    add_region(p)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(func=cmd_gain)

    p = sub.add_parser("smallgain", help="feedback small-gain test on a strip")
    p.add_argument("model1")
    p.add_argument("model2")
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--p2", type=int, required=True)
    add_region(p, strip_only=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_smallgain)

    p = sub.add_parser("nyquist", help="frequency response table on a line")
    p.add_argument("model")
    p.add_argument("--line", type=float, required=True)
    p.add_argument("--omega-min", type=float, default=1e-2)
    p.add_argument("--omega-max", type=float, default=1e2)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--uncertainty", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_nyquist)

    p = sub.add_parser("bode", help="magnitude/phase table on a line")
    p.add_argument("model")
    p.add_argument("--line", type=float, required=True)
    p.add_argument("--omega-min", type=float, default=1e-2)
    p.add_argument("--omega-max", type=float, default=1e2)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bode)

    p = sub.add_parser("laplace", help="bilateral transform utilities")
    lap = p.add_subparsers(dest="direction", required=True)
    pf = lap.add_parser("forward", help="transform a two-sided signal")
    pf.add_argument("signal", help="JSON signal spec, or @file")
    pf.set_defaults(func=cmd_laplace_forward)
    pi = lap.add_parser("invert", help="invert a transform on a chosen band")
    pi.add_argument("model")
    pi.add_argument("--roc", required=True, help="band LO,HI of Re(s); inf allowed")
    pi.set_defaults(func=cmd_laplace_invert)

    p = sub.add_parser(
        "example-sec5",
        help="lag-perturbed double-integrator robustness walk-through",
    )
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--d", type=float, default=5.0)
    p.add_argument("--ki", type=float, default=-1.0)
    p.add_argument("--strip", default="1,2")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--slopes", type=int, default=11)
    p.add_argument("--out", help="write the perturbed-loop response CSV here")
    p.set_defaults(func=cmd_example_sec5)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser main uses, built once per process: parsing keeps no state
    on the parser and returns a fresh Namespace on every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInput, Unsupported) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INPUT
    except StripgainError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NotPDominant):
            error["expected"] = exc.expected
            error["actual"] = exc.actual
        if isinstance(exc, NotPDominantAtSlope):
            error["slope"] = exc.slope
        _emit({"command": getattr(args, "verb", "?"), "error": error})
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
