"""Per-layer spans recorded from outside the program.

``Tracer.install()`` wraps the public entry points of each stripgain module
(plus the two frequency-response evaluators) and rebinds every module-level
name that refers to them, so calls made through ``from .x import f`` are
seen as well as calls through the defining module.  Methods are patched on
their class.  Each wrapped call is a span; a span's self time is its
duration minus the time of the spans it encloses.  A target that no longer
exists is skipped and its metrics are left out of the report.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (module, attribute, span name)
SPANS = (
    ("stripgain.matkernel", "eig", "matkernel.eig"),
    ("stripgain.matkernel", "lyap_solve", "matkernel.lyap_solve"),
    ("stripgain.matkernel", "split_spectrum", "matkernel.split_spectrum"),
    ("stripgain.matkernel", "sym_eig", "matkernel.sym_eig"),
    ("stripgain.stripnorm", "line_norm_bisection", "stripnorm.line_norm_bisection"),
    ("stripgain.stripnorm", "build_hamiltonian", "stripnorm.build_hamiltonian"),
    ("stripgain.stripnorm", "_ss_line_mag", "stripnorm.freq_eval"),
    ("stripgain.rational", "RationalFunction.eval_unchecked", "stripnorm.freq_eval"),
    ("stripgain.stripnorm", "line_norm_grid", "stripnorm.line_norm_grid"),
    ("stripgain.stripnorm", "strip_norm", "stripnorm.strip_norm"),
    ("stripgain.stripnorm", "frequency_response_data", "stripnorm.frequency_response_data"),
    ("stripgain.dominance", "dominance_check", "dominance.dominance_check"),
    ("stripgain.dominance", "l2p_gain", "dominance.l2p_gain"),
    ("stripgain.dominance", "strip_gain", "dominance.strip_gain"),
    ("stripgain.dominance", "sector_slope_gain", "dominance.sector_slope_gain"),
    ("stripgain.dominance", "small_gain_check", "dominance.small_gain_check"),
    ("stripgain.dominance", "verify_gain_lmi", "dominance.verify_gain_lmi"),
    ("stripgain.statespace", "realize", "statespace.realize"),
    ("stripgain.statespace", "tf_of", "statespace.tf_of"),
    ("stripgain.rational", "poly_roots", "rational.poly_roots"),
    ("stripgain.rational", "RationalFunction.__init__", "rational.RationalFunction"),
    ("stripgain.modelio", "load_model", "modelio.load_model"),
    ("stripgain.modelio", "json_text", "modelio.json_text"),
)

# Spans reporting only their calls, or only their self seconds; every other
# span reports both.
CALLS_ONLY = {"stripnorm.build_hamiltonian", "dominance.verify_gain_lmi"}
SELF_ONLY = {"stripnorm.freq_eval", "modelio.json_text", "cli.verb"}


def metric_units() -> dict:
    """Per-layer metric name -> unit, in the order of BENCHMARK.json."""
    units = {}
    for _, _, name in SPANS + (("", "", "cli.verb"),):
        if name not in SELF_ONLY and name + ".calls" not in units:
            units[name + ".calls"] = "count"
        if name not in CALLS_ONLY:
            units[name + ".self_s"] = "s"
    units["matkernel.eig.gflop_computed"] = "GFLOP"
    units["stripnorm.level_tests_per_search"] = "ratio"
    units["stripnorm.freq_points"] = "count"
    units["dominance.certificates.built_per_requested"] = "ratio"
    units["modelio.envelope_bytes"] = "bytes"
    return units


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.present: set[str] = {"cli.verb"}
        self.counters = {"eig_flop": 0.0, "freq_points": 0, "level_tests": 0,
                         "cert_requested": 0, "cert_built": 0, "envelope_bytes": 0}
        self._stack: list[list] = []   # [name, start, child seconds]
        self._undo: list = []

    # -- spans --------------------------------------------------------------

    def enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def leave(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (dur - child)
        if self._stack:
            self._stack[-1][2] += dur

    def _inside(self, name) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _observe(self, name, args, kwargs, result):
        c = self.counters
        if name == "matkernel.eig":
            n = np.shape(args[0])[0]
            c["eig_flop"] += 10.0 * n ** 3
        elif name == "stripnorm.freq_eval":
            c["freq_points"] += int(np.size(args[-1]))
        elif name == "stripnorm.build_hamiltonian":
            if self._inside("stripnorm.line_norm_bisection"):
                c["level_tests"] += 1
        elif name == "dominance.l2p_gain":
            wanted = kwargs.get("with_certificate", args[4] if len(args) > 4 else False)
            if wanted:
                c["cert_requested"] += 1
                c["cert_built"] += result.P is not None
        elif name == "modelio.json_text":
            c["envelope_bytes"] += len(result)

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "modelio.json_text" and tracer._inside(name):
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            tracer._observe(name, args, kwargs, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "stripgain" or k.startswith("stripgain."))]
        for mod_name, attr, name in SPANS:
            try:
                owner = importlib.import_module(mod_name)
                path = attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                orig = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                continue
            self.present.add(name)
            wrapped = self._wrap(orig, name)
            if isinstance(owner, type):
                self._undo.append((owner, path[-1], orig))
                setattr(owner, path[-1], wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def verb(self, fn, *args):
        """Run one CLI call as the cli.verb span."""
        self.enter("cli.verb")
        try:
            return fn(*args)
        finally:
            self.leave()

    # -- report -------------------------------------------------------------

    def report(self, rounds: int) -> dict:
        """Per-round values of every metric whose target exists."""
        units = metric_units()
        out = {}
        for metric, unit in units.items():
            span, _, kind = metric.rpartition(".")
            if kind == "calls" and span in self.present:
                out[metric] = self.calls.get(span, 0) / rounds
            elif kind == "self_s" and span in self.present:
                out[metric] = self.self_s.get(span, 0.0) / rounds
        c = self.counters
        derived = {
            "matkernel.eig.gflop_computed": ("matkernel.eig", c["eig_flop"] / 1e9 / rounds),
            "stripnorm.freq_points": ("stripnorm.freq_eval", c["freq_points"] / rounds),
            "stripnorm.level_tests_per_search": (
                "stripnorm.build_hamiltonian",
                c["level_tests"] / max(1, self.calls.get("stripnorm.line_norm_bisection", 0)),
            ),
            "dominance.certificates.built_per_requested": (
                "dominance.l2p_gain", c["cert_built"] / max(1, c["cert_requested"])),
            "modelio.envelope_bytes": ("modelio.json_text", c["envelope_bytes"] / rounds),
        }
        for metric, (span, value) in derived.items():
            if span in self.present:
                out[metric] = value
        return {m: {"value": out[m], "unit": units[m]} for m in units if m in out}
