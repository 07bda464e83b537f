"""The benchmark's per-layer tracer still finds every target it wraps.

``benchmark/tracing.py`` silently skips a target that no longer resolves
and drops its metrics from the report, so a renamed function would change
the shape of a traced result without failing anything.  The module is
loaded from its file and used as it is.
"""

import importlib.util
import os

import stripgain.cli  # noqa: F401  (loads every module the tracer patches)

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("stripgain_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wanted = {name for _, _, name in tracing.SPANS} | {"cli.verb"}
        assert wanted <= tracer.present
    finally:
        tracer.uninstall()
