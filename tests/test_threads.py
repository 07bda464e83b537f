"""Importing stripgain loads numpy's and scipy's OpenBLAS single-threaded,
unless the caller chose a thread count, and leaves os.environ as it was."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="thread count read from /proc/self/task"
)

IMPORT_STRIPGAIN = """
import os
before = dict(os.environ)
import stripgain
print(len(os.listdir('/proc/self/task')), dict(os.environ) == before,
      'OPENBLAS_NUM_THREADS' in os.environ)
"""

IMPORT_PLAIN = """
import os
import numpy, scipy.linalg
print(len(os.listdir('/proc/self/task')))
"""


def _run(*codes, **blas):
    """Each code in its own fresh interpreter, run side by side, with none of
    BLAS_VARS set but those given; the words each prints."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = SRC
    env.update(blas)
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              text=True) for code in codes]
    outs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * len(procs)
    return [out.split() for out in outs]


def test_import_pins_one_blas_thread_and_restores_the_environment():
    assert _run(IMPORT_STRIPGAIN) == [["1", "True", "False"]]


@pytest.mark.parametrize("var", BLAS_VARS)
def test_a_caller_set_thread_count_is_honoured(var):
    (threads, unchanged, _), (plain,) = _run(IMPORT_STRIPGAIN, IMPORT_PLAIN, **{var: "2"})
    assert unchanged == "True"
    assert threads == plain
