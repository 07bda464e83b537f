"""Child process for the set-up metric: time the import of stripgain (numpy
and scipy included) plus one warm-up call of each verb the workload uses.

    python3 setup_probe.py SRC_DIR WARMUPS_JSON

prints the elapsed seconds on stdout.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, warmups_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from stripgain import cli

    with open(warmups_path, encoding="utf-8") as fh:
        warmups = json.load(fh)
    sink = io.StringIO()
    for argv in warmups:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main(argv)
            except SystemExit:
                pass
        sink.seek(0)
        sink.truncate()
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
