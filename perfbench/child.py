"""One `mevlens` command in its own process, as the benchmark runs it.

Usage: python3 perfbench/child.py RESULT_JSON RUN_ID TRACE -- ARGS...

Imports ``mevlens.cli`` from the checkout's ``src/``, notes the
CLOCK_MONOTONIC time at which the import finished (the parent compares it
with its spawn time), runs ``mevlens.cli.main(ARGS)`` and writes the
timestamps, the exit code, the peak RSS and, when TRACE is 1, the trace
to RESULT_JSON.
The exit code is that of ``main``.
"""

import os
import signal
import sys
import time

CHILD_TIMEOUT_S = 50   # the default SIGALRM action ends a hung command

signal.alarm(CHILD_TIMEOUT_S)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
import mevlens.cli  # noqa: E402

IMPORTED = time.monotonic()


def peak_rss_kb() -> int:
    """High-water RSS of this process image. The parent's rusage max-RSS
    would also count the harness's own RSS, which the spawned process
    carried until exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    import json

    result_path, run_id, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    assert sys.argv[4] == "--"
    argv = sys.argv[5:]
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install(run_id)
    start = time.monotonic()
    if tracer is None:
        rc = mevlens.cli.main(argv)
    else:
        rc = tracer.call("cli.main", mevlens.cli.main, (argv,), {})
    end = time.monotonic()
    out = {"imported": IMPORTED, "main_start": start, "main_end": end, "rc": rc}
    if tracer is not None:
        out["trace"] = tracer.dump()
    out["peak_rss_kb"] = peak_rss_kb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
