"""One benchmark pass in a fresh interpreter.

    python3 worker.py JOB.json

JOB.json holds {"src", "calls": [argv, ...], "trace", "result"}.  The worker
imports ``sl2prop.cli`` from ``src`` (never an installed copy), optionally
installs the tracer, runs ``cli.main`` on each argv in order and writes the
result JSON: the import time, per-call exit code, wall and CPU seconds, the peak RSS of the
process, and, when tracing, the spans.  Next to each wall time it records the
steal over the same interval: the time the host ran something else on the VM's
CPUs, as /proc/stat counts it, averaged over the CPUs (0 where /proc/stat is
not there).
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Seconds of steal so far, summed over all CPUs, divided by their number."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if fields[0] != "cpu" or len(fields) < 9:
        return 0.0
    return int(fields[8]) * _TICK_S / (os.cpu_count() or 1)


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    t0, s0 = time.perf_counter(), steal_s()
    import sl2prop.cli as cli

    import_s, import_steal = time.perf_counter() - t0, steal_s() - s0

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"error: sl2prop imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    for argv in job["calls"]:
        w0, c0, s0 = time.perf_counter(), time.process_time(), steal_s()
        try:
            # The evolve subcommand echoes its trailer on stdout.
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(list(argv))
        except SystemExit as e:  # argparse rejects arguments this way
            rc = e.code
        except Exception:  # a crash is a failed call, reported with its traceback
            traceback.print_exc()
            rc = -1
        calls.append({"rc": rc, "wall": time.perf_counter() - w0,
                      "cpu": time.process_time() - c0, "steal": steal_s() - s0})
    result = {"import_s": import_s, "import_steal": import_steal, "calls": calls,
              "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result.update(spans=tracer.spans, absent=tracer.absent,
                      bindings=sorted(tracer.bindings))
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
