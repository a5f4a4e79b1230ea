"""Run one omabench CLI command in a fresh process and report what it cost.

Usage: python3 child.py SRC RESULT_JSON TRACE_DIR|- -- <omabench arguments>

The command runs through ``omabench.cli.run_cli`` with ``SRC`` first on the
import path.  RESULT_JSON receives the exit code, the import time, the wall
time of ``run_cli``, the user+sys CPU of this process and its waited-for
children, and their peak resident sets.  With a TRACE_DIR the layer
functions are wrapped first and the spans are written there.
"""

import json
import os
import resource
import sys
import time


def own_peak_kib() -> int:
    """Peak resident set of this process since its exec.

    ``ru_maxrss`` is not used for this process: Linux keeps the peak of the
    process that spawned it across exec, so it would read the benchmark's
    own memory whenever that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    src, result_path, trace_dir = argv[:3]
    if argv[3] != "--":
        raise SystemExit("usage: child.py SRC RESULT_JSON TRACE_DIR|- -- ARGS...")
    command = argv[4:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from omabench import cli
    import_s = time.perf_counter() - t0
    tracer = None
    if trace_dir != "-":
        from tracer import Tracer
        tracer = Tracer(trace_dir)
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = cli.run_cli(command)
    wall_s = time.perf_counter() - t0
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.dump()
    cpu_s = (own.ru_utime - before.ru_utime + own.ru_stime - before.ru_stime
             + kids.ru_utime + kids.ru_stime)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "import_s": import_s, "wall_s": wall_s,
                   "cpu_s": cpu_s,
                   # Both are in KiB; the children figure is the
                   # largest single waited-for descendant.
                   "peak_rss_mb": (own_peak_kib() + kids.ru_maxrss) / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
