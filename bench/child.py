"""One workload process: import advparam, run CLI commands, report timings.

Usage: ``python3 bench/child.py JOB.json``.  The job names the package's
source directory, the argument lists for ``advparam.cli.main`` and whether
to trace.  The parent measures set-up from spawning this process to the
``ready`` timestamp taken right after ``advparam.cli`` is imported.
"""

import json
import os
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """Peak resident memory of this process image.

    ``ru_maxrss`` is not used: Linux carries the parent's peak across the
    vfork and exec that start this process, so it would report the
    memory of ``run.py``.  ``VmHWM`` belongs to the new image alone.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    with open(sys.argv[1]) as f:
        job = json.load(f)
    sys.path.insert(0, job["src"])
    import advparam.cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not os.path.abspath(advparam.cli.__file__).startswith(job["src"] + os.sep):
        print(f"advparam came from {advparam.cli.__file__}, not {job['src']}", file=sys.stderr)
        return 3
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    commands = []
    for argv in job["commands"]:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code = advparam.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc()
            code = "exception"
        c1, w1 = time.process_time(), time.perf_counter()
        commands.append({"argv": argv, "code": code, "wall_s": w1 - w0, "cpu_s": c1 - c0})
        sys.stdout.flush()
    out = {"ready": ready, "commands": commands, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans)
        with open(job["spans"], "w") as f:
            json.dump(tracer.spans, f, separators=(",", ":"))
    with open(job["result"] + ".tmp", "w") as f:
        json.dump(out, f)
    os.replace(job["result"] + ".tmp", job["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
