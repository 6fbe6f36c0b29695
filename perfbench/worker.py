"""One benchmark process: import lapsparse, warm up, run commands in a closed loop.

Usage: python3 worker.py JOB.json RESULT.json

The job names the source tree to import from, a warm-up argv, the command
argv templates and a mode:

  setup  import lapsparse.cli and run the warm-up command, nothing else
  loop   then run rounds over the commands until `seconds` have passed
  trace  then run one traced round, restore the wrappers, run one
         untraced round, and re-run the first command traced as a
         determinism guard

Commands run one at a time through ``lapsparse.cli.main(argv)`` in this
process; the worker starts no threads. Timings are wall seconds
(perf_counter) and process CPU seconds (all threads, process_time).
"""

from __future__ import annotations

import ctypes
import importlib
import json
import os
import platform
import resource
import sys
import time

BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def blas_libraries() -> list:
    """Every loaded BLAS library with the thread count it reports."""
    paths = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            for line in handle:
                path = line.split()[-1]
                name = os.path.basename(path).lower()
                if (
                    name.startswith("lib")
                    and ".so" in name
                    and any(key in name for key in ("blas", "mkl", "blis"))
                    and path not in paths
                ):
                    paths.append(path)
    except OSError:
        return []
    found = []
    for path in paths:
        threads = None
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            lib = None
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None) if lib is not None else None
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
        found.append({"library": os.path.basename(path), "threads": threads})
    return found


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas_config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas_config.get("name"), "version": blas_config.get("version")}
    except (KeyError, TypeError, AttributeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_libraries": blas_libraries(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None where unavailable.

    Steal is time the hypervisor gave this machine's CPUs to someone else;
    a timed loop with a high steal share ran on a contended host.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def fill(template, out: str, report: str) -> list:
    return [a.replace("{out}", out).replace("{report}", report) for a in template]


class Runner:
    def __init__(self, cli, workdir: str):
        self.cli = cli
        self.workdir = workdir
        self.executed = 0

    def run(self, index: int, template) -> dict:
        """Run one command; its output and report get fresh paths."""
        j = self.executed
        self.executed += 1
        out = os.path.join(self.workdir, f"cmd{j}.out.txt")
        report = os.path.join(self.workdir, f"cmd{j}.report.json")
        argv = fill(template, out, report)
        t0 = time.perf_counter()
        rc = self.cli.main(argv)
        wall = time.perf_counter() - t0
        return {"input": index, "rc": rc, "wall_s": wall,
                "out": out if "{out}" in template else None, "report": report}


def traced_round(runner: Runner, templates, spans_mod) -> tuple:
    """Run each command once under a fresh tracer.

    Returns the command records, the spans, how many spans the first
    command recorded, and any attribute the tracer failed to restore.
    """
    tracer = spans_mod.Tracer()
    tracer.install()
    targets = tracer.patched_targets()
    try:
        records, first_end = [], None
        for i, template in enumerate(templates):
            records.append(runner.run(i, template))
            first_end = first_end or len(tracer.spans)
    finally:
        tracer.restore()
    return records, tracer.spans, first_end, spans_mod.unrestored(targets)


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    cli = importlib.import_module("lapsparse.cli")
    t_import = time.perf_counter() - t0
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"lapsparse.cli came from {cli.__file__}, not from {src}")
    os.makedirs(job["workdir"], exist_ok=True)
    runner = Runner(cli, job["workdir"])
    warm = runner.run(-1, job["warmup"])
    setup_s = time.perf_counter() - t0
    result = {"import_s": t_import, "setup_s": setup_s, "warmup": warm}

    templates = job["commands"]
    if job["mode"] == "loop":
        records = []
        ticks0 = cpu_ticks()
        c0, t0 = time.process_time(), time.perf_counter()
        while True:
            for i, template in enumerate(templates):
                records.append(runner.run(i, template))
            if time.perf_counter() - t0 >= job["seconds"]:
                break
        result["loop_wall_s"] = time.perf_counter() - t0
        result["loop_cpu_s"] = time.process_time() - c0
        ticks1 = cpu_ticks()
        if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
            result["steal_frac"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
        result["commands"] = records
    elif job["mode"] == "trace":
        import spans as spans_mod

        traced, spans, first_end, left = traced_round(runner, templates, spans_mod)
        untraced = [runner.run(i, t) for i, t in enumerate(templates)]
        guard, guard_spans, _, guard_left = traced_round(runner, templates[:1], spans_mod)
        first = spans_mod.layer_metrics(spans[:first_end])
        again = spans_mod.layer_metrics(guard_spans)
        result["commands"] = traced + untraced + guard
        result["traced_wall_s"] = [r["wall_s"] for r in traced]
        result["untraced_wall_s"] = [r["wall_s"] for r in untraced]
        result["layers"] = spans_mod.layer_metrics(spans)
        result["guard"] = {name: [first[name], again[name]] for name in spans_mod.EXACT_COUNTS}
        result["unrestored"] = left + guard_left
        result["span_count"] = len(spans)
        if job.get("spans_path"):
            with open(job["spans_path"], "w", encoding="utf-8") as handle:
                json.dump(spans, handle)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
