"""Seeded end-to-end and per-layer benchmark of the lapsparse command line.

Usage (from the repository root):

  python3 perfbench/run.py --workload ultra --seed 1 --seconds 10 --trace 0

Workloads: ultra, patch-split, algconn, verify (see perfbench/README.md).
The run generates its inputs from --seed, measures set-up in fresh
processes, then drives ``lapsparse.cli.main(argv)`` from one worker process
in a closed loop: one caller, each command starts when the previous one
returned. Every command's output is checked (perfbench/checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced round instead (perfbench/spans.py). The last stdout
line is one JSON object with keys correct, attempted, failed and metrics.
A full record (environment, output digests, samples) is printed on the line
before it and saved under perfbench/.work/records/. --tiny shrinks every
input so all four workloads run in seconds; the benchmark's tests use it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import corpus
from checks import Checker, geometric_mean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RECORDS = WORK / "records"
DEADLINE_S = 170.0
# Fresh processes that only set up, besides the main worker's own set-up.
SETUP_PROCESSES = 2

END_TO_END_UNITS = {
    "cmd_p50_s": "s",
    "cmds_per_s": "1/s",
    "cpu_s_per_cmd": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
    "ultra_kappa": "ratio",
    "patch_spread": "ratio",
}
# The end-to-end quality metric each workload measures; the others read 1.0 there.
QUALITY = {"ultra": "ultra_kappa", "patch-split": "patch_spread"}
# algconn's quality varies ~20% between inputs, too much for a bound with the
# few inputs a run affords, so it is reported with the per-layer metrics (0 elsewhere).
LAYER_QUALITY = {"algconn": "algconn_lambda2"}


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name in LAYER_QUALITY.values():
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("_per_step"):
        return "count/step"
    if name.endswith(("_frac", "_per_run")):
        return "ratio"
    return "count"


def git_commit(root: Path):
    """HEAD of the checkout's git metadata, or None when there is none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_library():
    """Import lapsparse from this checkout's src/, never from elsewhere."""
    if not (SRC / "lapsparse" / "cli.py").is_file():
        raise BenchError(f"no lapsparse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("lapsparse")
    importlib.import_module("lapsparse.cli")
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"lapsparse was imported from {lib.__file__}, not from {SRC}")
    return lib


def run_worker(job: dict, workdir: str, name: str, deadline: float) -> dict:
    """Run worker.py on `job` in a fresh process; its outputs go to workdir/name."""
    job = {**job, "workdir": os.path.join(workdir, name)}
    job_path = os.path.join(workdir, f"{name}.job.json")
    result_path = os.path.join(workdir, f"{name}.result.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left to start worker {name}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), job_path, result_path],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {name} did not finish in time; it was killed") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {name} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["stderr"] = proc.stderr[-3000:]
    return result


def tail_percentile(times: list):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(times)
    for p in (99, 95, 90, 75):
        if len(ordered) * (100 - p) / 100 >= 10:
            return {"p": p, "s": statistics.quantiles(ordered, n=100)[p - 1]}
    return None


def end_to_end_metrics(workload, result, setups, records, verdicts, qualities) -> dict:
    times = [r["wall_s"] for r in records]
    verified = sum(v.ok for v in verdicts)
    m = {
        "cmd_p50_s": statistics.median(times),
        "cmds_per_s": verified / result["loop_wall_s"],
        "cpu_s_per_cmd": result["loop_cpu_s"] / len(records),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "verified_frac": verified / len(records),
    }
    for w, name in QUALITY.items():
        m[name] = geometric_mean(qualities) if w == workload else 1.0
    return m


def layer_metric_values(workload, result, qualities) -> dict:
    m = dict(result["layers"])
    ratios = [t / u for t, u in zip(result["traced_wall_s"], result["untraced_wall_s"])]
    m["trace_overhead_frac"] = statistics.median(ratios) - 1.0
    for w, name in LAYER_QUALITY.items():
        m[name] = geometric_mean(qualities) if w == workload else 0.0
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple:
    """Run one benchmark; returns (final line dict, full record dict)."""
    deadline = time.monotonic() + DEADLINE_S
    lib = import_library()
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        data = corpus.build(workload, seed, workdir, tiny=tiny)
        base = {
            "src": str(SRC),
            "warmup": list(data.warmup.argv),
            "commands": [list(c.argv) for c in data.commands],
            "seconds": seconds,
        }
        setups = [
            run_worker({**base, "mode": "setup"}, workdir, f"setup{i}", deadline)["setup_s"]
            for i in range(0 if tiny or trace else SETUP_PROCESSES)
        ]
        RECORDS.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        job = {**base, "mode": "trace" if trace else "loop"}
        if trace:
            job["spans_path"] = str(RECORDS / f"{stem}-spans.json")
        result = run_worker(job, workdir, "main", deadline)
        setups.append(result["setup_s"])

        checker = Checker(lib)
        warm = checker.check(data.warmup, result["warmup"])
        records = result["commands"]
        verdicts = [checker.check(data.commands[r["input"]], r) for r in records]
        failed = sum(not v.ok for v in verdicts)
        digests: dict = {}
        nondeterministic = set()
        qualities = {}
        for r, v in zip(records, verdicts):
            name = data.commands[r["input"]].name
            if v.ok:
                if digests.setdefault(name, v.digest) != v.digest:
                    nondeterministic.add(name)
                qualities.setdefault(name, v.quality)
        failures = [
            {"input": data.commands[r["input"]].name, "reason": v.reason, "stderr": result["stderr"]}
            for r, v in zip(records, verdicts)
            if not v.ok
        ]
        if not warm.ok:
            failures.append({"input": "warmup", "reason": warm.reason, "stderr": result["stderr"]})
        correct = warm.ok and not failures
        if trace:
            values = layer_metric_values(workload, result, list(qualities.values()))
            units = {name: layer_unit(name) for name in values}
            guard_ok = all(a == b for a, b in result["guard"].values())
            correct = correct and guard_ok and not result["unrestored"]
        else:
            values = end_to_end_metrics(workload, result, setups, records, verdicts, list(qualities.values()))
            units = END_TO_END_UNITS
        times = [r["wall_s"] for r in records]
        record = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "tiny": tiny,
            "commit": git_commit(ROOT),
            "env": result["env"],
            "inputs": [{"name": c.name, **c.params} for c in data.commands],
            "loop": "closed, 1 caller, whole rounds over the inputs",
            "cmd_samples": len(times),
            "cmd_wall_s": times,
            "cmd_tail": tail_percentile(times),
            "setup_samples_s": setups,
            "import_s": result["import_s"],
            "steal_frac": result.get("steal_frac"),
            "failed_frac": failed / len(verdicts),
            "failures": failures,
            "output_sha256": digests,
            "nondeterministic_outputs": sorted(nondeterministic),
            "metrics": values,
        }
        if trace:
            record["guard"] = result["guard"]
            record["unrestored"] = result["unrestored"]
            record["span_count"] = result["span_count"]
        with open(RECORDS / f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
        final = {
            "correct": bool(correct),
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
        }
        return final, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOAD_IDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    try:
        final, record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, metric in final["metrics"].items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"commands: {final['attempted']} attempted, {final['failed']} failed,"
          f" {record['cmd_samples']} timed samples, tail {record['cmd_tail']}")
    print(json.dumps({"record": record}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
