"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy.linalg

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import spans  # noqa: E402
from checks import Checker  # noqa: E402
from worker import fill  # noqa: E402

import lapsparse  # noqa: E402
import lapsparse.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        printed = final["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        for name in ("cmd_p50_s", "cmds_per_s", "cpu_s_per_cmd", "setup_s", "peak_rss_mb"):
            assert final["metrics"][name]["value"] > 0


def _run_tiny(workload, tmp_path, index=0):
    data = corpus.build(workload, 5, str(tmp_path), tiny=True)
    cmd = data.commands[index]
    out, report = str(tmp_path / "out.txt"), str(tmp_path / "report.json")
    rc = lapsparse.cli.main(fill(cmd.argv, out, report))
    rec = {"input": index, "rc": rc, "out": out if "{out}" in cmd.argv else None, "report": report}
    return cmd, rec


@pytest.mark.parametrize("workload", ["ultra", "patch-split"])
def test_corrupted_output_file_counts_as_failure(workload, tmp_path):
    cmd, rec = _run_tiny(workload, tmp_path)
    assert Checker(lapsparse).check(cmd, rec).ok
    lines = Path(rec["out"]).read_text(encoding="utf-8").splitlines()
    u, v, w = lines[-1].split()
    lines[-1] = f"{u} {v} {float(w) * 1.5!r}"
    Path(rec["out"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    verdict = Checker(lapsparse).check(cmd, rec)
    assert not verdict.ok and verdict.reason


def test_verify_checked_against_an_independent_solve(tmp_path):
    cmd, rec = _run_tiny("verify", tmp_path)
    assert Checker(lapsparse).check(cmd, rec).ok
    report = json.loads(Path(rec["report"]).read_text(encoding="utf-8"))
    report["measured"]["kappa"] *= 1.0 + 1e-6
    Path(rec["report"]).write_text(json.dumps(report), encoding="utf-8")
    assert not Checker(lapsparse).check(cmd, rec).ok


def test_nonzero_exit_counts_as_failure(tmp_path):
    cmd, rec = _run_tiny("ultra", tmp_path)
    verdict = Checker(lapsparse).check(cmd, {**rec, "rc": 4})
    assert not verdict.ok and "exit code 4" in verdict.reason


def test_wrappers_are_restored(tmp_path):
    import lapsparse.engine
    import lapsparse.patch
    import lapsparse.ultra

    watched = [
        (lapsparse.patch, "run_engine"),
        (lapsparse.engine, "run_engine"),
        (lapsparse.cli, "read_graph"),
        (lapsparse.cli, "_check_coherent"),
        (lapsparse.engine.EngineProblem, "validate"),
        (lapsparse.ultra.SpanningTree, "build"),
        (numpy, "einsum"),
        (numpy.linalg, "eigh"),
        (scipy.linalg, "eigh"),
        (scipy.linalg, "eigvalsh"),
    ]
    before = [vars(owner)[attr] for owner, attr in watched]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not orig for (owner, attr), orig in zip(watched, before))
        _run_tiny("ultra", tmp_path)
    finally:
        tracer.restore()
    assert spans.unrestored([(o, a, b) for (o, a), b in zip(watched, before)]) == []
    assert tracer.spans and tracer.spans[0][spans.NAME] == "cli.main"


def test_exact_counts_repeat_between_traced_runs(tmp_path):
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            for workload in ("ultra", "patch-split"):
                _run_tiny(workload, tmp_path)
        finally:
            tracer.restore()
        metrics = spans.layer_metrics(tracer.spans)
        counts.append({name: metrics[name] for name in spans.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["engine.steps"] > 0 and counts[0]["core.pencil.calls"] > 0


def test_self_time_and_kernel_charging():
    # cli.main [0, 10] > patch.sparsify_patch [1, 7] > engine.run_engine [2, 6];
    # an eigh kernel [3, 4] inside run_engine and an einsum kernel [8, 9] under cli.main.
    s = [
        ["cli.main", "cli", 0.0, 10.0, None, False, 0],
        ["patch.sparsify_patch", "patch", 1.0, 7.0, 0, False, 0],
        ["engine.run_engine", "engine", 2.0, 6.0, 1, True, 17],
        ["kernel.scipy.linalg.eigh", "kernel", 3.0, 4.0, 2, False, 0],
        ["kernel.numpy.einsum", "kernel", 8.0, 9.0, 0, False, 2e9],
    ]
    m = spans.layer_metrics(s)
    assert m["cli.self_s"] == 10.0 - 6.0 - 1.0
    assert m["patch.self_s"] == 6.0 - 4.0
    assert m["engine.self_s"] == 4.0 - 1.0
    assert m["engine.eig.calls"] == 1 and m["engine.steps"] == 17
    assert m["engine.errors"] == 1 and m["cli.errors"] == 0
    assert m["engine.score_s"] == 0.0  # the einsum ran in cli, not in the engine
    assert m["patch.build_per_run"] == 0.0 and m["engine.run_s"] == 4.0
    assert spans.covered(s, {"patch.sparsify_patch", "engine.run_engine"}) == 6.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_gives_same_inputs(tmp_path):
    for workload in corpus.WORKLOAD_IDS:
        a = corpus.build(workload, 9, str(tmp_path / "a"), tiny=True)
        b = corpus.build(workload, 9, str(tmp_path / "b"), tiny=True)
        for ca, cb in zip((a.warmup,) + a.commands, (b.warmup,) + b.commands):
            for key in ca.inputs:
                assert Path(ca.inputs[key]).read_bytes() == Path(cb.inputs[key]).read_bytes()
