"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

They run every workload at tiny sizes for half a second, so they check the
benchmark's plumbing and output format, not performance.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _tiny(workload, trace, *extra):
    proc = _run(workload, trace, "--tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return lines, result


def _assert_prints(lines, result, metrics):
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " ")
                   and line.endswith(" " + m["unit"]) for line in lines[:-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    lines, result = _tiny(workload, 0)
    assert result["correct"] and result["failed"] == 0
    _assert_prints(lines, result, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    lines, result = _tiny(workload, 1)
    assert result["correct"] and result["failed"] == 0
    _assert_prints(lines, result, SPEC["per_layer"])
    value = {name: entry["value"] for name, entry in result["metrics"].items()}
    # each layer shows up on the workloads that reach it, and only there
    if workload.startswith("verify"):
        assert value["verify.draws_per_trial"] == 1.0
        assert value["linalg.hermitian_ctor.calls_per_op"] > 0
    assert (value["commuting.realize.self_ms"] > 0) == (workload == "superop-n24")
    assert (value["linalg.json_decode.self_ms"] > 0) == (workload == "eval-large")
    if workload == "superop-n24":
        assert value["commuting.max_pair_dim"] == 9  # n^2 at the tiny n = 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_counts_as_failed_op(workload):
    lines, result = _tiny(workload, 0, "--corrupt-op", "1")
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] > 1
    assert any(line.startswith("failed_op_share ") and
               f"(1 of {result['attempted']} ops)" in line for line in lines)


def test_run_without_library_sources_fails_without_result():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)


@pytest.fixture(scope="module")
def tracer_env():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import opconvex.cli  # noqa: F401  (binds cli's imports too)
        import spans
        yield spans
    finally:
        del sys.path[:2]


def test_tracer_wraps_every_binding_of_a_function(tracer_env):
    import opconvex
    tracer = tracer_env.Tracer()
    original = opconvex.linalg.loewner_leq
    holders = {name for name, mod in sys.modules.items()
               if name.split(".")[0] == "opconvex"
               and getattr(mod, "loewner_leq", None) is original}
    assert {"opconvex", "opconvex.linalg", "opconvex.verify"} <= holders
    bound = {owner.__name__ for owner, attr in tracer.bindings()
             if attr == "loewner_leq"}
    assert bound == holders
    tracer.install()
    try:
        assert all(sys.modules[name].loewner_leq is not original
                   for name in holders)
    finally:
        tracer.uninstall()
    assert all(sys.modules[name].loewner_leq is original for name in holders)


def test_self_times_add_up_to_the_op(tracer_env):
    import numpy as np
    import opconvex
    tracer = tracer_env.Tracer()
    tracer.install()
    try:
        tracer.begin_op(7)
        opconvex.loewner_leq(np.eye(4), 2 * np.eye(4))
        tracer.end_op()
    finally:
        tracer.uninstall()
    (spans,) = tracer.kept
    root = spans[0]
    assert root[0] == "op" and root[5] == 7
    assert sum(tracer.self_s.values()) == pytest.approx(root[3] - root[2])
    assert tracer.calls["linalg.HermitianMatrix.__init__"] == 2
    assert tracer.calls["linalg.eigvalsh"] == 1
    assert tracer.tallies["lapack_n3"] == 4 ** 3
    # calls outside an op are not recorded
    tracer.install()
    try:
        opconvex.loewner_leq(np.eye(2), np.eye(2))
    finally:
        tracer.uninstall()
    assert tracer.calls["linalg.eigvalsh"] == 1
