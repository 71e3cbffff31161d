"""Smoke test of the benchmark itself: ``python3 -m pytest bench/test_smoke.py``.

Runs every workload in its tiny configuration, untraced and traced, and
checks the result line against BENCHMARK.json, the tracing identity check,
the oracle's self-check, and the failure exit in a directory without the
locnash sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def _lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    detail, result = _lines(_run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2 * detail["tasks_per_pass"]
    known = [t for t, f in detail["failures"].items() if f["known_failure"]]
    assert result["failed"] == sum(detail["failures"][t]["count"] for t in known)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and m["value"] > 0, name
    env = detail["environment"]
    assert env["seed"] == 3 and env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    detail, result = _lines(_run(workload, 1))
    assert result["correct"] is True
    assert detail["traced_outputs_identical"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    summary = detail["trace_summary"]
    accounted = sum(m["self_s"] for m in summary["modules"].values()) + summary["remainder_s"]
    assert accounted == pytest.approx(summary["wall_s"], rel=1e-9)
    assert result["metrics"]["trace.slowdown"]["value"] > 0


def test_oracle_self_check():
    from oracle import LatticeOracle, OracleSelfCheckError

    for w2 in (1j, 2j, 0.5 + 0.8660254037844386j, 5 + 1j):
        o = LatticeOracle(1, w2)
        assert abs(o.value("zeta", 0.5) - o.eta()[0] / 2) < 1e-13
    broken = LatticeOracle(1, 1j)
    broken.E2 *= 1 + 1e-12
    with pytest.raises(OracleSelfCheckError):
        broken._self_check()


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("decide", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
