"""Tiny-size smoke test of the benchmark, kept out of the Tier-1 suite:

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at `--size tiny`, untraced and traced, the gated
ones and those kept for studies of one layer, and checks that the last
line of output is the result object, that every check passed, and
that every metric BENCHMARK.json names is there with its unit.  Also runs the scaling curves at tiny sizes, and checks that the
benchmark fails, without a result, where there is no framekit source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COMMAND = [sys.executable, *BENCHMARK["command"][1:]]


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_reports_every_metric(workload: str, trace: int) -> None:
    proc = _run(COMMAND + ["--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_gated_workloads_are_runnable() -> None:
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOAD_NAMES)


def test_scaling_curves_report_slopes() -> None:
    proc = _run([sys.executable, "perfbench/scaling.py", "--corpus-sizes", "3,6",
                 "--lengths", "2,4"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert set(result["corpus_size"]["slopes"]) == {"frame_graph_s", "oracle_s", "eval_s"}
    assert set(result["doc_length"]["slopes"]) == {"oracle_s", "eval_s"}


def test_fails_without_framekit_source() -> None:
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(COMMAND + ["--workload", "pipeline", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
