"""Smoke test of the benchmark harness at toy shapes; runs in seconds.

    python3 -m pytest -q bench/test_smoke.py

Checks that every workload and every metric BENCHMARK.json names is
emitted with its unit, and that the harness refuses to report without
the program's sources.
"""

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


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seed", "1", "--seconds", "0", "--toy", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc = run_bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_all_runs_every_workload():
    proc = run_bench("--workload", "all", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    ran = [ln.split(":")[0] for ln in proc.stdout.splitlines()
           if ln.endswith("repetitions")]
    assert ran == WORKLOADS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", WORKLOADS[0], cwd=tmp_path,
                     script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
