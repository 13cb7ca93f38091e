"""Smoke test: each workload runs once, briefly, traced and untraced, and
prints every metric that BENCHMARK.json names, with its unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
COMMAND = [sys.executable] + SPEC["command"][1:]


def _run(cwd, workload, trace):
    argv = COMMAND + ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert not out.stdout.strip()
