"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench

They take about a minute: each workload is traced twice.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from speed import SpeedProbe
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def traced_counters(workload):
    """Every per-layer metric that is not a time, from one traced pass."""
    su21 = run.fresh_import()
    items = workload.make_inputs(su21, 1)
    tracer = Tracer(SpeedProbe())
    tracer.install(su21)
    for i, item in enumerate(items):
        tracer.input_id = i
        workload.solve(su21, item)
    values, _ = tracer.layer_metrics(1.0, 1.0, 1.0)
    return {
        name: value
        for name, value in values.items()
        if LAYER_METRICS[name][0] != "s" and not name.startswith("trace.")
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counters_repeat(name):
    first = traced_counters(WORKLOADS[name])
    assert first == traced_counters(WORKLOADS[name])
    assert any(first.values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    command = json.loads((HERE.parent / "BENCHMARK.json").read_text())["command"]
    command = [sys.executable if part == "python3" else part for part in command]
    done = subprocess.run(
        command + ["--workload", "gamma3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
