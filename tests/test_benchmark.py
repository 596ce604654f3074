"""The benchmark's output contract: a run ends with its JSON result line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Every per-layer metric the benchmark declares.  `run.py` reports a layer
#: only if a run reached it, and the tracer drops a target it cannot find
#: without notice, so a renamed or bypassed layer would vanish silently.
PER_LAYER_METRICS = tuple(
    m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"])


def _run_benchmark(tmp_path, workload, trace) -> dict:
    """One `perfbench/run.py --seconds 0` run; returns its last line, parsed."""
    # The benchmark writes its records next to itself, so it runs from a copy.
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", trace],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    return result


def _assert_every_layer_reached(result):
    missing = [m for m in PER_LAYER_METRICS if m not in result["metrics"]]
    assert not missing, missing
    assert result["metrics"]["sim.apply.calls"]["value"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_run_ends_with_its_json_result(tmp_path, trace):
    result = _run_benchmark(tmp_path, "spray-mlco", trace)
    if trace == "1":
        _assert_every_layer_reached(result)


@pytest.mark.parametrize("workload", ["stair-mlco", "cli-session"])
def test_traced_run_reports_every_layer(tmp_path, workload):
    _assert_every_layer_reached(_run_benchmark(tmp_path, workload, "1"))
