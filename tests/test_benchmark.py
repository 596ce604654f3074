"""The benchmark's output contract: a run ends with its JSON result line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


#: Traced layers every pipeline run must reach.  The tracer drops a target
#: it cannot find without notice, so a renamed pass would vanish silently.
TRACED_PASS_METRICS = (
    "passes.apply_rules.calls", "passes.cancel_adjacent.calls",
    "passes.lower_vchain.self_s", "passes.replace_ccx_with_rccx.self_s",
    "passes.lower_to_logs.self_s", "passes.optimize_logs.self_s",
)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_run_ends_with_its_json_result(tmp_path, trace):
    # The benchmark writes its records next to itself, so it runs from a copy.
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spray-mlco", "--seed", "1",
         "--seconds", "0", "--trace", trace],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    if trace == "1":
        missing = [m for m in TRACED_PASS_METRICS if m not in result["metrics"]]
        assert not missing, missing
