"""The benchmark's output contract: a run ends with its JSON result line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_run_ends_with_its_json_result(tmp_path):
    # The benchmark writes its records next to itself, so it runs from a copy.
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spray-mlco", "--seed", "1",
         "--seconds", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
