"""A traced benchmark run at tiny size keeps the result-line contract.

A hooked name the pipeline stops calling prints its metric as null, and the
run still exits 0, so only the result line itself shows the break.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _refuse_constant(name):
    raise ValueError(f"result line holds {name}")


@pytest.mark.parametrize("workload", ["square", "pan", "capture"])
def test_traced_tiny_run_prints_a_valid_result(workload):
    done = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                           "--workload", workload, "--size", "tiny", "--trace", "1",
                           "--seconds", "0.5", "--seed", "4"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True, done.stderr
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, metric)
        assert math.isfinite(value), (name, metric)
