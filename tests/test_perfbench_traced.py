"""The traced perfbench run drives `backward_graph` with (value, conj) seed
pairs, including one that is not real; this keeps that caller working."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_perfbench_run_passes_its_checks():
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", "train_so1", "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
