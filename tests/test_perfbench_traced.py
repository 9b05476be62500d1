"""perfbench runs through camel's public API.  The traced run drives
`backward_graph` with (value, conj) seed pairs, including one that is not
real; the untraced runs train or evaluate and check what they produced; the
set-up probes build each workload's frame pool and parameters."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def test_traced_perfbench_run_passes_its_checks():
    cmd = [sys.executable, RUN,
           "--workload", "train_so1", "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["train_so1", "train_so5", "eval_wide"])
def test_untraced_perfbench_run_passes_its_checks(workload):
    # the run the benchmark measures: exit 1 is a failed output check or an
    # uncaught exception, which no traced round would show
    cmd = [sys.executable, RUN,
           "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["train_so1", "train_so5", "eval_wide"])
def test_perfbench_setup_probe_prints_its_seconds(workload):
    cmd = [sys.executable, RUN,
           "--workload", workload, "--seed", "1", "--seconds", "1", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    words = done.stdout.split()
    assert len(words) == 1 and float(words[0]) > 0
