"""The benchmark's output checks pass a right result and reject a wrong one.

Run with ``python3 -m pytest perfbench`` from the root of the checkout.
"""

import dataclasses
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from camel.ctensor import CTensor  # noqa: E402
from camel.meta import (  # noqa: E402
    EpisodeTask,
    ParamSet,
    evaluate,
    first_order_meta_gradient,
    meta_gradient,
    meta_objective,
)
from camel.wirtinger import Tape, backward, complex_gradient  # noqa: E402


def _desk(seed: int = 3):
    return workloads.set_up(workloads.WORKLOADS["train_so1"], seed, steps=1)


def _scaled(grad, s: float) -> ParamSet:
    return ParamSet({k: CTensor._wrap(s * v.numpy()) for k, v in grad.items()})


def test_meta_gradient_check_rejects_first_order_and_perturbed_gradients():
    s = _desk()
    tasks = [EpisodeTask(next(s.episodes), s.arch) for _ in range(2)]
    lr = s.cfg.inner_lr
    dirs = checks.random_directions(s.theta, s.check_rng)

    def errors(grad, steps):
        return checks.fd_errors(lambda th: meta_objective(th, tasks, lr, steps), s.theta, grad, dirs)

    for steps in (1, 2):
        exact = meta_gradient(s.theta, tasks, lr, steps)
        assert checks.check_gradient("exact", errors(exact, steps)) == []
        assert checks.check_gradient("scaled", errors(_scaled(exact, 1.001), steps))
        first_order = first_order_meta_gradient(s.theta, tasks, lr, steps)
        assert checks.check_gradient("first order", errors(first_order, steps))


def test_gradient_check_needs_the_error_to_fall_with_the_step():
    assert checks.check_gradient("ok", {1e-6: [3e-4, 1e-2, 5e-3], 1e-8: [2e-8, 2e-3, 1e-8]}) == []
    assert checks.check_gradient("at the floor", {1e-6: [4.7e-10], 1e-8: [1.3e-8]}) == []
    assert checks.check_gradient("flat", {1e-6: [3e-6, 3e-6, 1e-8], 1e-8: [3e-6, 3e-6, 1e-8]})
    assert checks.check_gradient("loose", {1e-8: [1e-3, 1e-3, 1e-8]})


def test_support_gradient_check_rejects_a_perturbed_gradient():
    s = _desk()
    task = EpisodeTask(next(s.episodes), s.arch)
    g = Tape()
    leaves = {k: g.leaf(v) for k, v in s.theta.items()}
    loss = task.support_loss(g, leaves)
    cots = backward(g, loss)
    grad = {k: complex_gradient(g, loss, nid, cots) for k, nid in leaves.items()}
    dirs = checks.random_directions(s.theta, s.check_rng)

    def errors(gr):
        return checks.fd_errors(lambda th: workloads.support_loss_at(th, task), s.theta, gr, dirs,
                                steps=checks.FD_STEPS[-1:])

    assert checks.check_gradient("support", errors(grad)) == []
    wrong = dict(grad)
    wrong["head.b"] = CTensor._wrap(grad["head.b"].numpy() + 1e-2)
    assert checks.check_gradient("support", errors(wrong))


def test_loss_check_rejects_a_loss_that_does_not_fall():
    assert checks.check_loss_falls([1.6, 1.5, 1.5, 1.4, 1.3, 1.3, 1.2, 1.2, 1.2, 1.1]) == []
    assert checks.check_loss_falls([1.5] * 10)
    assert checks.check_loss_falls([1.1, 1.2, 1.2, 1.3, 1.3, 1.4, 1.4, 1.5, 1.5, 1.6])
    assert checks.check_loss_falls([1.5, 1.0, 0.5])


def test_finite_and_finetune_checks_reject_bad_values():
    theta = _desk().theta
    assert checks.check_finite(theta) == []
    bad = dict(theta)
    bad["fc0.W"] = CTensor._wrap(np.full(theta["fc0.W"].shape, np.nan + 0j))
    assert checks.check_finite(ParamSet(bad))

    assert checks.check_finetune([1.6, 1.5], [0.07, 0.1]) == []
    assert checks.check_finetune([1.6, 1.5], [0.07, 1.5])


def test_report_check_rejects_an_inconsistent_report():
    s = _desk()
    episodes = [next(s.episodes) for _ in range(4)]
    # a predictor that is right where a frame's first sample has a positive real part
    report = evaluate(s.theta, episodes, s.cfg,
                      predict_fn=lambda th, ep: [y if f.numpy()[0].real > 0 else (y + 1) % 5
                                                 for f, y in ep.query])
    assert len(set(report.episode_accuracies)) > 1
    assert checks.check_report(report, len(episodes)) == []
    assert checks.check_report(report, len(episodes) + 1)
    assert checks.check_report(dataclasses.replace(report, accuracy=report.accuracy + 0.01), 4)
    assert checks.check_report(dataclasses.replace(report, ci95=report.ci95 + 0.01), 4)
    confusion = report.confusion.copy()
    confusion[2, 0] += 1.0
    assert checks.check_report(dataclasses.replace(report, confusion=confusion), 4)


def test_count_and_roundtrip_checks_reject_changes():
    assert checks.check_counts({"nodes": [451, 451, 451]}) == []
    assert checks.check_counts({"nodes": [451, 452, 451]})

    theta = _desk().theta
    assert checks.check_roundtrip(theta, theta.copy()) == []
    moved = dict(theta)
    b = theta["head.b"].numpy()
    moved["head.b"] = CTensor._wrap(np.nextafter(b.real, np.inf) + 1j * b.imag)
    assert checks.check_roundtrip(theta, ParamSet(moved))
    del moved["head.b"]
    assert checks.check_roundtrip(theta, ParamSet(moved))


def test_run_refuses_to_start_without_camel_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "checks.py", "spans.py"):
        shutil.copy(os.path.join(HERE, name), bench / name)
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "train_so1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
