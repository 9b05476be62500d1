"""Output checks of the benchmark.

Every check compares camel's output with an independent computation
(central finite differences) or with a property the method must have (the
meta-loss falls while training, fine-tuning lowers the support loss, a
report agrees with itself).  None compares with a stored copy of earlier
output.  Each check returns a list of failure messages; an empty list means
it passed.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from camel.ctensor import CTensor
from camel.meta import EvalReport, ParamSet

# Central-difference steps, coarse then fine.  On trained desk parameters
# the relative error at a step of 1e-6 ranged from 1e-9, where no crelu kink
# lay within the step, to 3e-2, where one did.  A kink within 1e-7 is rarer
# but happens (one direction in thirty gave 2e-3 there); its chance shrinks
# with the step, and rounding at 1e-8 stayed below 2e-7.  The checks read the
# median over directions, so one direction that meets a kink decides nothing.
FD_STEPS = (1e-6, 1e-8)
FD_DIRECTIONS = 5
FD_TOL = 1e-5   # largest median relative error allowed at the finest step
# When the coarse step already agrees this well, no kink was crossed and the
# error is near the rounding floor, so it has nothing left to fall from.
FALL_FLOOR = 1e-6
REPORT_TOL = 1e-12  # float tolerance when recomputing a report's figures


def random_directions(theta: ParamSet, rng: np.random.Generator,
                      n: int = FD_DIRECTIONS) -> list[dict[str, np.ndarray]]:
    """``n`` complex Gaussian directions in parameter space."""
    return [{k: rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
             for k, v in theta.items()} for _ in range(n)]


def _shifted(theta: ParamSet, d: Mapping[str, np.ndarray], s: float) -> ParamSet:
    return ParamSet({k: CTensor._wrap(v.numpy() + s * d[k]) for k, v in theta.items()})


def fd_errors(f: Callable[[ParamSet], float], theta: ParamSet, grad: Mapping[str, CTensor],
              directions: Sequence[Mapping[str, np.ndarray]],
              steps: Sequence[float] = FD_STEPS) -> dict[float, list[float]]:
    """Relative error of the directional derivative Re sum(grad * conj(d))
    against the central difference of ``f`` along each direction, per step.

    ``grad`` is the complex gradient 2 dL/dz*, so a real loss changes by
    Re sum(grad * conj(d)) per unit step along d.
    """
    out: dict[float, list[float]] = {h: [] for h in steps}
    for d in directions:
        want = sum(float(np.sum(grad[k].numpy() * np.conj(d[k])).real) for k in theta)
        for h in steps:
            fd = (f(_shifted(theta, d, h)) - f(_shifted(theta, d, -h))) / (2.0 * h)
            out[h].append(abs(fd - want) / max(abs(fd), 1e-8))
    return out


def check_gradient(what: str, errors: Mapping[float, Sequence[float]], tol: float = FD_TOL) -> list[str]:
    """The median error over directions at the finest step is within
    ``tol``; with more than one step, it also falls as the step shrinks,
    unless it is already below ``FALL_FLOOR``.  A gradient with a systematic
    error below ``tol`` fails the second test: its error stays put as the
    step shrinks."""
    typical = {h: statistics.median(errs) for h, errs in errors.items()}
    order = sorted(typical, reverse=True)
    fine = order[-1]
    failures = []
    if not typical[fine] <= tol:
        failures.append(f"{what}: median relative error {typical[fine]:.3e} at step {fine:g} "
                        f"exceeds {tol:g}")
    for coarse, finer in zip(order, order[1:]):
        if typical[coarse] > FALL_FLOOR and not typical[finer] < typical[coarse]:
            failures.append(f"{what}: error did not fall as the step shrank ({typical[coarse]:.3e} "
                            f"at {coarse:g}, {typical[finer]:.3e} at {finer:g})")
    return failures


def check_loss_falls(losses: Sequence[float]) -> list[str]:
    """The mean meta-loss of the last fifth lies below that of the first fifth."""
    n = len(losses) // 5
    if n < 1:
        return [f"meta-loss: {len(losses)} iterations are too few to compare fifths"]
    first = statistics.fmean(losses[:n])
    last = statistics.fmean(losses[-n:])
    if not last < first:
        return [f"meta-loss did not fall: first fifth {first:.4f}, last fifth {last:.4f}"]
    return []


def check_finite(theta: ParamSet) -> list[str]:
    bad = [k for k, v in theta.items() if not np.all(np.isfinite(v.numpy()))]
    return [f"parameters not finite: {', '.join(bad)}"] if bad else []


def check_finetune(before: Sequence[float], after: Sequence[float]) -> list[str]:
    """Fine-tuning lowers the support loss of every checked episode."""
    return [f"episode {i}: support loss {b:.4f} before fine-tuning, {a:.4f} after"
            for i, (b, a) in enumerate(zip(before, after)) if not a < b]


def check_report(report: EvalReport, n_episodes: int) -> list[str]:
    """The report agrees with itself: accuracy is the mean episode accuracy,
    ci95 is 1.96 sd / sqrt(n), and every confusion row sums to 100."""
    accs = report.episode_accuracies
    if len(accs) != n_episodes:
        return [f"report covers {len(accs)} episodes, {n_episodes} were evaluated"]
    failures = []
    mean = statistics.fmean(accs)
    if abs(report.accuracy - mean) > REPORT_TOL:
        failures.append(f"accuracy {report.accuracy!r} is not the mean episode accuracy {mean!r}")
    ci95 = 1.96 * statistics.stdev(accs) / math.sqrt(len(accs)) if len(accs) > 1 else 0.0
    if abs(report.ci95 - ci95) > REPORT_TOL:
        failures.append(f"ci95 {report.ci95!r} differs from 1.96 sd / sqrt(n) = {ci95!r}")
    for i, total in enumerate(np.sum(report.confusion, axis=1)):
        if abs(total - 100.0) > 1e-9:
            failures.append(f"confusion row {i} sums to {total!r}, not 100")
    return failures


def check_counts(counts: Mapping[str, Sequence[int]]) -> list[str]:
    """A work count measured at a layer boundary repeats exactly."""
    return [f"{name} varied within the run: {sorted(set(vals))}"
            for name, vals in counts.items() if len(set(vals)) != 1]


def check_roundtrip(saved: ParamSet, loaded: ParamSet) -> list[str]:
    """A checkpoint gives back every parameter bit for bit."""
    if list(saved) != list(loaded):
        return [f"checkpoint parameter names changed: {list(saved)} -> {list(loaded)}"]
    return [f"checkpoint changed parameter {k}" for k in saved
            if not np.array_equal(saved[k].numpy(), loaded[k].numpy())]
