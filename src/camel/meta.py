"""Episodic meta-learning over complex parameters.

The inner loop adapts parameters on a task's support set with the complex
gradient; the outer loop follows the exact meta-gradient.  Each inner step
theta_{k+1} = theta_k - alpha * grad_k(theta_k) contributes one curvature
correction, so the meta-gradient is the query gradient lam at the adapted
parameters taken back through every step in reverse order,

    lam  <-  lam  -  alpha * hvp(support_loss, theta_k, lam),    k = K-1 ... 0,

with ``wirtinger.hvp`` the support loss's R-linear Hessian applied to lam
(MAML's product of the factors (I - alpha H_k), Finn et al.,
arXiv:1703.03400).  The forward pass keeps the parameters before each step
and records only the last step's support sweep; the reverse pass records
one support sweep at a time.  So the memory is one step's tape and the
parameter-sized snapshots, not the whole trajectory's tape, and K steps
cost K - 1 graph-free support passes more than a sweep through that
tape.  The result is validated against finite differences and against
back-propagating from the query loss through the whole inner trajectory
recorded on one tape.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol, Sequence

import numpy as np

from .ctensor import CTensor, ShapeMismatchError
from .layers import ArchConfig, ConfigError, build_cross_entropy, build_network, frames_to_input, init_params
from .wirtinger import Tape, backward, backward_values, complex_gradient, evaluator, g_abs2, g_sum, hvp_sweep

_C = np.complex128


class DivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss; carries the last
    finite state in ``state``."""

    def __init__(self, message: str, state: "TrainState"):
        super().__init__(message)
        self.state = state


class ParamSet(Mapping):
    """Named, ordered collection of complex parameter tensors.

    Iteration order is insertion order and is part of the contract
    (checkpoints rely on it).  Tensors are immutable, so set-level
    operations return new ParamSets.
    """

    __slots__ = ("_d",)

    def __init__(self, tensors: Mapping[str, CTensor]):
        self._d = dict(tensors)

    def __getitem__(self, name: str) -> CTensor:
        return self._d[name]

    def __iter__(self):
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def copy(self) -> "ParamSet":
        return ParamSet(self._d)

    def add_scaled(self, other: Mapping[str, CTensor], s: complex) -> "ParamSet":
        out = {}
        for k, v in self._d.items():
            o = other[k]
            if o.shape != v.shape:
                raise ShapeMismatchError(f"ParamSet.{k}: shapes differ, {v.shape} vs {o.shape}")
            out[k] = CTensor._wrap(v.numpy() + s * o.numpy())
        return ParamSet(out)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

class MetaTask(Protocol):
    """One few-shot task: builders for its support and query losses."""

    def support_loss(self, g: Tape, params: dict[str, int]) -> int: ...

    def query_loss(self, g: Tape, params: dict[str, int]) -> int: ...


@dataclass(frozen=True)
class Episode:
    """One few-shot task instance: labeled support and query frames."""

    support: tuple[tuple[CTensor, int], ...]
    query: tuple[tuple[CTensor, int], ...]
    n_way: int
    k_shot: int

    def __post_init__(self):
        if len(self.support) != self.n_way * self.k_shot:
            raise ValueError(f"episode needs n_way*k_shot={self.n_way * self.k_shot} "
                             f"support frames, got {len(self.support)}")
        counts = [0] * self.n_way
        for _, label in self.support:
            if not 0 <= label < self.n_way:
                raise ValueError(f"support label {label} outside [0, {self.n_way})")
            counts[label] += 1
        if any(c != self.k_shot for c in counts):
            raise ValueError(f"every class must appear exactly k_shot={self.k_shot} "
                             f"times in support, got counts {counts}")
        for _, label in self.query:
            if not 0 <= label < self.n_way:
                raise ValueError(f"query label {label} outside [0, {self.n_way})")


class QuadraticTask:
    """Toy task |theta - c|^2 (same loss on support and query); its inner
    updates, meta-objective, and meta-gradient all have closed forms."""

    def __init__(self, centers: Mapping[str, CTensor]):
        self.centers = dict(centers)

    def _loss(self, g: Tape, params: dict[str, int]) -> int:
        total = None
        for name, nid in params.items():
            d = g.sub(nid, g.const(self.centers[name]))
            term = g_sum(g, g_abs2(g, d))
            total = term if total is None else g.add(total, term)
        return total

    support_loss = _loss
    query_loss = _loss


class EpisodeTask:
    """Few-shot classification task over one episode of signal frames."""

    def __init__(self, episode: Episode, arch: ArchConfig):
        self.episode = episode
        self.arch = arch
        self._support_in = frames_to_input([f for f, _ in episode.support], arch)
        self._support_labels = [y for _, y in episode.support]
        self._query_in = frames_to_input([f for f, _ in episode.query], arch)
        self._query_labels = [y for _, y in episode.query]

    def _loss(self, g: Tape, params: dict[str, int], x_in: np.ndarray, labels) -> int:
        lp = build_network(g, g.const(x_in), params, self.arch)
        return build_cross_entropy(g, lp, labels)

    def support_loss(self, g: Tape, params: dict[str, int]) -> int:
        return self._loss(g, params, self._support_in, self._support_labels)

    def query_loss(self, g: Tape, params: dict[str, int]) -> int:
        return self._loss(g, params, self._query_in, self._query_labels)

    def query_loss_and_accuracy(self, g: Tape, params: dict[str, int]) -> tuple[int, float]:
        """The query loss node, and the accuracy of the query log-probs that
        one forward computes it from (see :meth:`query_predictions`)."""
        lp = build_network(g, g.const(self._query_in), params, self.arch)
        return build_cross_entropy(g, lp, self._query_labels), self._hit_rate(_predictions(g.raw(lp)))

    def query_predictions(self, theta: Mapping[str, CTensor]) -> list[int]:
        """Predicted class of each query frame; raises FloatingPointError
        when a log-probability is not finite, where argmax would pick 0."""
        g = evaluator()
        consts = {k: g.const(v) for k, v in theta.items()}
        return _predictions(g.raw(build_network(g, g.const(self._query_in), consts, self.arch)))

    def _hit_rate(self, preds: list[int]) -> float:
        hits = sum(p == y for p, y in zip(preds, self._query_labels))
        return hits / max(1, len(self._query_labels))


def _predictions(lp: np.ndarray) -> list[int]:
    if not np.all(np.isfinite(lp)):
        raise FloatingPointError("query log-probabilities are not finite")
    return [int(i) for i in np.argmax(lp.real, axis=1)]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class MetaConfig:
    """Hyperparameters of the episodic training loop."""

    inner_lr: float = 0.1
    outer_lr: float = 0.001
    meta_batch: int = 2
    inner_steps: int = 5
    finetune_steps: int = 10
    n_way: int = 5
    k_shot: int = 1
    q_size: int = 5
    iterations: int = 1000
    first_order: bool = False
    seed: int = 0
    outer_optimizer: str = "sgd"
    early_stop: bool = True
    plateau_patience: int = 50
    plateau_tol: float = 1e-6
    checkpoint_every: int = 1000

    def __post_init__(self):
        if self.inner_lr < 0:
            raise ValueError("inner_lr must be >= 0")
        if self.outer_lr <= 0:
            raise ValueError("outer_lr must be positive")
        for name in ("meta_batch", "inner_steps", "n_way", "k_shot", "q_size", "plateau_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("finetune_steps", "iterations"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.outer_optimizer not in ("sgd", "adam"):
            raise ValueError(f"outer_optimizer must be sgd or adam, got {self.outer_optimizer!r}")


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def _leaf_gradients(adjoints, leaves: dict[str, int], theta: Mapping[str, CTensor]) -> dict[str, CTensor]:
    """2 dL/dz* at each leaf, from the adjoint arrays of :func:`backward_values`,
    doubled in place: each is a writable complex array of its own."""
    out = {}
    for name, nid in leaves.items():
        c = adjoints.get(nid)
        if c is None:
            out[name] = CTensor.zeros(theta[name].shape)
        else:
            c *= 2.0
            out[name] = CTensor._wrap(c)
    return out


def _support_tape(theta: ParamSet, task: MetaTask) -> tuple[Tape, dict[str, int], int]:
    """The support loss at ``theta`` on a new tape: the tape, its leaves and
    the loss node.  Raises FloatingPointError when the loss is not finite."""
    g = Tape()
    leaves = {k: g.leaf(v) for k, v in theta.items()}
    loss_id = task.support_loss(g, leaves)
    loss = float(g.raw(loss_id).real)
    if not math.isfinite(loss):
        raise FloatingPointError(f"support loss is not finite: {loss}")
    return g, leaves, loss_id


def _support_gradient(theta: ParamSet, task: MetaTask) -> dict[str, CTensor]:
    g, leaves, loss_id = _support_tape(theta, task)
    return _leaf_gradients(backward_values(g, loss_id), leaves, theta)


def inner_update(theta: ParamSet, task: MetaTask, inner_lr: float, steps: int) -> ParamSet:
    """Task adaptation: ``steps`` full-batch complex-gradient steps on the
    support loss.  The input ParamSet is not modified."""
    if steps < 1:
        raise ValueError("inner_update needs steps >= 1")
    cur = theta
    for _ in range(steps):
        # no name holds a step's gradient into the next step's sweep
        cur = cur.add_scaled(_support_gradient(cur, task), -inner_lr)
    return cur


def _query_loss(task: MetaTask, g: Tape, params: dict[str, int]) -> tuple[int, float | None]:
    """The query loss node, and the query accuracy read from the same
    forward; None for a task without a notion of accuracy."""
    scored = getattr(task, "query_loss_and_accuracy", None)
    return (task.query_loss(g, params), None) if scored is None else scored(g, params)


def _query_gradient(theta: ParamSet, task: MetaTask) -> tuple[dict[str, CTensor], float, float | None]:
    g = Tape()
    leaves = {k: g.leaf(v) for k, v in theta.items()}
    loss_id, acc = _query_loss(task, g, leaves)
    loss = float(g.raw(loss_id).real)
    return _leaf_gradients(backward_values(g, loss_id), leaves, theta), loss, acc


def meta_objective(theta: ParamSet, tasks: Sequence[MetaTask], inner_lr: float, steps: int) -> float:
    """Mean query loss after adapting to each task's support set."""
    if not tasks:
        raise ValueError("meta_objective needs at least one task")
    total = 0.0
    for task in tasks:
        adapted = inner_update(theta, task, inner_lr, steps) if steps > 0 else theta
        g = evaluator()
        consts = {k: g.const(v) for k, v in adapted.items()}
        total += float(g.raw(task.query_loss(g, consts)).real)
    return total / len(tasks)


def _accumulate(acc: dict[str, np.ndarray] | None, grad: Mapping[str, CTensor]) -> dict[str, np.ndarray]:
    """``grad`` added into ``acc`` in place.  The first gradient's arrays
    become the accumulator, so no copy of them is made: a task's gradient
    is an array of its own that nothing else holds."""
    if acc is None:
        return {k: v.numpy() for k, v in grad.items()}
    for k, v in grad.items():
        acc[k] += v.numpy()
    return acc


def _mean_paramset(acc: dict[str, np.ndarray], n: int) -> ParamSet:
    for k in acc:
        acc[k] /= n  # in place, but for a rank-0 sum, which is a numpy scalar
    return ParamSet({k: CTensor._wrap(v) for k, v in acc.items()})


def _exact_task_gradient(theta: ParamSet, task: MetaTask, inner_lr: float, steps: int):
    """Meta-gradient of one task, reversing its inner trajectory one step
    at a time.

    The forward pass keeps the parameters before each inner step,
    theta_0 ... theta_{K-1}; all but the last step run graph-free, and the
    last one is recorded, so its tape serves the first reverse step.  From
    the query gradient at the adapted parameters, each step k = K-1 ... 0
    applies its correction lam <- lam - alpha * H_k lam, with H_k the
    support Hessian product at theta_k (:func:`hvp_sweep` on a recorded
    support sweep).  Only one step's tape is alive at a time."""
    trajectory = [theta]
    for _ in range(steps - 1):
        trajectory.append(inner_update(trajectory[-1], task, inner_lr, 1))
    last = trajectory.pop()
    g, leaves, loss_id = _support_tape(last, task)
    first = backward(g, loss_id)
    adapted = last.add_scaled({k: complex_gradient(g, loss_id, nid, first) for k, nid in leaves.items()},
                              -inner_lr)
    g.release()  # the Hessian product reads none of the values this drops
    lam, q_loss, acc = _query_gradient(adapted, task)
    del last, adapted
    for k in reversed(range(steps)):
        if k < steps - 1:
            g, leaves, loss_id = _support_tape(trajectory.pop(), task)
            first = backward(g, loss_id)
        lam = ParamSet(lam).add_scaled(hvp_sweep(g, leaves, first, lam), -inner_lr)
        del g  # a swept tape still holds its leaves and consts
    return lam, q_loss, acc


def meta_gradient(theta: ParamSet, tasks: Sequence[MetaTask], inner_lr: float, steps: int) -> ParamSet:
    """Exact gradient of the meta-objective.

    Every number of inner steps takes the same route: from each task's
    query gradient at its adapted parameters, one curvature correction per
    inner step, applied in reverse order.  Its memory is one step's tape
    plus one parameter-sized snapshot per inner step.
    """
    grad, _, _ = _meta_step_gradient(theta, tasks, inner_lr, steps, first_order=False)
    return grad


def first_order_meta_gradient(theta: ParamSet, tasks: Sequence[MetaTask],
                              inner_lr: float, steps: int) -> ParamSet:
    """Ablation dropping both curvature terms: the mean query gradient at
    the adapted parameters.  Records no backward sweep: nothing here is
    differentiated twice."""
    grad, _, _ = _meta_step_gradient(theta, tasks, inner_lr, steps, first_order=True)
    return grad


def _meta_step_gradient(theta: ParamSet, tasks: Sequence[MetaTask], inner_lr: float,
                        steps: int, first_order: bool):
    if not tasks:
        raise ValueError("meta gradient needs at least one task")
    if steps < 1:
        raise ValueError("meta gradient needs steps >= 1")
    acc = None
    total_loss = 0.0
    query_accs = []
    for task in tasks:
        if first_order:
            grad, q_loss, q_acc = _query_gradient(inner_update(theta, task, inner_lr, steps), task)
        else:
            grad, q_loss, q_acc = _exact_task_gradient(theta, task, inner_lr, steps)
        acc = _accumulate(acc, grad)
        del grad  # folded in: not alive through the next task's query phase
        total_loss += q_loss
        query_accs.append(q_acc)
    return _mean_paramset(acc, len(tasks)), total_loss / len(tasks), query_accs


def outer_update(theta: ParamSet, grad: Mapping[str, CTensor], outer_lr: float) -> ParamSet:
    """Plain gradient step on the meta-parameters."""
    if outer_lr <= 0:
        raise ValueError("outer_lr must be positive")
    return theta.add_scaled(grad, -outer_lr)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class HistoryRow:
    iteration: int
    meta_loss: float
    query_acc: float  # nan for tasks without a notion of accuracy


@dataclass
class TrainState:
    theta: ParamSet
    iteration: int = 0
    history: list[HistoryRow] = field(default_factory=list)


class _Adam:
    """Adam on the real view: real and imaginary parts are treated as
    independent real coordinates, matching the usual optimizer semantics."""

    def __init__(self, lr: float, b1: float = 0.9, b2: float = 0.999, eps: float = 1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, theta: ParamSet, grad: Mapping[str, CTensor]) -> ParamSet:
        self.t += 1
        out = {}
        for k, p in theta.items():
            gk = grad[k].numpy()
            m = self.m.get(k)
            if m is None:
                m = np.zeros(p.shape, dtype=_C)
                v = np.zeros(p.shape, dtype=_C)
            else:
                v = self.v[k]
            m = self.b1 * m + (1 - self.b1) * gk
            v = self.b2 * v + (1 - self.b2) * (gk.real ** 2 + 1j * gk.imag ** 2)
            self.m[k], self.v[k] = m, v
            mh = m / (1 - self.b1 ** self.t)
            vh = v / (1 - self.b2 ** self.t)
            step = (mh.real / (np.sqrt(vh.real) + self.eps)
                    + 1j * mh.imag / (np.sqrt(vh.imag) + self.eps))
            out[k] = CTensor._wrap(p.numpy() - self.lr * step)
        return ParamSet(out)


class _Plateau:
    """The early-stopping rule: the mean of the last ``patience`` meta-losses
    has not improved on its best by ``tol`` for ``patience`` iterations."""

    def __init__(self, patience: int, tol: float):
        self.patience, self.tol = patience, tol
        self.recent: list[float] = []
        self.best, self.since_best = math.inf, 0

    def stalled(self, meta_loss: float) -> bool:
        """Take one iteration's meta-loss; True once the run should stop."""
        self.recent.append(meta_loss)
        del self.recent[:-self.patience]
        smoothed = float(np.mean(self.recent))
        if smoothed < self.best - self.tol:
            self.best, self.since_best = smoothed, 0
        else:
            self.since_best += 1
        return self.since_best >= self.patience


def train_meta(theta0: ParamSet, batch_source: Callable[[], Sequence[MetaTask]],
               cfg: MetaConfig, state: TrainState | None = None,
               on_iteration: Callable[[TrainState], None] | None = None) -> TrainState:
    """Run the outer loop: sample a task batch, adapt per task, step the
    meta-parameters along the exact (or first-order) meta-gradient.

    Stops at ``cfg.iterations`` or earlier when the smoothed meta-loss has
    not improved by ``plateau_tol`` for ``plateau_patience`` iterations.
    Raises :class:`DivergenceError` carrying the last finite state when a
    loss turns non-finite.
    """
    if state is None:
        state = TrainState(theta=theta0)
    adam = _Adam(cfg.outer_lr) if cfg.outer_optimizer == "adam" else None
    plateau = _Plateau(cfg.plateau_patience, cfg.plateau_tol)
    # a resumed run replays its history into the plateau window, so it
    # stops where an unbroken run stops, and trains no further if it had
    if cfg.early_stop and any(plateau.stalled(row.meta_loss) for row in state.history):
        return state

    while state.iteration < cfg.iterations:
        tasks = list(batch_source())
        try:
            grad, meta_loss, query_accs = _meta_step_gradient(
                state.theta, tasks, cfg.inner_lr, cfg.inner_steps, cfg.first_order)
            if not math.isfinite(meta_loss):
                raise FloatingPointError(f"meta loss {meta_loss}")
        except FloatingPointError as exc:
            raise DivergenceError(f"iteration {state.iteration}: {exc}", state) from exc
        accs = [a for a in query_accs if a is not None]
        acc = float(np.mean(accs)) if accs else math.nan

        if adam is not None:
            theta_next = adam.step(state.theta, grad)
        else:
            theta_next = outer_update(state.theta, grad, cfg.outer_lr)
        del grad  # not alive through the next iteration's meta-gradient
        bad = any(not (np.all(np.isfinite(t.numpy().real)) and np.all(np.isfinite(t.numpy().imag)))
                  for t in theta_next.values())
        if bad:
            raise DivergenceError(f"iteration {state.iteration}: parameters diverged", state)

        state.theta = theta_next
        state.history.append(HistoryRow(state.iteration, meta_loss, acc))
        state.iteration += 1
        if on_iteration is not None:
            on_iteration(state)

        if cfg.early_stop and plateau.stalled(meta_loss):
            break
    return state


def check_way_count(n_classes: int, n_way: int, whose: str = "the architecture has") -> None:
    """The head scores one class per way of an episode, so the two counts
    must agree; a mismatch is a ConfigError naming both."""
    if n_classes != n_way:
        raise ConfigError(f"{whose} n_classes={n_classes} but the episodes have n_way={n_way}; "
                          "the head scores one class per way of an episode")


def train_camel(cfg: MetaConfig, arch: ArchConfig, episode_source: Iterator[Episode],
                theta0: ParamSet | None = None, state: TrainState | None = None,
                on_iteration: Callable[[TrainState], None] | None = None) -> TrainState:
    """Episodic training of the recognition network (outer loop over
    batches of ``cfg.meta_batch`` episodes drawn from ``episode_source``)."""
    if theta0 is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        theta0 = ParamSet(init_params(arch, rng))

    def batch_source() -> list[EpisodeTask]:
        episodes = [next(episode_source) for _ in range(cfg.meta_batch)]
        for ep in episodes:
            check_way_count(arch.n_classes, ep.n_way)
        return [EpisodeTask(ep, arch) for ep in episodes]

    return train_meta(theta0, batch_source, cfg, state=state, on_iteration=on_iteration)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    accuracy: float
    ci95: float
    confusion: np.ndarray  # (n_way, n_way), rows = actual, percent
    episode_accuracies: list[float]


def evaluate(theta: ParamSet, episodes: Sequence[Episode], cfg: MetaConfig,
             arch: ArchConfig | None = None,
             predict_fn: Callable[[ParamSet, Episode], Sequence[int]] | None = None) -> EvalReport:
    """Fine-tune on each episode's support set, classify its query set.

    Reports mean accuracy, its normal-approximation 95% confidence
    interval over episodes, and the row-normalized confusion matrix in
    percent.  ``predict_fn`` overrides the network classifier (used by
    tests with oracle predictors).  The episodes must share one ``n_way``,
    which sizes the confusion matrix, and match ``arch.n_classes``."""
    if not episodes:
        raise ValueError("evaluate needs at least one episode")
    n_way = episodes[0].n_way
    if arch is not None:
        check_way_count(arch.n_classes, n_way)
    counts = np.zeros((n_way, n_way), dtype=np.float64)
    accs = []
    for i, ep in enumerate(episodes):
        if ep.n_way != n_way:
            raise ValueError(f"evaluate: episode {i} has n_way={ep.n_way} but episode 0 has n_way={n_way}")
        if arch is not None and predict_fn is None:
            task = EpisodeTask(ep, arch)
            adapted = theta
            if cfg.finetune_steps > 0 and cfg.inner_lr > 0:
                adapted = inner_update(theta, task, cfg.inner_lr, cfg.finetune_steps)
            preds = task.query_predictions(adapted)
        elif predict_fn is not None:
            preds = list(predict_fn(theta, ep))
        else:
            raise ValueError("evaluate needs an architecture or a predict_fn")
        hits = 0
        for (frame, label), pred in zip(ep.query, preds):
            counts[label, pred] += 1
            hits += int(pred == label)
        accs.append(hits / max(1, len(ep.query)))
    acc = float(np.mean(accs))
    sd = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
    ci95 = 1.96 * sd / math.sqrt(len(accs))
    row_sums = counts.sum(axis=1, keepdims=True)
    confusion = np.divide(counts * 100.0, row_sums, out=np.zeros_like(counts), where=row_sums > 0)
    return EvalReport(acc, ci95, confusion, accs)
