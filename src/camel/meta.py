"""Episodic meta-learning over complex parameters.

The inner loop adapts parameters on a task's support set with the complex
gradient; the outer loop follows the exact meta-gradient, whose one-step
form carries one curvature correction,

    grad_query  -  alpha * hvp(support_loss, theta, grad_query),

with grad_query taken at the adapted parameters and ``wirtinger.hvp`` the
support loss's R-linear Hessian applied to it.

For any number of inner steps the corrections are composed by
back-propagating from the query loss through the whole recorded inner
trajectory: each inner step's support gradient is recorded on the tape, so
the final sweep differentiates it a second time.  The result is validated
against finite differences and, at one step, against the closed form above
built from Hessian-vector products.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol, Sequence

import numpy as np

from .ctensor import CTensor, ShapeMismatchError
from .layers import ArchConfig, build_cross_entropy, build_network, frames_to_input, init_params
from .wirtinger import Tape, backward, backward_values, evaluator, g_abs2, g_sum

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
    (checkpoints and flattened norms rely on it).  Tensors are immutable,
    so set-level operations return new ParamSets.
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

    def map(self, fn: Callable[[str, CTensor], CTensor]) -> "ParamSet":
        return ParamSet({k: fn(k, v) for k, v in self._d.items()})

    def add_scaled(self, other: Mapping[str, CTensor], s: complex) -> "ParamSet":
        out = {}
        for k, v in self._d.items():
            o = other[k]
            if o.shape != v.shape:
                raise ShapeMismatchError(f"ParamSet.{k}: shapes differ, {v.shape} vs {o.shape}")
            out[k] = CTensor._wrap(v.numpy() + s * o.numpy())
        return ParamSet(out)

    def scale(self, s: complex) -> "ParamSet":
        return self.map(lambda k, v: CTensor._wrap(s * v.numpy()))

    def conj(self) -> "ParamSet":
        return self.map(lambda k, v: CTensor._wrap(np.conj(v.numpy())))

    def zeros_like(self) -> "ParamSet":
        return self.map(lambda k, v: CTensor.zeros(v.shape))

    def flat(self) -> np.ndarray:
        """All parameters concatenated into one complex vector."""
        if not self._d:
            return np.zeros(0, dtype=_C)
        return np.concatenate([v.numpy().ravel() for v in self._d.values()])

    def norm(self) -> float:
        f = self.flat()
        return float(np.sqrt(np.sum(f * np.conj(f)).real))

    def max_abs_diff(self, other: "ParamSet") -> float:
        return float(max((np.max(np.abs(self[k].numpy() - other[k].numpy()), initial=0.0)
                          for k in self), default=0.0))


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

    def query_accuracy(self, theta: Mapping[str, CTensor]) -> float:
        return self._hit_rate(self.query_predictions(theta))

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
class AdaptiveBetaConfig:
    """Inputs of the smoothness-scaled step size rule; the Lipschitz
    constants cannot be estimated from data and must be supplied."""

    grad_lipschitz: float
    hess_lipschitz: float = 0.0
    probe_tasks: int = 1

    def __post_init__(self):
        if self.grad_lipschitz <= 0:
            raise ValueError("grad_lipschitz must be positive")
        if self.hess_lipschitz < 0:
            raise ValueError("hess_lipschitz must be non-negative")
        if self.probe_tasks < 1:
            raise ValueError("probe_tasks must be >= 1")


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
    adaptive_beta: AdaptiveBetaConfig | None = None

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
        if self.adaptive_beta is not None:
            limit = 1.0 / (6.0 * self.adaptive_beta.grad_lipschitz)
            if not 0 < self.inner_lr <= limit:
                raise ValueError(
                    f"inner_lr {self.inner_lr} outside (0, 1/(6L)] = (0, {limit:.6g}] "
                    "required by the adaptive step size rule")


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def _leaf_gradients(adjoints, leaves: dict[str, int], theta: Mapping[str, CTensor]) -> dict[str, CTensor]:
    """2 dL/dz* at each leaf, from the adjoint arrays of :func:`backward_values`."""
    out = {}
    for name, nid in leaves.items():
        c = adjoints.get(nid)
        out[name] = CTensor.zeros(theta[name].shape) if c is None else CTensor._wrap(2.0 * c)
    return out


def _support_gradient(theta: ParamSet, task: MetaTask) -> tuple[dict[str, CTensor], float]:
    g = Tape()
    leaves = {k: g.leaf(v) for k, v in theta.items()}
    loss_id = task.support_loss(g, leaves)
    loss = float(g.raw(loss_id).real)
    if not math.isfinite(loss):
        raise FloatingPointError(f"support loss is not finite: {loss}")
    return _leaf_gradients(backward_values(g, loss_id), leaves, theta), loss


def inner_update(theta: ParamSet, task: MetaTask, inner_lr: float, steps: int) -> ParamSet:
    """Task adaptation: ``steps`` full-batch complex-gradient steps on the
    support loss.  The input ParamSet is not modified."""
    if steps < 1:
        raise ValueError("inner_update needs steps >= 1")
    cur = theta
    for _ in range(steps):
        # no name holds a step's gradient into the next step's sweep
        cur = cur.add_scaled(_support_gradient(cur, task)[0], -inner_lr)
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
    if acc is None:
        return {k: v.numpy().copy() for k, v in grad.items()}
    for k, v in grad.items():
        acc[k] += v.numpy()
    return acc


def _mean_paramset(acc: dict[str, np.ndarray], n: int) -> ParamSet:
    return ParamSet({k: CTensor._wrap(v / n) for k, v in acc.items()})


def _unrolled_task_gradient(theta: ParamSet, task: MetaTask, inner_lr: float, steps: int):
    """Meta-gradient of one task by differentiating through the whole
    recorded inner trajectory.

    The inner steps' sweeps record their arithmetic, because the final
    sweep from the query loss differentiates them again; the final sweep
    itself records nothing.  After each step the tape releases the values
    that no recorded pullback reads, keeping the adapted parameters."""
    g = Tape()
    leaves = {k: g.leaf(v) for k, v in theta.items()}
    cur = dict(leaves)
    for _ in range(steps):
        loss_id = task.support_loss(g, cur)
        if not math.isfinite(float(g.raw(loss_id).real)):
            raise FloatingPointError("support loss is not finite")
        cots = backward(g, loss_id, stop=set(cur.values()))
        cur = {name: nid if nid not in cots else g.sub(nid, g.smul(cots[nid], 2.0 * inner_lr))
               for name, nid in cur.items()}
        g.release(keep=cur.values())
    q_id, acc = _query_loss(task, g, cur)
    q_loss = float(g.raw(q_id).real)
    return _leaf_gradients(backward_values(g, q_id), leaves, theta), q_loss, acc


def meta_gradient(theta: ParamSet, tasks: Sequence[MetaTask], inner_lr: float, steps: int) -> ParamSet:
    """Exact gradient of the meta-objective.

    Every number of inner steps takes the same route: the curvature
    corrections are composed by back-propagating from each task's query
    loss through its full recorded inner trajectory.
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
            grad, q_loss, q_acc = _unrolled_task_gradient(theta, task, inner_lr, steps)
        acc = _accumulate(acc, grad)
        total_loss += q_loss
        query_accs.append(q_acc)
    return _mean_paramset(acc, len(tasks)), total_loss / len(tasks), query_accs


def outer_update(theta: ParamSet, grad: Mapping[str, CTensor], outer_lr: float) -> ParamSet:
    """Plain gradient step on the meta-parameters."""
    if outer_lr <= 0:
        raise ValueError("outer_lr must be positive")
    return theta.add_scaled(grad, -outer_lr)


def adaptive_beta(theta: ParamSet, tasks: Sequence[MetaTask], inner_lr: float,
                  cfg: AdaptiveBetaConfig) -> float:
    """Smoothness-scaled outer step size

        beta(theta) = 1 / (4L + 2 rho alpha mean_i ||grad_i||),

    divided by 12, estimated from the support gradients of the sampled
    probe tasks."""
    if cfg is None:
        raise ValueError("adaptive step size needs its configuration")
    norms = []
    for task in tasks[: cfg.probe_tasks]:
        grad, _ = _support_gradient(theta, task)
        norms.append(ParamSet(grad).norm())
    mean_norm = float(np.mean(norms)) if norms else 0.0
    l, rho = cfg.grad_lipschitz, cfg.hess_lipschitz
    beta_tilde = 1.0 / (4.0 * l + 2.0 * rho * inner_lr * mean_norm)
    return beta_tilde / 12.0


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
            lr = cfg.outer_lr
            if cfg.adaptive_beta is not None:
                lr = adaptive_beta(state.theta, tasks, cfg.inner_lr, cfg.adaptive_beta)
            theta_next = outer_update(state.theta, grad, lr)
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


def train_camel(cfg: MetaConfig, arch: ArchConfig, episode_source: Iterator[Episode],
                theta0: ParamSet | None = None, state: TrainState | None = None,
                on_iteration: Callable[[TrainState], None] | None = None) -> TrainState:
    """Episodic training of the recognition network (outer loop over
    batches of ``cfg.meta_batch`` episodes drawn from ``episode_source``)."""
    if theta0 is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        theta0 = ParamSet(init_params(arch, rng))

    def batch_source() -> list[EpisodeTask]:
        return [EpisodeTask(next(episode_source), arch) for _ in range(cfg.meta_batch)]

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
    tests with oracle predictors)."""
    if not episodes:
        raise ValueError("evaluate needs at least one episode")
    n_way = episodes[0].n_way
    counts = np.zeros((n_way, n_way), dtype=np.float64)
    accs = []
    for ep in episodes:
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
