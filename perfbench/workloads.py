"""The benchmark's workloads: set-up, the timed run, the traced run and the
output checks, all through camel's public API.

Importing this module imports camel and numpy.  ``run.py`` counts that
import as part of set-up, so it imports this module only after starting its
clock.
"""

from __future__ import annotations

import os
import resource
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

import checks
from spans import Tracer

from camel.cli import Checkpoint, load_checkpoint, save_checkpoint
from camel.layers import ArchConfig, init_params
from camel.meta import (
    DivergenceError,
    Episode,
    EpisodeTask,
    MetaConfig,
    ParamSet,
    evaluate,
    inner_update,
    meta_gradient,
    meta_objective,
    outer_update,
    train_camel,
)
from camel.signals import episode_stream, generate_pool
from camel.wirtinger import Tape, backward, backward_graph, complex_gradient, g_dot_const

# The frame pool of every workload: 7 schemes x 5 SNRs x 40 frames, sps 4.
SCHEMES = ("BPSK", "QPSK", "8PSK", "PAM4", "QAM16", "CPFSK", "GFSK")
SNR_GRID = (10.0, 12.0, 14.0, 16.0, 18.0)
FRAMES_PER_CELL = 40
SPS = 4

# The arch of acceptance criteria 6/7, and a wider one with ~70k parameters.
DESK = dict(n_classes=5, frame_len=64, conv_channels=8, conv_stride=4,
            attn_dim=8, n_heads=2, fc_hidden=32)
WIDE = dict(n_classes=5, frame_len=128, conv_channels=32, conv_stride=2,
            attn_dim=16, n_heads=4, fc_hidden=64)

FINETUNE_CHECKED = 2     # eval episodes whose fine-tuning is re-checked
POOL_REPEATS = 3         # generate_pool calls timed by the traced run


@dataclass(frozen=True)
class Workload:
    name: str
    arch: dict
    train: bool          # meta-training (a step is a meta-iteration) or evaluation (an episode)
    inner_steps: int
    steps_per_s: float   # nominal rate: a run of S seconds does round(S * rate) steps
    rounds_per_s: float  # the same for the rounds of the traced run
    min_steps: int       # floor, so that the output checks have enough steps to look at
    loss_falls: bool     # whether the run checks that the meta-loss falls


# At inner_steps=5 the meta-loss of a 150-iteration run rose on 2 of 8 seeds,
# so train_so5 does not check that it falls (CHANGES.md has the figures).
WORKLOADS = {
    "train_so1": Workload("train_so1", DESK, True, 1, 11.7, 6.0, 40, True),
    "train_so5": Workload("train_so5", DESK, True, 5, 4.3, 3.5, 25, False),
    "eval_wide": Workload("eval_wide", WIDE, False, 1, 2.65, 0.75, 5, False),
}


def meta_config(w: Workload, iterations: int, seed: int) -> MetaConfig:
    """Desk settings of acceptance criteria 6/7: 5-way 1-shot, 5 queries per
    class, meta-batch 2 (1 for evaluation), inner lr 0.1, Adam outer lr
    0.002, 10 fine-tune steps."""
    return MetaConfig(inner_lr=0.1, outer_lr=0.002, meta_batch=2 if w.train else 1,
                      inner_steps=w.inner_steps, finetune_steps=10, n_way=5, k_shot=1,
                      q_size=5, iterations=iterations, outer_optimizer="adam",
                      early_stop=False, seed=seed)


def step_count(w: Workload, seconds: float) -> int:
    return max(w.min_steps, round(seconds * w.steps_per_s))


def round_count(w: Workload, seconds: float) -> int:
    return max(3, round(seconds * w.rounds_per_s))


def _rng(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


@dataclass
class SetUp:
    w: Workload
    arch: ArchConfig
    cfg: MetaConfig
    theta: ParamSet
    episodes: Iterator[Episode]
    check_rng: np.random.Generator
    pool_seed: np.random.SeedSequence


def set_up(w: Workload, seed: int, steps: int) -> SetUp:
    """Everything a run needs before its first step: the pool, the initial
    parameters and the episode stream, each from its own stream of ``seed``."""
    data, init, eps, check = np.random.SeedSequence(seed).spawn(4)
    arch = ArchConfig(**w.arch)
    cfg = meta_config(w, steps, seed)
    pool = generate_pool(SCHEMES, SNR_GRID, FRAMES_PER_CELL, arch.frame_len, SPS, _rng(data))
    theta = ParamSet(init_params(arch, _rng(init)))
    episodes = episode_stream(pool, cfg.n_way, cfg.k_shot, cfg.q_size, _rng(eps))
    return SetUp(w, arch, cfg, theta, episodes, _rng(check), data)


# ---------------------------------------------------------------------------
# the timed run
# ---------------------------------------------------------------------------

@dataclass
class Timed:
    attempted: int
    failed: int
    wall_s: float
    step_ms: list[float]
    cpu_s: float
    peak_rss_mb: float
    failures: list[str]


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class _StampedEpisodes(Sequence):
    """The episodes of an eval run, drawn from the stream when first needed.
    Iterating stamps the clock at each episode boundary, which times each
    episode inside one ``evaluate`` call."""

    def __init__(self, source: Iterator[Episode], n: int):
        self._source, self._n = source, n
        self.drawn: list[Episode] = []
        self.stamps: list[float] = []

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> Episode:
        if not 0 <= i < self._n:
            raise IndexError(i)
        while len(self.drawn) <= i:
            self.drawn.append(next(self._source))
        return self.drawn[i]

    def __iter__(self):
        for i in range(self._n):
            if i:
                self.stamps.append(time.perf_counter())
            yield self[i]


def run_timed(s: SetUp, steps: int) -> Timed:
    """``steps`` meta-iterations through ``train_camel``, or ``steps``
    episodes through ``evaluate``, then the output checks (not timed)."""
    stamps: list[float] = []
    failed = 0
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if s.w.train:
        try:
            state = train_camel(s.cfg, s.arch, s.episodes, theta0=s.theta,
                                on_iteration=lambda st: stamps.append(time.perf_counter()))
        except DivergenceError as exc:
            state, failed = exc.state, steps - exc.state.iteration
        t1 = time.perf_counter()
    else:
        episodes = _StampedEpisodes(s.episodes, steps)
        try:
            report = evaluate(s.theta, episodes, s.cfg, s.arch)
        except FloatingPointError:
            report, failed = None, steps
        t1 = time.perf_counter()
        stamps = episodes.stamps + [t1]
    cpu = _cpu_s() - cpu0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    step_ms = list(1000.0 * np.diff([t0] + stamps))

    if failed:
        failures = [f"{failed} of {steps} steps failed"]
    elif s.w.train:
        failures = _check_training(s, state)
    else:
        failures = _check_eval(s, report, episodes.drawn)
    return Timed(steps, failed, t1 - t0, step_ms, cpu, peak, failures)


def support_loss_at(theta: ParamSet, task: EpisodeTask) -> float:
    """The support loss of ``task`` at ``theta``, recorded without leaves."""
    g = Tape()
    leaves = {k: g.const(v) for k, v in theta.items()}
    return float(g.raw(task.support_loss(g, leaves)).real)


def _check_training(s: SetUp, state) -> list[str]:
    """Parameters stay finite, the meta-loss falls (where the workload checks
    it), and the meta-gradient at the final parameters matches finite
    differences on a fresh task batch."""
    theta, cfg = state.theta, s.cfg
    failures = checks.check_finite(theta)
    if s.w.loss_falls:
        failures += checks.check_loss_falls([row.meta_loss for row in state.history])
    if failures:
        return failures
    tasks = [EpisodeTask(next(s.episodes), s.arch) for _ in range(cfg.meta_batch)]
    grad = meta_gradient(theta, tasks, cfg.inner_lr, cfg.inner_steps)
    errors = checks.fd_errors(lambda th: meta_objective(th, tasks, cfg.inner_lr, cfg.inner_steps),
                              theta, grad, checks.random_directions(theta, s.check_rng))
    return failures + checks.check_gradient("meta-gradient", errors)


def _check_eval(s: SetUp, report, drawn: list[Episode]) -> list[str]:
    """The report agrees with itself, fine-tuning lowers the support loss,
    and the support gradient at theta matches finite differences."""
    failures = checks.check_report(report, len(drawn))
    tasks = [EpisodeTask(ep, s.arch) for ep in drawn[:FINETUNE_CHECKED]]
    before = [support_loss_at(s.theta, t) for t in tasks]
    after = [support_loss_at(inner_update(s.theta, t, s.cfg.inner_lr, s.cfg.finetune_steps), t)
             for t in tasks]
    failures += checks.check_finetune(before, after)

    task = tasks[0]
    g = Tape()
    leaves = {k: g.leaf(v) for k, v in s.theta.items()}
    loss = task.support_loss(g, leaves)
    cots = backward(g, loss)
    grad = {k: complex_gradient(g, loss, nid, cots) for k, nid in leaves.items()}
    errors = checks.fd_errors(lambda th: support_loss_at(th, task), s.theta, grad,
                              checks.random_directions(s.theta, s.check_rng),
                              steps=checks.FD_STEPS[-1:])
    return failures + checks.check_gradient("support gradient", errors)


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

@dataclass
class Traced:
    attempted: int
    wall_s: float
    metrics: dict[str, tuple[float, str]]
    failures: list[str]
    spans_per_round: float


def run_traced(s: SetUp, rounds: int, tracer: Tracer, ckpt_path: str) -> Traced:
    """``rounds`` rounds of calls into each module's public functions, each
    call inside a span.  A round samples a task batch, records a support
    forward and backward on one tape, sweeps that tape's gradient a second
    time, adapts, runs a query forward, takes the exact meta-gradient (and
    an outer step when training), evaluates one episode and round-trips a
    checkpoint."""
    w, cfg, arch = s.w, s.cfg, s.arch
    for _ in range(POOL_REPEATS):
        with tracer.span("signals.generate_pool"):
            generate_pool(SCHEMES, SNR_GRID, FRAMES_PER_CELL, arch.frame_len, SPS, _rng(s.pool_seed))
    n_inner = cfg.inner_steps if w.train else cfg.finetune_steps
    # A fixed header (iteration 0, the state of a fresh generator) keeps the
    # checkpoint's size the same in every round and run.
    rng_state = _rng(np.random.SeedSequence(0)).bit_generator.state
    theta = s.theta
    failures: list[str] = []
    first_span = len(tracer.spans)
    t0 = time.perf_counter()
    for _ in range(rounds):
        with tracer.span("round"):
            tasks = []
            for _ in range(cfg.meta_batch):
                with tracer.span("signals.sample_episode"):
                    ep = next(s.episodes)
                tasks.append(EpisodeTask(ep, arch))
            task = tasks[0]

            g = Tape()
            leaves = {k: g.leaf(v) for k, v in theta.items()}
            with tracer.span("layers.support_forward"):
                loss = task.support_loss(g, leaves)
            n_fwd = len(g)
            with tracer.span("wirtinger.backward"):
                pairs = backward_graph(g, loss, seed=(0.5, 0.5))
            tracer.count("layers.forward_nodes", n_fwd)
            tracer.count("wirtinger.backward_nodes", len(g) - n_fwd)
            tracer.count("wirtinger.tape_bytes", sum(v.nbytes for v in g.val))
            with tracer.span("wirtinger.second_sweep"):
                # d/d(theta) of sum(grad * conj(grad value)), over the recorded gradient
                total = None
                for nid in leaves.values():
                    cid = pairs.get(nid, (None, None))[1]
                    if cid is not None:
                        term = g_dot_const(g, cid, np.conj(g.val[cid]))
                        total = term if total is None else g.add(total, term)
                backward_graph(g, total, seed=(1.0, None))
            del g, pairs  # free this tape before the calls below record their own

            with tracer.span("meta.inner_update"):
                adapted = inner_update(theta, task, cfg.inner_lr, n_inner)
            gq = Tape()
            consts = {k: gq.const(v) for k, v in adapted.items()}
            with tracer.span("layers.query_forward"):
                task.query_loss(gq, consts)
            del gq, consts

            with tracer.span("meta.meta_gradient"):
                grad = meta_gradient(theta, tasks, cfg.inner_lr, cfg.inner_steps)
            if w.train:
                theta = outer_update(theta, grad, cfg.outer_lr)
            failures += checks.check_finite(grad)

            with tracer.span("meta.evaluate_episode"):
                evaluate(theta, [ep], cfg, arch)

            with tracer.span("cli.checkpoint_roundtrip"):
                save_checkpoint(ckpt_path, Checkpoint(arch, theta, 0, rng_state, []))
                loaded = load_checkpoint(ckpt_path)
            tracer.count("cli.checkpoint_bytes", os.path.getsize(ckpt_path))
            failures += checks.check_roundtrip(theta, loaded.theta)
    wall = time.perf_counter() - t0
    failures += checks.check_counts(tracer.counts)

    c = {k: v[0] for k, v in tracer.counts.items()}
    metrics = {
        "signals.generate_pool_ms": (tracer.median_ms("signals.generate_pool"), "ms"),
        "signals.sample_episode_ms": (tracer.median_ms("signals.sample_episode"), "ms"),
        "layers.support_forward_ms": (tracer.median_ms("layers.support_forward"), "ms"),
        "layers.forward_nodes": (c["layers.forward_nodes"], "count"),
        "layers.query_forward_ms": (tracer.median_ms("layers.query_forward"), "ms"),
        "wirtinger.backward_ms": (tracer.median_ms("wirtinger.backward"), "ms"),
        "wirtinger.backward_nodes": (c["wirtinger.backward_nodes"], "count"),
        "wirtinger.second_sweep_ms": (tracer.median_ms("wirtinger.second_sweep"), "ms"),
        "wirtinger.tape_mb": (c["wirtinger.tape_bytes"] / 2**20, "MB"),
        "meta.inner_update_ms": (tracer.median_ms("meta.inner_update"), "ms"),
        "meta.meta_gradient_ms": (tracer.median_ms("meta.meta_gradient"), "ms"),
        "meta.evaluate_episode_ms": (tracer.median_ms("meta.evaluate_episode"), "ms"),
        "cli.checkpoint_roundtrip_ms": (tracer.median_ms("cli.checkpoint_roundtrip"), "ms"),
        "cli.checkpoint_bytes": (c["cli.checkpoint_bytes"], "bytes"),
    }
    per_round = (len(tracer.spans) - first_span) / rounds
    return Traced(rounds, wall, metrics, failures, per_round)


def span_cost_us(n: int = 2000) -> float:
    """Cost of recording one empty span, in microseconds."""
    t = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with t.span("x"):
            pass
    return 1e6 * (time.perf_counter() - t0) / n
