import gc
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from camel.ctensor import CTensor
from camel.layers import ArchConfig, build_network, frames_to_input, init_params
from camel.meta import (
    DivergenceError,
    Episode,
    EpisodeTask,
    MetaConfig,
    ParamSet,
    QuadraticTask,
    evaluate,
    first_order_meta_gradient,
    inner_update,
    meta_gradient,
    meta_objective,
    outer_update,
    train_camel,
    train_meta,
)
import camel.layers
import camel.meta
import camel.wirtinger
from camel.wirtinger import (
    Tape,
    backward,
    backward_graph,
    backward_values,
    complex_gradient,
    evaluator,
    g_sum,
    hvp,
    hvp_sweep,
)

from conftest import assert_same_adjoints, rand_complex, traced_peak

ALPHA = 0.1
THETA0 = 1.0 - 0.4j
CENTERS = [0.3 + 0.7j, -0.5 + 0.2j]


def quad_tasks(centers=CENTERS):
    return [QuadraticTask({"t": CTensor.scalar(c)}) for c in centers]


def theta_scalar(value=THETA0):
    return ParamSet({"t": CTensor.scalar(value)})


def toy_episode(rng, arch, n_way=2, k_shot=1, q_per_class=2):
    sup, qry = [], []
    for c in range(n_way):
        for _ in range(k_shot):
            sup.append((CTensor(rand_complex(rng, arch.frame_len)), c))
        for _ in range(q_per_class):
            qry.append((CTensor(rand_complex(rng, arch.frame_len)), c))
    return Episode(tuple(sup), tuple(qry), n_way=n_way, k_shot=k_shot)


TOY_ARCH = ArchConfig(n_classes=2, frame_len=16, conv_channels=2, conv_stride=2,
                      attn_dim=2, n_heads=1, fc_hidden=4)
WIDE_ARCH = ArchConfig(n_classes=5, frame_len=128, conv_channels=32, conv_stride=2,
                       attn_dim=16, n_heads=4, fc_hidden=64)


# ---------------------------------------------------------------------------
# ParamSet and Episode
# ---------------------------------------------------------------------------

def test_paramset_order_and_ops(rng):
    ps = ParamSet({"a": CTensor(rand_complex(rng, 2)), "b": CTensor(rand_complex(rng, 3))})
    assert list(ps) == ["a", "b"]
    doubled = ps.add_scaled(ps, 1.0)
    assert np.allclose(doubled["a"].numpy(), 2 * ps["a"].numpy())


def test_episode_invariants(rng):
    with pytest.raises(ValueError):
        Episode(((CTensor(rand_complex(rng, 4)), 0),), (), n_way=2, k_shot=1)
    with pytest.raises(ValueError):
        Episode(((CTensor(rand_complex(rng, 4)), 0), (CTensor(rand_complex(rng, 4)), 0)),
                (), n_way=2, k_shot=1)


# ---------------------------------------------------------------------------
# inner loop
# ---------------------------------------------------------------------------

def test_inner_update_zero_lr_identity():
    theta = theta_scalar()
    out = inner_update(theta, quad_tasks()[0], 0.0, 3)
    assert out["t"].item() == THETA0
    assert theta["t"].item() == THETA0  # input untouched


def test_inner_update_closed_form():
    out = inner_update(theta_scalar(), quad_tasks()[0], ALPHA, 1)
    want = THETA0 - 2 * ALPHA * (THETA0 - CENTERS[0])
    assert abs(out["t"].item() - want) <= 1e-14


def test_inner_update_steps_compose():
    task = quad_tasks()[0]
    two = inner_update(theta_scalar(), task, ALPHA, 2)
    one_one = inner_update(inner_update(theta_scalar(), task, ALPHA, 1), task, ALPHA, 1)
    assert abs(two["t"].item() - one_one["t"].item()) <= 1e-14


# ---------------------------------------------------------------------------
# meta objective
# ---------------------------------------------------------------------------

def test_meta_objective_zero_lr_is_query_loss():
    tasks = quad_tasks()[:1]
    got = meta_objective(theta_scalar(), tasks, 0.0, 1)
    assert abs(got - abs(THETA0 - CENTERS[0]) ** 2) <= 1e-12


def test_meta_objective_duplicate_task_averages():
    t = quad_tasks()[0]
    a = meta_objective(theta_scalar(), [t], ALPHA, 1)
    b = meta_objective(theta_scalar(), [t, t], ALPHA, 1)
    assert abs(a - b) <= 1e-14


def test_meta_objective_quadratic_closed_form():
    got = meta_objective(theta_scalar(), quad_tasks(), ALPHA, 1)
    want = (1 - 2 * ALPHA) ** 2 * np.mean([abs(THETA0 - c) ** 2 for c in CENTERS])
    assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# meta gradient
# ---------------------------------------------------------------------------

def test_meta_gradient_quadratic_closed_form():
    got = meta_gradient(theta_scalar(), quad_tasks(), ALPHA, 1)["t"].item()
    want = np.mean([(1 - 2 * ALPHA) * 2 * ((THETA0 - 2 * ALPHA * (THETA0 - c)) - c)
                    for c in CENTERS])
    assert abs(got - want) <= 1e-10


def test_meta_gradient_zero_lr_equals_first_order_equals_query_mean():
    theta = theta_scalar()
    exact = meta_gradient(theta, quad_tasks(), 0.0, 1)["t"].item()
    fo = first_order_meta_gradient(theta, quad_tasks(), 0.0, 1)["t"].item()
    query_mean = np.mean([2 * (THETA0 - c) for c in CENTERS])
    assert abs(exact - fo) <= 1e-12
    assert abs(exact - query_mean) <= 1e-12


def test_first_order_differs_by_curvature_factor():
    exact = meta_gradient(theta_scalar(), quad_tasks(), ALPHA, 1)["t"].item()
    fo = first_order_meta_gradient(theta_scalar(), quad_tasks(), ALPHA, 1)["t"].item()
    assert abs(exact - (1 - 2 * ALPHA) * fo) <= 1e-12


def test_first_order_never_calls_backward_graph(monkeypatch):
    # neither recorded sweep: the pair API nor the one-adjoint backward
    def recording_sweep(*args, **kwargs):
        raise AssertionError("first-order meta-gradient recorded a backward sweep")

    monkeypatch.setattr(camel.wirtinger, "backward_graph", recording_sweep)
    monkeypatch.setattr(camel.wirtinger, "backward", recording_sweep)
    monkeypatch.setattr(camel.meta, "backward", recording_sweep)
    first_order_meta_gradient(theta_scalar(), quad_tasks(), ALPHA, 3)


def test_curvature_form_equals_unrolled_single_step(rng):
    # the closed one-step form u - a hvp(u), with u the query gradient at
    # the adapted parameters: the R-linear support Hessian is symmetric, so
    # its product with u is the transposed Jacobian of the inner step
    theta = ParamSet(init_params(TOY_ARCH, rng))
    task = EpisodeTask(toy_episode(rng, TOY_ARCH), TOY_ARCH)
    adapted = inner_update(theta, task, ALPHA, 1)
    g = Tape()
    leaves = {k: g.leaf(v) for k, v in adapted.items()}
    q_loss = task.query_loss(g, leaves)
    cots = backward(g, q_loss)
    u = {k: complex_gradient(g, q_loss, nid, cots).numpy() for k, nid in leaves.items()}
    h = hvp(task.support_loss, theta, {k: CTensor(v) for k, v in u.items()})
    closed = {k: u[k] - ALPHA * h[k].numpy() for k in u}
    unrolled = meta_gradient(theta, [task], ALPHA, 1)
    worst = max(np.max(np.abs(closed[k] - unrolled[k].numpy())) for k in theta)
    assert worst <= 1e-10


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_meta_gradient_matches_fd_on_network(rng, steps):
    theta = ParamSet(init_params(TOY_ARCH, rng))
    tasks = [EpisodeTask(toy_episode(rng, TOY_ARCH), TOY_ARCH) for _ in range(2)]
    grad = meta_gradient(theta, tasks, ALPHA, steps)
    h = 1e-6
    for _ in range(5):
        d = {k: CTensor(rand_complex(rng, *v.shape) if v.shape else rand_complex(rng))
             for k, v in theta.items()}
        tp = ParamSet({k: CTensor._wrap(theta[k].numpy() + h * d[k].numpy()) for k in theta})
        tm = ParamSet({k: CTensor._wrap(theta[k].numpy() - h * d[k].numpy()) for k in theta})
        fd = (meta_objective(tp, tasks, ALPHA, steps)
              - meta_objective(tm, tasks, ALPHA, steps)) / (2 * h)
        want = sum(float(np.sum(grad[k].numpy() * np.conj(d[k].numpy())).real) for k in theta)
        assert abs(fd - want) <= 1e-4 * max(abs(fd), 1e-8)


@pytest.mark.parametrize("arch", [TOY_ARCH, WIDE_ARCH], ids=["toy", "wide"])
def test_backward_values_match_backward_graph_on_network(rng, arch):
    # at the wide arch fc0.W, 64,512 of the 66,677 parameters, is a leaf
    # operand with more elements than the other operand and the product's
    # adjoint together, so the graph-free sweep forms its adjoint last
    theta = ParamSet(init_params(arch, rng))
    task = EpisodeTask(toy_episode(rng, arch, n_way=arch.n_classes), arch)
    # a graph-free sweep consumes its tape: the recorded sweep runs on a twin
    tapes = []
    for _ in range(2):
        g = Tape()
        leaves = {k: g.leaf(v) for k, v in theta.items()}
        tapes.append((g, leaves, task.support_loss(g, leaves)))
    (g, leaves, loss), (gg, _, gloss) = tapes
    n = len(g)
    values = backward_values(g, loss)
    assert len(g) == n
    assert_same_adjoints(gg, values, backward(gg, gloss), leaves.values())


DESK_ARCH = ArchConfig(n_classes=5, frame_len=64, conv_channels=8, conv_stride=4,
                       attn_dim=8, n_heads=2, fc_hidden=32)


def test_unrolled_meta_gradient_memory_at_desk_scale(rng):
    # one 5-step desk task peaks near 2.5 MiB of traced allocations; a sweep
    # through the whole unrolled tape that recorded its arithmetic needed 133 MB
    theta = ParamSet(init_params(DESK_ARCH, rng))
    task = EpisodeTask(toy_episode(rng, DESK_ARCH, n_way=5, k_shot=1, q_per_class=5), DESK_ARCH)
    peak = traced_peak(lambda: meta_gradient(theta, [task], ALPHA, 5))
    assert peak < 60 * 2**20


def _desk_tasks(rng, n=2):
    theta = ParamSet(init_params(DESK_ARCH, rng))
    return theta, [EpisodeTask(toy_episode(rng, DESK_ARCH, n_way=5, k_shot=1, q_per_class=5), DESK_ARCH)
                   for _ in range(n)]


def test_single_channel_sweeps_at_desk_scale(rng, monkeypatch):
    # one adjoint per node, conjugate-aware products, broadcasting ops and
    # one attend node over the rows of every sequence and head: a desk
    # support forward takes 67 nodes and its recorded backward 118, 34 of
    # which are attend's closed-form adjoint with its head split and merge.
    # With the heads split and merged by 13 nodes around a batched attend
    # they took 80 and 115 (134 when the pullback re-recorded the attention
    # chain, 127 when the two crelus took 12 nodes, not 2, and the head's
    # modulus 4, not 2).
    # Storing conv0's kernel, not an embedding and a kernel that the tape
    # multiplied, took 5 and 5 (from 85 and 139); dropping the biases that
    # feed a norm had taken 10 and 8 (from 95 and 147; 146 with real nodes
    # in complex storage, 99 and 138 with the chain on the forward tape,
    # 143 and 262 with conj/transpose nodes and index-map gathers).  The
    # counts are pinned exactly, so a sweep that records one node more
    # fails here without any timing.  Each inner step's Hessian product
    # sweeps one support tape of 185 nodes (195 with the heads moved
    # outside attend), the forward and its recorded backward, at any number
    # of steps (the whole unrolled tape held 324 nodes after 1 step and 1280
    # after 5).  The 5-step meta-gradient peaks at 1.98 MiB of traced
    # allocations with attend's pullback in chunks of a bounded working set
    # (2.43 MiB with the query batch's score blocks in one chunk, 5.0
    # unrolled); the bound is 10% above that
    theta, (task,) = _desk_tasks(rng, 1)
    g = Tape()
    loss = task.support_loss(g, {k: g.leaf(v) for k, v in theta.items()})
    n = len(g)
    assert n == 67
    backward(g, loss)
    assert len(g) - n == 118
    lengths = []

    def product_sweep(g, *args):
        lengths.append(len(g))
        return hvp_sweep(g, *args)

    monkeypatch.setattr(camel.meta, "hvp_sweep", product_sweep)
    meta_gradient(theta, [task], ALPHA, 1)
    assert lengths == [185]
    peak = traced_peak(lambda: meta_gradient(theta, [task], ALPHA, 5))
    assert lengths == [185] * 6
    assert peak < 2.15 * 2**20


_SCOPES = {"build_cconv1d": "conv", "build_norm": "norm", "build_act": "act", "build_cfc": "cfc",
           "build_mha": "mha", "build_log_softmax_last": "log-softmax", "build_cross_entropy": "cross-entropy"}
"""The layer builders of a support loss, each with the scope its nodes count
under."""


def test_desk_support_pass_node_counts_by_scope(rng, monkeypatch):
    # the Baseline's per-layer table, pinned exactly: a builder labels the
    # nodes it records, a pullback's nodes take the label of the node they
    # pull back, and the sweep's seed and accumulating adds count apart.
    # Wrapped from outside: the builders where they are looked up, and
    # _PULLBACKS.  The crelus' backward took 12 and the log-softmax's 9
    # while crelu's pullback built its masks as consts and cabs's took
    # c + conj(c)
    theta, (task,) = _desk_tasks(rng, 1)
    scope: dict[int, str] = {}

    def labelled(build, label):
        def run(g, *args, **kwargs):
            start = len(g)
            out = build(g, *args, **kwargs)
            for nid in range(start, len(g)):
                scope.setdefault(nid, label)
            return out
        return run

    for name, label in _SCOPES.items():
        for module in (camel.layers, camel.meta):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, labelled(getattr(module, name), label))
    for kind, pull in list(camel.wirtinger._PULLBACKS.items()):
        def spy(g, nid, c, pull=pull):
            start = len(g)
            out = pull(g, nid, c)
            for i in range(start, len(g)):
                scope[i] = scope.get(nid, "outside")
            return out
        monkeypatch.setitem(camel.wirtinger._PULLBACKS, kind, spy)

    g = Tape()
    loss = task.support_loss(g, {k: g.leaf(v) for k, v in theta.items()})
    n = len(g)
    forward = Counter("leaf" if g.kind[nid] == "leaf" else scope.get(nid, "outside") for nid in range(n))
    assert forward == {"leaf": 14, "outside": 2, "conv": 4, "norm": 24, "act": 2, "cfc": 5, "mha": 5,
                       "log-softmax": 7, "cross-entropy": 4}
    backward(g, loss)
    swept = Counter(scope.get(nid, "sweep") for nid in range(n, len(g)))
    assert swept == {"cross-entropy": 3, "log-softmax": 7, "cfc": 8, "act": 2, "norm": 42, "mha": 42,
                     "conv": 3, "outside": 1, "sweep": 10}


def test_meta_gradient_memory_is_flat_in_inner_steps(rng):
    # only one inner step's tape is alive at a time, and the parameters
    # before each step are all that grows: one desk task peaks at 1.64 MiB
    # of traced allocations at 1 step and 1.93 at 5 (2.55 and 5.04 with
    # the whole trajectory on one tape)
    theta, (task,) = _desk_tasks(rng, 1)
    peaks = {steps: traced_peak(lambda: meta_gradient(theta, [task], ALPHA, steps)) for steps in (1, 5)}
    assert peaks[5] <= 1.2 * peaks[1]


def _reference_meta_gradient(theta, tasks, inner_lr, steps):
    """The unrolled meta-gradient on tapes that keep every value: the whole
    inner trajectory recorded on one tape, with the recorded backward as
    the final sweep."""
    acc = None
    for task in tasks:
        g = Tape()
        leaves = {k: g.leaf(v) for k, v in theta.items()}
        cur = dict(leaves)
        for _ in range(steps):
            cots = backward(g, task.support_loss(g, cur))
            cur = {k: nid if nid not in cots else g.sub(nid, g.smul(cots[nid], 2.0 * inner_lr))
                   for k, nid in cur.items()}
        q_loss = task.query_loss(g, cur)
        cots = backward(g, q_loss)
        grad = {k: complex_gradient(g, q_loss, nid, cots).numpy() for k, nid in leaves.items()}
        acc = grad if acc is None else {k: acc[k] + grad[k] for k in acc}
    return {k: v / len(tasks) for k, v in acc.items()}


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_step_reversed_meta_gradient_matches_the_unrolled_tape(rng, steps):
    theta, tasks = _desk_tasks(rng)
    got = meta_gradient(theta, tasks, ALPHA, steps)
    want = _reference_meta_gradient(theta, tasks, ALPHA, steps)
    scale = max(np.max(np.abs(v)) for v in want.values())
    for k in theta:
        assert np.max(np.abs(got[k].numpy() - want[k])) <= 1e-12 * scale, k


def _recorded_step_reversal(theta, tasks, inner_lr, steps):
    """The step-reversed meta-gradient on tapes that keep every value, with
    every sweep recorded: each Hessian product is the recorded gradient of
    Re sum(conj(g) * lam), with g the recorded support gradient."""

    def support(theta_k, task):
        g = Tape()
        leaves = {k: g.leaf(v) for k, v in theta_k.items()}
        loss = task.support_loss(g, leaves)
        return g, loss, leaves, backward(g, loss)

    acc = None
    for task in tasks:
        trajectory = [theta]
        for _ in range(steps):
            g, loss, leaves, first = support(trajectory[-1], task)
            grad = {k: complex_gradient(g, loss, nid, first) for k, nid in leaves.items()}
            trajectory.append(trajectory[-1].add_scaled(grad, -inner_lr))
        g = Tape()
        leaves = {k: g.leaf(v) for k, v in trajectory.pop().items()}
        q_loss = task.query_loss(g, leaves)
        cots = backward(g, q_loss)
        lam = ParamSet({k: complex_gradient(g, q_loss, nid, cots) for k, nid in leaves.items()})
        for theta_k in reversed(trajectory):
            g, _, leaves, first = support(theta_k, task)
            s = None
            for k, nid in leaves.items():
                term = g_sum(g, g.mulc(g.const(lam[k]), g.smul(first[nid], 2.0)))
                s = term if s is None else g.add(s, term)
            re_s = g.re(s)
            second = backward(g, re_s)
            lam = lam.add_scaled({k: complex_gradient(g, re_s, nid, second) for k, nid in leaves.items()},
                                 -inner_lr)
        acc = {k: v.numpy().copy() for k, v in lam.items()} if acc is None else \
            {k: acc[k] + lam[k].numpy() for k in acc}
    return {k: v / len(tasks) for k, v in acc.items()}


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_released_tape_gives_the_meta_gradient_of_a_full_tape_bit_for_bit(rng, steps):
    # releasing values, consuming tapes in graph-free sweeps and seeding each
    # Hessian product at the support gradient's nodes change no number
    theta, tasks = _desk_tasks(rng)
    got = meta_gradient(theta, tasks, ALPHA, steps)
    want = _recorded_step_reversal(theta, tasks, ALPHA, steps)
    for k in theta:
        assert got[k].numpy().tobytes() == want[k].tobytes(), k


def test_released_tape_peak_at_desk_scale(rng):
    # releasing the values no pullback reads, and dropping each value once the
    # final sweep has pulled its node back, took a 2-task 5-step desk
    # meta-gradient from 12.4 to 7.5 MB of traced allocations; holding real
    # nodes and their adjoints in float64 took it from 7.16 to 5.59 MiB,
    # multiplying the embedding into conv0's kernel on the tape to 5.23 MiB,
    # dropping the biases that feed a norm to 5.10 MiB, reversing the inner
    # trajectory one step at a time, not on one tape, to 3.00 MiB, and
    # storing conv0's kernel, not the embedding and a kernel, to 2.98 MiB;
    # attend's closed-form pullback and crelu's own took it to 2.59 MiB, and
    # running that pullback in chunks of a bounded working set, with each
    # score block dropped at its last use, to 2.14 MiB.  The bound is 10%
    # above that
    theta, tasks = _desk_tasks(rng)
    peak = traced_peak(lambda: meta_gradient(theta, tasks, ALPHA, 5))
    assert peak < 2.35 * 2**20


def test_swept_tape_is_freed_without_the_cycle_collector(rng):
    theta, (task,) = _desk_tasks(rng, 1)

    def sweep_and_read():
        g = Tape()
        leaves = {k: g.leaf(v) for k, v in theta.items()}
        loss = task.query_loss(g, leaves)  # 25 frames: a tape of over 1 MiB
        pairs = backward_graph(g, loss, seed=(0.5, 0.5))
        values = backward_values(g, loss)
        return g, [pairs[n][0] for n in leaves.values()], [values[n] for n in leaves.values()]

    sweep_and_read()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = sweep_and_read()
        held = tracemalloc.get_traced_memory()[0] - base
        del result
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held > 2**20
    assert left < 64 * 2**10


@pytest.mark.parametrize("arch, q_per_class", [(TOY_ARCH, 2), (WIDE_ARCH, 5)], ids=["toy", "wide"])
def test_evaluator_forward_equals_recorded_forward(rng, arch, q_per_class):
    theta = ParamSet(init_params(arch, rng))
    episode = toy_episode(rng, arch, n_way=arch.n_classes, q_per_class=q_per_class)
    task = EpisodeTask(episode, arch)
    x_in = frames_to_input([f for f, _ in episode.query], arch)
    g = Tape()
    want = g.raw(build_network(g, g.const(x_in), {k: g.leaf(v) for k, v in theta.items()}, arch))
    ev = evaluator()
    got = ev.raw(build_network(ev, ev.const(x_in), {k: ev.const(v) for k, v in theta.items()}, arch))
    assert got.tobytes() == want.tobytes()
    assert task.query_predictions(theta) == [int(i) for i in np.argmax(want.real, axis=1)]
    g = Tape()
    loss = g.raw(task.support_loss(g, {k: g.leaf(v) for k, v in theta.items()}))
    ev = evaluator()
    assert ev.raw(task.support_loss(ev, {k: ev.const(v) for k, v in theta.items()})) == loss


WIDE_SCORE_BLOCK = 100 * 63 * 63 * 16
"""Bytes of one complex (100, 63, 63) attention score block: 4 heads of a
25-frame wide query set, 63 steps each."""


def test_query_predictions_memory_at_wide_scale(rng):
    # a query forward recorded on a tape keeps the values of all its nodes,
    # 81 MB of traced allocations; the evaluator frees each once it is read
    # and peaked at 14.6 MB with every head's scores in one batch, and at
    # 5.5 MB with the scores one attention chunk at a time: less than one
    # whole score block.  conv0 reads the input block with its (C, C_in, K)
    # kernel, so no full-rate (N, T, C) features or (N*T_out, C*K) patches
    # are built, and the peak was 3.21 MiB.  Dropping the conv block's
    # output once attn_in has read it and the norm's centred copy after
    # the division takes it to 2.44 MiB (3.10 MiB with the centred copy's
    # drop alone, 3.21 with the conv output's); the second bound is 10%
    # above that
    theta = ParamSet(init_params(WIDE_ARCH, rng))
    task = EpisodeTask(toy_episode(rng, WIDE_ARCH, n_way=5, k_shot=1, q_per_class=5), WIDE_ARCH)
    peak = traced_peak(lambda: task.query_predictions(theta))
    assert peak < WIDE_SCORE_BLOCK
    assert peak < 2.68 * 2**20


def test_evaluate_memory_at_wide_scale(rng):
    # fine-tuning sweeps and the query forward hold one attention chunk at a
    # time: a 2-episode wide evaluate peaked at 4.47 MiB of traced
    # allocations (6.7 MiB while an embedding fed conv0 full-rate (N, T, C)
    # features, 15.8 MB with whole score blocks on the tape and the
    # evaluator).  Forming fc0.W's 1 MiB adjoint at the end of each
    # fine-tuning sweep, and the query forward's drops, take it to 3.55
    # MiB; the bound is 10% above that
    theta = ParamSet(init_params(WIDE_ARCH, rng))
    episodes = [toy_episode(rng, WIDE_ARCH, n_way=5, k_shot=1, q_per_class=5) for _ in range(2)]
    cfg = MetaConfig(inner_lr=0.1, finetune_steps=10, n_way=5, k_shot=1, q_size=5)
    peak = traced_peak(lambda: evaluate(theta, episodes, cfg, WIDE_ARCH))
    assert peak < 3.9 * 2**20


def test_query_predictions_refuse_nonfinite_logprobs(rng):
    theta = ParamSet({k: CTensor(v.numpy() * 1e150) for k, v in init_params(TOY_ARCH, rng).items()})
    task = EpisodeTask(toy_episode(rng, TOY_ARCH), TOY_ARCH)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="not finite"):
        task.query_predictions(theta)


def test_meta_gradient_conjugation_symmetry():
    # conjugating parameters and task centers conjugates the gradient
    theta = theta_scalar()
    grad = meta_gradient(theta, quad_tasks(), ALPHA, 1)["t"].item()
    theta_c = ParamSet({k: CTensor(np.conj(v.numpy())) for k, v in theta.items()})
    tasks_c = quad_tasks([np.conj(c) for c in CENTERS])
    grad_c = meta_gradient(theta_c, tasks_c, ALPHA, 1)["t"].item()
    assert abs(np.conj(grad) - grad_c) <= 1e-12


# ---------------------------------------------------------------------------
# outer loop pieces
# ---------------------------------------------------------------------------

def test_outer_update_contracts(rng):
    theta = ParamSet({"a": CTensor(rand_complex(rng, 3))})
    zero = ParamSet({"a": CTensor(np.zeros(3, dtype=complex))})
    assert np.array_equal(outer_update(theta, zero, 0.5)["a"].numpy(), theta["a"].numpy())
    assert np.max(np.abs(outer_update(theta, theta, 1.0)["a"].numpy())) == 0.0
    g1 = ParamSet({"a": CTensor(rand_complex(rng, 3))})
    g2 = ParamSet({"a": CTensor(rand_complex(rng, 3))})
    seq = outer_update(outer_update(theta, g1, 0.3), g2, 0.3)
    combined = outer_update(theta, g1.add_scaled(g2, 1.0), 0.3)
    assert np.max(np.abs(seq["a"].numpy() - combined["a"].numpy())) <= 1e-14


def test_meta_config_validation():
    with pytest.raises(ValueError):
        MetaConfig(outer_lr=0.0)
    with pytest.raises(ValueError):
        MetaConfig(meta_batch=0)
    with pytest.raises(ValueError, match="plateau_patience"):
        MetaConfig(plateau_patience=0)
    with pytest.raises(ValueError):
        MetaConfig(outer_optimizer="lbfgs")


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_zero_iterations_returns_initial():
    theta = theta_scalar()
    cfg = MetaConfig(iterations=0, inner_steps=1)
    state = train_meta(theta, lambda: quad_tasks(), cfg)
    assert state.iteration == 0 and state.history == []
    assert state.theta["t"].item() == THETA0


def test_train_quadratic_converges_to_center_mean():
    cfg = MetaConfig(inner_lr=ALPHA, outer_lr=0.5, inner_steps=1, iterations=1000,
                     early_stop=True, plateau_patience=50, plateau_tol=1e-12)
    state = train_meta(theta_scalar(), lambda: quad_tasks(), cfg)
    theta_star = np.mean(CENTERS)
    assert abs(state.theta["t"].item() - theta_star) <= 1e-6
    losses = [r.meta_loss for r in state.history[:20]]
    assert all(b < a + 1e-15 for a, b in zip(losses, losses[1:]))


_EARLY_STOP = dict(inner_lr=ALPHA, outer_lr=0.05, inner_steps=1, iterations=200, early_stop=True,
                   plateau_patience=5, plateau_tol=0.05)


def test_train_resume_with_early_stop_matches_the_unbroken_run():
    # the plateau window is rebuilt from the history, so a run split at any
    # iteration stops where the unbroken run stops, with the same values
    full = train_meta(theta_scalar(), quad_tasks, MetaConfig(**_EARLY_STOP))
    assert 5 < full.iteration < 200
    for split in (1, 3, 5, full.iteration - 1, full.iteration, full.iteration + 7):
        half = train_meta(theta_scalar(), quad_tasks, MetaConfig(**{**_EARLY_STOP, "iterations": split}))
        assert half.iteration == min(split, full.iteration)
        rest = train_meta(theta_scalar(), quad_tasks, MetaConfig(**_EARLY_STOP), state=half)
        assert rest.iteration == full.iteration, split
        assert repr(rest.history) == repr(full.history)
        assert rest.theta["t"].numpy().tobytes() == full.theta["t"].numpy().tobytes()


def test_train_resumed_from_a_stopped_state_trains_no_further():
    full = train_meta(theta_scalar(), quad_tasks, MetaConfig(**_EARLY_STOP))

    def no_batches():
        raise AssertionError("a stopped run drew another batch")

    rest = train_meta(theta_scalar(), no_batches, MetaConfig(**_EARLY_STOP), state=full)
    assert rest.iteration == full.iteration


def test_train_divergence_aborts_with_last_good():
    cfg = MetaConfig(inner_lr=ALPHA, outer_lr=1e6, inner_steps=1, iterations=200,
                     early_stop=False)
    with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError) as info:
        train_meta(theta_scalar(), lambda: quad_tasks(), cfg)
    state = info.value.state
    assert np.all(np.isfinite(state.theta["t"].numpy().real))


@pytest.mark.parametrize("first_order", [False, True], ids=["exact", "first_order"])
def test_training_accuracy_reads_the_recorded_query_forward(rng, monkeypatch, first_order):
    # each task runs inner_steps support forwards and one query forward, and
    # the exact route records the support forward again at every step but
    # the last on its way back; query_acc is the accuracy of the adapted
    # parameters on the query set
    arch = TOY_ARCH
    tasks = [EpisodeTask(toy_episode(rng, arch, q_per_class=4), arch) for _ in range(3)]
    theta = ParamSet(init_params(arch, rng))
    cfg = MetaConfig(inner_lr=0.5, outer_lr=0.01, meta_batch=3, inner_steps=2, iterations=2,
                     first_order=first_order, early_stop=False)
    hit_rates = []
    for t in tasks:
        preds = t.query_predictions(inner_update(theta, t, cfg.inner_lr, 2))
        labels = [y for _, y in t.episode.query]
        hit_rates.append(sum(p == y for p, y in zip(preds, labels)) / len(labels))
    want = float(np.mean(hit_rates))
    calls = []
    real_build = camel.meta.build_network
    monkeypatch.setattr(camel.meta, "build_network", lambda *a, **k: calls.append(1) or real_build(*a, **k))
    state = train_meta(theta, lambda: tasks, cfg)
    forwards = cfg.inner_steps + 1 if first_order else 2 * cfg.inner_steps
    assert len(calls) == cfg.iterations * cfg.meta_batch * forwards
    assert state.history[0].query_acc == want
    assert 0.0 < want < 1.0


def test_train_camel_seeded_runs_identical(rng):
    arch = TOY_ARCH

    def source(seed):
        ep_rng = np.random.default_rng(seed)
        while True:
            yield toy_episode(ep_rng, arch)

    cfg = MetaConfig(inner_lr=ALPHA, outer_lr=0.01, meta_batch=2, inner_steps=1,
                     iterations=5, early_stop=False, seed=9)
    s1 = train_camel(cfg, arch, source(42))
    s2 = train_camel(cfg, arch, source(42))
    assert [r.meta_loss for r in s1.history] == [r.meta_loss for r in s2.history]
    assert list(s1.theta) == list(s2.theta)
    assert all(np.array_equal(s1.theta[k].numpy(), s2.theta[k].numpy()) for k in s1.theta)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_oracle_predictor(rng):
    # frames encode their own label in the first sample
    def make_ep():
        sup, qry = [], []
        for c in range(3):
            arr = rand_complex(rng, 8)
            arr[0] = c
            sup.append((CTensor(arr), c))
            arr2 = rand_complex(rng, 8)
            arr2[0] = c
            qry.append((CTensor(arr2), c))
        return Episode(tuple(sup), tuple(qry), n_way=3, k_shot=1)

    eps = [make_ep() for _ in range(4)]
    cfg = MetaConfig(n_way=3, finetune_steps=0)

    def oracle(theta, ep):
        return [int(round(f.numpy()[0].real)) for f, _ in ep.query]

    rep = evaluate(theta_scalar(), eps, cfg, predict_fn=oracle)
    assert rep.accuracy == 1.0
    assert np.allclose(rep.confusion, 100.0 * np.eye(3))
    assert rep.ci95 == 0.0


def test_evaluate_random_predictor_near_chance(rng):
    def make_ep():
        sup = tuple((CTensor(rand_complex(rng, 4)), c) for c in range(4))
        qry = tuple((CTensor(rand_complex(rng, 4)), c) for c in range(4) for _ in range(3))
        return Episode(sup, qry, n_way=4, k_shot=1)

    eps = [make_ep() for _ in range(250)]
    cfg = MetaConfig(n_way=4, finetune_steps=0)
    pred_rng = np.random.default_rng(0)

    def rand_pred(theta, ep):
        return [int(x) for x in pred_rng.integers(0, 4, size=len(ep.query))]

    rep = evaluate(theta_scalar(), eps, cfg, predict_fn=rand_pred)
    n_samples = 250 * 12
    sigma = math.sqrt(0.25 * 0.75 / n_samples)
    assert abs(rep.accuracy - 0.25) <= 5 * sigma
    assert np.max(np.abs(rep.confusion.sum(axis=1) - 100.0)) <= 1e-9


def test_evaluate_confusion_rows_percent(rng):
    arch = TOY_ARCH
    theta = ParamSet(init_params(arch, rng))
    eps = [toy_episode(rng, arch) for _ in range(3)]
    cfg = MetaConfig(n_way=2, finetune_steps=1, inner_lr=0.05)
    rep = evaluate(theta, eps, cfg, arch)
    assert np.max(np.abs(rep.confusion.sum(axis=1) - 100.0)) <= 1e-9


THREE_CLASS_ARCH = ArchConfig(n_classes=3, frame_len=16, conv_channels=2, conv_stride=2,
                              attn_dim=2, n_heads=1, fc_hidden=4)


@pytest.mark.parametrize("n_way", [2, 4])
@pytest.mark.parametrize("finetune_steps", [0, 1])
def test_evaluate_refuses_episodes_whose_way_count_is_not_the_class_count(rng, n_way, finetune_steps):
    # a 3-class head on 4-way episodes can never predict class 3, and on
    # 2-way episodes it predicts classes the confusion matrix has no column for
    theta = ParamSet(init_params(THREE_CLASS_ARCH, rng))
    eps = [toy_episode(rng, THREE_CLASS_ARCH, n_way=n_way) for _ in range(2)]
    cfg = MetaConfig(n_way=n_way, finetune_steps=finetune_steps, inner_lr=0.05)
    with pytest.raises(ValueError, match=rf"n_classes=3 .* n_way={n_way}"):
        evaluate(theta, eps, cfg, THREE_CLASS_ARCH)


@pytest.mark.parametrize("use_arch", [False, True], ids=["predict_fn", "arch"])
def test_evaluate_refuses_episodes_of_mixed_way_counts(rng, use_arch):
    # the first episode sizes the confusion matrix
    eps = [toy_episode(rng, THREE_CLASS_ARCH, n_way=3), toy_episode(rng, THREE_CLASS_ARCH, n_way=2)]
    cfg = MetaConfig(n_way=3, finetune_steps=0)
    theta = ParamSet(init_params(THREE_CLASS_ARCH, rng))
    kw = {"arch": THREE_CLASS_ARCH} if use_arch else {"predict_fn": lambda th, ep: [0] * len(ep.query)}
    with pytest.raises(ValueError, match="episode 1 has n_way=2 but episode 0 has n_way=3"):
        evaluate(theta, eps, cfg, **kw)


@pytest.mark.parametrize("n_way", [2, 4])
def test_train_camel_refuses_episodes_whose_way_count_is_not_the_class_count(rng, n_way):
    def source():
        while True:
            yield toy_episode(rng, THREE_CLASS_ARCH, n_way=n_way)

    cfg = MetaConfig(n_way=n_way, inner_lr=ALPHA, meta_batch=2, inner_steps=1, iterations=2)
    with pytest.raises(ValueError, match=rf"n_classes=3 .* n_way={n_way}"):
        train_camel(cfg, THREE_CLASS_ARCH, source())


def test_first_order_and_exact_training_trajectories_differ():
    # fixed-step descent on the quadratic family takes different paths
    cfg_kw = dict(inner_lr=ALPHA, outer_lr=0.3, inner_steps=1, iterations=15,
                  early_stop=False)
    exact = train_meta(theta_scalar(), lambda: quad_tasks(),
                       MetaConfig(first_order=False, **cfg_kw))
    fo = train_meta(theta_scalar(), lambda: quad_tasks(),
                    MetaConfig(first_order=True, **cfg_kw))
    # dropping the curvature factor changes the whole descent path
    assert abs(exact.history[1].meta_loss - fo.history[1].meta_loss) > 1e-3
    assert exact.history[-1].meta_loss != fo.history[-1].meta_loss


def test_evaluate_random_network_near_chance(rng):
    from camel.signals import generate_pool, sample_episode

    arch = ArchConfig(n_classes=5, frame_len=32, conv_channels=2, conv_stride=4,
                      attn_dim=2, n_heads=1, fc_hidden=4)
    theta = ParamSet(init_params(arch, rng))
    pool = generate_pool(["BPSK", "QPSK", "8PSK", "PAM4", "QAM16", "CPFSK", "GFSK"],
                         [10.0], 8, 32, 4, rng)
    eps = [sample_episode(pool, 5, 1, 2, rng) for _ in range(200)]
    cfg = MetaConfig(n_way=5, k_shot=1, q_size=2, finetune_steps=0, inner_lr=0.0)
    rep = evaluate(theta, eps, cfg, arch)
    assert 0.16 <= rep.accuracy <= 0.24, f"untrained accuracy {rep.accuracy:.3f} far from chance"


def test_inner_update_nonfinite_loss_aborts():
    far = ParamSet({"t": CTensor.scalar(1e200 + 0j)})
    with pytest.warns(RuntimeWarning), pytest.raises(FloatingPointError, match="not finite"):
        inner_update(far, quad_tasks()[0], ALPHA, 1)


@pytest.mark.parametrize("first_order", [False, True], ids=["exact", "first_order"])
def test_support_loss_nonfinite_after_the_first_inner_step_aborts(first_order):
    # an inner lr of 1e200 keeps step 0's support loss and step 1's
    # parameters finite, and overflows step 1's support loss
    lr = 1e200
    grad = first_order_meta_gradient if first_order else meta_gradient
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="not finite"):
        grad(theta_scalar(), quad_tasks(), lr, 3)
    cfg = MetaConfig(inner_lr=lr, outer_lr=0.01, inner_steps=3, iterations=5,
                     first_order=first_order, early_stop=False)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="not finite") as info:
        train_meta(theta_scalar(), quad_tasks, cfg)
    state = info.value.state
    assert state.iteration == 0 and not state.history
    assert state.theta["t"].item() == THETA0
