import gc
import math
import tracemalloc

import numpy as np
import pytest

from camel.ctensor import CTensor
from camel.layers import ArchConfig, build_network, frames_to_input, init_params
from camel.meta import (
    AdaptiveBetaConfig,
    DivergenceError,
    Episode,
    EpisodeTask,
    MetaConfig,
    ParamSet,
    QuadraticTask,
    adaptive_beta,
    evaluate,
    first_order_meta_gradient,
    inner_update,
    meta_gradient,
    meta_objective,
    outer_update,
    train_camel,
    train_meta,
)
import camel.meta
import camel.wirtinger
from camel.wirtinger import (
    Tape,
    backward,
    backward_graph,
    backward_values,
    complex_gradient,
    evaluator,
    hvp,
)

from conftest import assert_same_adjoints, rand_complex

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


# ---------------------------------------------------------------------------
# ParamSet and Episode
# ---------------------------------------------------------------------------

def test_paramset_order_and_ops(rng):
    ps = ParamSet({"a": CTensor(rand_complex(rng, 2)), "b": CTensor(rand_complex(rng, 3))})
    assert list(ps) == ["a", "b"]
    assert ps.flat().size == 5
    doubled = ps.add_scaled(ps, 1.0)
    assert np.allclose(doubled["a"].numpy(), 2 * ps["a"].numpy())
    assert abs(ps.norm() - np.linalg.norm(ps.flat())) <= 1e-12
    assert np.allclose(ps.conj()["b"].numpy(), np.conj(ps["b"].numpy()))


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


def test_backward_values_match_backward_graph_on_network(rng):
    theta = ParamSet(init_params(TOY_ARCH, rng))
    task = EpisodeTask(toy_episode(rng, TOY_ARCH), TOY_ARCH)
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
    # with a graph-free final sweep one 5-step desk task peaks near 12 MB of
    # traced allocations; a final sweep that records its arithmetic needed 133 MB
    theta = ParamSet(init_params(DESK_ARCH, rng))
    task = EpisodeTask(toy_episode(rng, DESK_ARCH, n_way=5, k_shot=1, q_per_class=5), DESK_ARCH)
    tracemalloc.start()
    try:
        meta_gradient(theta, [task], ALPHA, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20


def _desk_tasks(rng, n=2):
    theta = ParamSet(init_params(DESK_ARCH, rng))
    return theta, [EpisodeTask(toy_episode(rng, DESK_ARCH, n_way=5, k_shot=1, q_per_class=5), DESK_ARCH)
                   for _ in range(n)]


def test_single_channel_sweeps_at_desk_scale(rng, monkeypatch):
    # one adjoint per node, conjugate-aware products, broadcasting ops and
    # one attend node: a desk support forward takes 92 nodes and its
    # recorded backward 143, 8 of which rematerialise the attention chain
    # (146 with real nodes in complex storage, 99 and 138 with the chain on
    # the forward tape, 143 and 262 with conj/transpose nodes and index-map
    # gathers).  The counts are pinned exactly, so a sweep that records one
    # node more fails here without any timing.  One task's unrolled tape
    # holds 345 nodes at its final sweep after 1 inner step, 1357 after 5.
    # test_released_tape_peak_at_desk_scale bounds the traced peak tighter
    theta, (task,) = _desk_tasks(rng, 1)
    g = Tape()
    loss = task.support_loss(g, {k: g.leaf(v) for k, v in theta.items()})
    n = len(g)
    assert n == 92
    backward(g, loss)
    assert len(g) - n == 143
    lengths = []

    def final_sweep(g, loss_id):
        lengths.append(len(g))
        return backward_values(g, loss_id)

    monkeypatch.setattr(camel.meta, "backward_values", final_sweep)
    meta_gradient(theta, [task], ALPHA, 1)
    tracemalloc.start()
    try:
        meta_gradient(theta, [task], ALPHA, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lengths == [345, 1357]
    assert peak < 14.1 * 2**20


def _reference_meta_gradient(theta, tasks, inner_lr, steps):
    """The unrolled meta-gradient on tapes that keep every value, with the
    recorded backward as the final sweep."""
    acc = None
    for task in tasks:
        g = Tape()
        leaves = {k: g.leaf(v) for k, v in theta.items()}
        cur = dict(leaves)
        for _ in range(steps):
            cots = backward(g, task.support_loss(g, cur), stop=set(cur.values()))
            cur = {k: nid if nid not in cots else g.sub(nid, g.smul(cots[nid], 2.0 * inner_lr))
                   for k, nid in cur.items()}
        q_loss = task.query_loss(g, cur)
        cots = backward(g, q_loss)
        grad = {k: complex_gradient(g, q_loss, nid, cots).numpy() for k, nid in leaves.items()}
        acc = grad if acc is None else {k: acc[k] + grad[k] for k in acc}
    return {k: v / len(tasks) for k, v in acc.items()}


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_released_tape_gives_the_meta_gradient_of_a_full_tape_bit_for_bit(rng, steps):
    theta, tasks = _desk_tasks(rng)
    got = meta_gradient(theta, tasks, ALPHA, steps)
    want = _reference_meta_gradient(theta, tasks, ALPHA, steps)
    for k in theta:
        assert got[k].numpy().tobytes() == want[k].tobytes(), k


def test_released_tape_peak_at_desk_scale(rng):
    # releasing the values no pullback reads, and dropping each value once the
    # final sweep has pulled its node back, took a 2-task 5-step desk
    # meta-gradient from 12.4 to 7.5 MB of traced allocations; holding real
    # nodes and their adjoints in float64 took it from 7.16 to 5.59 MiB
    theta, tasks = _desk_tasks(rng)
    tracemalloc.start()
    try:
        meta_gradient(theta, tasks, ALPHA, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.2 * 2**20


def test_swept_tape_is_freed_without_the_cycle_collector(rng):
    theta, (task,) = _desk_tasks(rng, 1)

    def sweep_and_read():
        g = Tape()
        leaves = {k: g.leaf(v) for k, v in theta.items()}
        loss = task.support_loss(g, leaves)
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


WIDE_ARCH = ArchConfig(n_classes=5, frame_len=128, conv_channels=32, conv_stride=2,
                       attn_dim=16, n_heads=4, fc_hidden=64)


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
    # whole score block
    theta = ParamSet(init_params(WIDE_ARCH, rng))
    task = EpisodeTask(toy_episode(rng, WIDE_ARCH, n_way=5, k_shot=1, q_per_class=5), WIDE_ARCH)
    tracemalloc.start()
    try:
        task.query_predictions(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < WIDE_SCORE_BLOCK


def test_evaluate_memory_at_wide_scale(rng):
    # fine-tuning sweeps and the query forward hold one attention chunk at a
    # time: a 2-episode wide evaluate peaked at 6.7 MB of traced allocations,
    # and at 15.8 MB with whole score blocks on the tape and the evaluator
    theta = ParamSet(init_params(WIDE_ARCH, rng))
    episodes = [toy_episode(rng, WIDE_ARCH, n_way=5, k_shot=1, q_per_class=5) for _ in range(2)]
    cfg = MetaConfig(inner_lr=0.1, finetune_steps=10, n_way=5, k_shot=1, q_size=5)
    tracemalloc.start()
    try:
        evaluate(theta, episodes, cfg, WIDE_ARCH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_query_predictions_refuse_nonfinite_logprobs(rng):
    theta = ParamSet(init_params(TOY_ARCH, rng)).scale(1e150)
    task = EpisodeTask(toy_episode(rng, TOY_ARCH), TOY_ARCH)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="not finite"):
        task.query_predictions(theta)


def test_meta_gradient_conjugation_symmetry():
    # conjugating parameters and task centers conjugates the gradient
    theta = theta_scalar()
    grad = meta_gradient(theta, quad_tasks(), ALPHA, 1)["t"].item()
    theta_c = theta.conj()
    tasks_c = quad_tasks([np.conj(c) for c in CENTERS])
    grad_c = meta_gradient(theta_c, tasks_c, ALPHA, 1)["t"].item()
    assert abs(np.conj(grad) - grad_c) <= 1e-12


# ---------------------------------------------------------------------------
# outer loop pieces
# ---------------------------------------------------------------------------

def test_outer_update_contracts(rng):
    theta = ParamSet({"a": CTensor(rand_complex(rng, 3))})
    zero = theta.zeros_like()
    assert np.array_equal(outer_update(theta, zero, 0.5)["a"].numpy(), theta["a"].numpy())
    assert np.max(np.abs(outer_update(theta, theta, 1.0)["a"].numpy())) == 0.0
    g1 = ParamSet({"a": CTensor(rand_complex(rng, 3))})
    g2 = ParamSet({"a": CTensor(rand_complex(rng, 3))})
    seq = outer_update(outer_update(theta, g1, 0.3), g2, 0.3)
    combined = outer_update(theta, g1.add_scaled(g2, 1.0), 0.3)
    assert np.max(np.abs(seq["a"].numpy() - combined["a"].numpy())) <= 1e-14


def test_adaptive_beta_formula_collapse():
    cfg = AdaptiveBetaConfig(grad_lipschitz=2.0, hess_lipschitz=0.0)
    beta = adaptive_beta(theta_scalar(), quad_tasks(), ALPHA, cfg)
    assert abs(beta - 1.0 / (48.0 * 2.0)) <= 1e-15


def test_adaptive_beta_zero_gradients():
    cfg = AdaptiveBetaConfig(grad_lipschitz=1.5, hess_lipschitz=3.0)
    tasks = [QuadraticTask({"t": CTensor.scalar(THETA0)})]  # center at theta: grad 0
    beta = adaptive_beta(theta_scalar(), tasks, ALPHA, cfg)
    assert abs(beta - 1.0 / (48.0 * 1.5)) <= 1e-15


def test_adaptive_beta_worked_value():
    # gradient norm 2: center at distance 1 from theta
    tasks = [QuadraticTask({"t": CTensor.scalar(THETA0 - 1.0)})]
    cfg = AdaptiveBetaConfig(grad_lipschitz=1.0, hess_lipschitz=1.0)
    beta = adaptive_beta(theta_scalar(), tasks, 0.1, cfg)
    want = (1.0 / (4.0 + 2.0 * 1.0 * 0.1 * 2.0)) / 12.0
    assert abs(beta - want) <= 1e-12
    assert abs(want - 0.2273 / 12.0) <= 1e-4


def test_meta_config_validation():
    with pytest.raises(ValueError):
        MetaConfig(outer_lr=0.0)
    with pytest.raises(ValueError):
        MetaConfig(meta_batch=0)
    with pytest.raises(ValueError, match="plateau_patience"):
        MetaConfig(plateau_patience=0)
    with pytest.raises(ValueError):
        MetaConfig(outer_optimizer="lbfgs")
    with pytest.raises(ValueError):
        MetaConfig(inner_lr=0.5, adaptive_beta=AdaptiveBetaConfig(grad_lipschitz=1.0,
                                                                  hess_lipschitz=0.0))


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
    with pytest.raises(DivergenceError) as info:
        train_meta(theta_scalar(), lambda: quad_tasks(), cfg)
    state = info.value.state
    assert np.all(np.isfinite(state.theta["t"].numpy().real))


@pytest.mark.parametrize("first_order", [False, True], ids=["exact", "first_order"])
def test_training_accuracy_reads_the_recorded_query_forward(rng, monkeypatch, first_order):
    # each task runs inner_steps support forwards and one query forward, and
    # query_acc is the accuracy of the adapted parameters on the query set
    arch = TOY_ARCH
    tasks = [EpisodeTask(toy_episode(rng, arch, q_per_class=4), arch) for _ in range(3)]
    theta = ParamSet(init_params(arch, rng))
    cfg = MetaConfig(inner_lr=0.5, outer_lr=0.01, meta_batch=3, inner_steps=2, iterations=2,
                     first_order=first_order, early_stop=False)
    want = float(np.mean([t.query_accuracy(inner_update(theta, t, cfg.inner_lr, 2)) for t in tasks]))
    calls = []
    real_build = camel.meta.build_network
    monkeypatch.setattr(camel.meta, "build_network", lambda *a, **k: calls.append(1) or real_build(*a, **k))
    state = train_meta(theta, lambda: tasks, cfg)
    assert len(calls) == cfg.iterations * cfg.meta_batch * (cfg.inner_steps + 1)
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
    assert s1.theta.max_abs_diff(s2.theta) == 0.0


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
    with pytest.raises(FloatingPointError, match="not finite"):
        inner_update(far, quad_tasks()[0], ALPHA, 1)
