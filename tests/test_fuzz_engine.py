"""Differential fuzz of the engine's fused and non-holomorphic ops.

``attend`` is checked against :func:`g_attention` recorded on a tape for
every lift, chunk size and head count, over drawn shapes, with complex
leaves, real parts of leaves and one operand passed three times.  The
forward must match bit for bit,
the recorded and graph-free adjoints the chain's within 1e-12 of the
largest entry, and so must the Hessian products, by ``hvp_sweep`` and by a
second recorded sweep, which run attend_adjoint's pullback; ``hvp_sweep``
must also match central differences of the graph-free gradient.  A planted
fault, that pullback reading the next sequence's keys, must make it fail.

``crelu`` and the three lifts (``re``, ``im``, ``cabs``), the maps that
need the second Wirtinger term, are checked over drawn shapes on real and
complex operands, with crelu gated by its operand, by another leaf or by
the real part of one.  The recorded and graph-free sweeps must agree
within 1e-12, the gradient must match central differences within
``REL_TOL`` and ``hvp_sweep`` central differences of the gradient.  Two
planted faults, crelu gated by its adjoint and -i for im, must make that
fuzz fail.

``norm`` is checked over drawn shapes, eps and real or complex operands,
with a column whose variance is far below eps in half the draws.  The
evaluator's forward must equal the tape's bit for bit, the recorded and
graph-free sweeps must agree within 1e-12, the gradient must match central
differences, and ``hvp_sweep`` a second recorded sweep (which rebuilds s
from the input) within 1e-12 and central differences of the gradient.  A
planted fault, the adjoint without its mean(c) term, must make it fail.

The runs are derandomized and bounded, as in ``test_fuzz``.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import camel.wirtinger
from camel.ctensor import CTensor
from camel.gradcheck import ABS_FLOOR, FD_STEP, REL_TOL, _off_axes, fd_complex_gradient, rel_error
from camel.wirtinger import (
    _PULLBACKS,
    _pull_attend_adjoint,
    LIFTS,
    Tape,
    backward,
    backward_values,
    evaluator,
    g_attention,
    g_sum,
    hvp_sweep,
)

from conftest import rand_complex

FUZZ = settings(derandomize=True, deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _attention_loss(attend, inputs, w, real, shared, n, heads, lift):
    """A tape, its leaves by name and Re sum(out * conj(w)) for
    out = attend(q, k, v) over n sequences of ``heads`` heads: each operand
    a leaf or, where ``real`` says so, its real part; with ``shared`` k and
    v are q itself."""
    g = Tape()
    leaves = {name: g.leaf(x) for name, x in inputs.items()}
    ops = {name: g.re(leaf) if r else leaf for (name, leaf), r in zip(leaves.items(), real)}
    q = ops["q"]
    out = attend(g, q, *((q, q) if shared else (ops["k"], ops["v"])), n, heads, lift)
    return g, leaves, out, g.re(g_sum(g, g.mulc(out, g.const(w))))


_ATTEND_CASES = [(lift, chunk, heads) for lift in LIFTS for chunk in ("one sequence", "two sequences", "default")
                 for heads in (1, 2)]
"""(lift, chunk size, heads) of every case."""


@pytest.mark.parametrize("lift, chunk, heads", _ATTEND_CASES,
                         ids=[f"{lift}-{chunk}-heads={heads}" for lift, chunk, heads in _ATTEND_CASES])
@settings(FUZZ, max_examples=3)
@given(dims=st.tuples(*[st.integers(1, 4)] * 5), real=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       shared=st.booleans(), seed=st.integers(0, 2**16))
def test_fuzz_attend_against_the_primitive_chain(monkeypatch, lift, chunk, heads, dims, real, shared, seed):
    # dims: sequences, their query and key lengths, and each head's query
    # and value widths
    n, lq, lk, dh, dvh = dims
    d, dv = heads * dh, heads * dvh
    if shared:
        lk, dv = lq, d
    shapes = {"q": (n * lq, d), "k": (n * lk, d), "v": (n * lk, dv)}
    per_sequence = camel.wirtinger._attend_sequence_bytes(n, heads, shapes["q"], shapes["v"])
    budget = {"one sequence": 1, "two sequences": 2 * per_sequence,
              "default": camel.wirtinger.ATTEND_CHUNK_BYTES}[chunk]
    monkeypatch.setattr(camel.wirtinger, "ATTEND_CHUNK_BYTES", budget)
    rng = np.random.default_rng(seed)
    inputs = {name: rand_complex(rng, *shape) for name, shape in shapes.items() if not (shared and name != "q")}
    w = rand_complex(rng, n * lq, dv)
    u = {name: CTensor(rand_complex(rng, *x.shape)) for name, x in inputs.items()}

    def tape(attend=Tape.attend, at=inputs):
        return _attention_loss(attend, at, w, real, shared, n, heads, lift)

    gc, chain_leaves, chain_out, chain_loss = tape(g_attention)
    g, leaves, out, loss = tape()
    assert g.kind[out] == "attend"
    assert g.raw(out).tobytes() == gc.raw(chain_out).tobytes()

    want = backward_values(gc, chain_loss)
    recorded = backward(g, loss)
    gv, leaves_v, _, loss_v = tape()
    graph_free = backward_values(gv, loss_v)
    for name, leaf in chain_leaves.items():
        ref = want[leaf]
        tol = 1e-12 * max(float(np.max(np.abs(ref))), 1e-300)
        for got in (g.raw(recorded[leaves[name]]), graph_free[leaves_v[name]]):
            assert float(np.max(np.abs(got - ref))) <= tol, name

    def gradient(at):
        gg, lv, _, lo = tape(at=at)
        grads = backward_values(gg, lo)
        return {name: 2.0 * grads[leaf] for name, leaf in lv.items()}

    def product_of_recorded_sweeps(gg, lv, first):
        # Re sum(conj(u) * 2 dL/dz*) at the leaves, differentiated by a
        # second recorded sweep
        phi = gg.re(reduce(gg.add, (g_sum(gg, gg.mulc(gg.smul(first[leaf], 2.0), gg.const(u[name].numpy())))
                                    for name, leaf in lv.items())))
        second = backward(gg, phi)
        return {name: 2.0 * gg.raw(second[leaf]) for name, leaf in lv.items()}

    gc, chain_leaves, _, chain_loss = tape(g_attention)
    want = hvp_sweep(gc, chain_leaves, backward(gc, chain_loss), u)
    g2, leaves2, _, loss2 = tape()
    twice = product_of_recorded_sweeps(g2, leaves2, backward(g2, loss2))
    hv = hvp_sweep(g, leaves, recorded, u)
    for name in inputs:
        ref = want[name].numpy()
        tol = 1e-12 * max(float(np.max(np.abs(ref))), 1e-300)
        for got in (hv[name].numpy(), twice[name]):
            assert float(np.max(np.abs(got - ref))) <= tol, name
    plus = gradient({name: x + FD_STEP * u[name].numpy() for name, x in inputs.items()})
    minus = gradient({name: x - FD_STEP * u[name].numpy() for name, x in inputs.items()})
    for name in inputs:
        fd = (plus[name] - minus[name]) / (2.0 * FD_STEP)
        assert rel_error(hv[name].numpy(), fd, REL_TOL, ABS_FLOOR) <= REL_TOL, name


def _keys_of_the_next_sequence(g, nid, c, take):
    # attend_adjoint's pullback reading each sequence's keys from the
    # sequence after it
    k = g.inputs[nid][1]
    keys, n = g.val[k], g.aux[nid][1]
    g.val[k] = np.roll(keys, -(keys.shape[0] // n), axis=0)
    try:
        return _pull_attend_adjoint(g, nid, c, take)
    finally:
        g.val[k] = keys


def test_fuzz_attend_fails_on_a_planted_second_order_fault(monkeypatch):
    # the fuzz's own draws and checks, stopped at the first failing example;
    # the forward and the first sweep are untouched, so only the Hessian
    # products see the fault
    check = test_fuzz_attend_against_the_primitive_chain.hypothesis.inner_test
    fuzz = settings(FUZZ, max_examples=10, phases=[Phase.generate])(given(
        dims=st.tuples(st.integers(2, 4), *[st.integers(1, 4)] * 4), seed=st.integers(0, 2**16))(
        lambda dims, seed: check(monkeypatch, "abs", "one sequence", 2, dims, (False,) * 3, False, seed)))
    monkeypatch.setitem(_PULLBACKS, "attend_adjoint", _keys_of_the_next_sequence)
    with pytest.raises(AssertionError):
        fuzz()


_SPLIT_CASES = [*((op, real, None) for op in ("re", "im", "cabs") for real in (False, True)),
                *(("crelu", real, gate) for real in (False, True) for gate in ("operand", "leaf", "real leaf"))]
"""(op, real operand, gate) of every case: each lift, and crelu gated by
its operand (the default), by another leaf or by that leaf's real part,
on a complex and on a real operand."""


def _split_loss(g, nodes, w, op, real, gate):
    """Re sum(conj(w) * y * y) for y = op(a), with a the node ``x`` or,
    where ``real`` says so, its real part; a crelu other than the
    operand-gated one reads the node ``t``, or its real part, as its gate."""
    a = g.re(nodes["x"]) if real else nodes["x"]
    if op != "crelu":
        y = getattr(g, op)(a)
    elif gate == "operand":
        y = g.crelu(a)
    else:
        y = g.crelu(a, g.re(nodes["t"]) if gate == "real leaf" else nodes["t"])
    return g.re(g_sum(g, g.mulc(g.mul(y, y), g.const(w))))


_SPLIT_DRAWS = dict(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)), seed=st.integers(0, 2**16))


@pytest.mark.parametrize("op, real, gate", _SPLIT_CASES,
                         ids=[f"{op}-{'real' if real else 'complex'}" + (f"-gate={gate}" if gate else "")
                              for op, real, gate in _SPLIT_CASES])
@settings(FUZZ, max_examples=10)
@given(**_SPLIT_DRAWS)
def test_fuzz_crelu_and_lifts(op, real, gate, shape, seed):
    rng = np.random.default_rng(seed)
    # every operand and gate clear of the half-plane boundaries and of 0,
    # where crelu and cabs have kinks
    inputs = {"x": _off_axes(rand_complex(rng, *shape))}
    if op == "crelu" and gate != "operand":
        inputs["t"] = _off_axes(rand_complex(rng, *shape))
    w = rand_complex(rng, *shape)
    u = {n: CTensor(rand_complex(rng, *shape)) for n in inputs}

    def tape(at):
        g = Tape()
        leaves = {n: g.leaf(v) for n, v in at.items()}
        return g, leaves, _split_loss(g, leaves, w, op, real, gate)

    def gradient(at):
        g, leaves, loss = tape(at)
        grads = backward_values(g, loss)
        return {n: 2.0 * grads[leaf] if leaf in grads else np.zeros(shape) for n, leaf in leaves.items()}

    def loss_at(name, arr):
        ev = evaluator()
        return float(ev.raw(_split_loss(ev, {n: ev.const(arr if n == name else v) for n, v in inputs.items()},
                                        w, op, real, gate)).real)

    g, leaves, loss = tape(inputs)
    recorded = backward(g, loss)
    graph_free = gradient(inputs)
    for n, leaf in leaves.items():
        got = 2.0 * g.raw(recorded[leaf]) if leaf in recorded else np.zeros(shape)
        scale = max(float(np.max(np.abs(graph_free[n]))), 1e-300)
        assert float(np.max(np.abs(got - graph_free[n]))) <= 1e-12 * scale, n
        fd = fd_complex_gradient(lambda arr, n=n: loss_at(n, arr), inputs[n])
        assert rel_error(graph_free[n], fd, REL_TOL, ABS_FLOOR) <= REL_TOL, n

    hv = hvp_sweep(g, leaves, recorded, u)
    plus = gradient({n: x + FD_STEP * u[n].numpy() for n, x in inputs.items()})
    minus = gradient({n: x - FD_STEP * u[n].numpy() for n, x in inputs.items()})
    for n in inputs:
        fd = (plus[n] - minus[n]) / (2.0 * FD_STEP)
        assert rel_error(hv[n].numpy(), fd, REL_TOL, ABS_FLOOR) <= REL_TOL, n


def _crelu_gated_by_its_adjoint(g, nid, c):
    return [(g.inputs[nid][0], g.crelu(c))]


def _im_pulled_back_with_minus_i(g, nid, c):
    return [(g.inputs[nid][0], g.smul(c, -1j))]


@pytest.mark.parametrize("op, fault", [("crelu", _crelu_gated_by_its_adjoint),
                                       ("im", _im_pulled_back_with_minus_i)], ids=["crelu", "im"])
def test_fuzz_crelu_and_lifts_fails_on_a_planted_fault(monkeypatch, op, fault):
    # the fuzz's own draws and checks on a complex operand (crelu gated by
    # another leaf), stopped at the first failing example
    check = test_fuzz_crelu_and_lifts.hypothesis.inner_test
    fuzz = settings(FUZZ, max_examples=10, phases=[Phase.generate])(given(**_SPLIT_DRAWS)(
        lambda shape, seed: check(op, False, "leaf" if op == "crelu" else None, shape, seed)))
    monkeypatch.setitem(_PULLBACKS, op, fault)
    with pytest.raises(AssertionError):
        fuzz()


_NORM_DRAWS = dict(shape=st.tuples(st.integers(1, 5), st.integers(1, 4)), eps=st.sampled_from([1e-5, 1e-2, 1.0]),
                   small=st.booleans(), seed=st.integers(0, 2**16))


def _norm_loss(g, x, w, real, eps):
    """Re sum(conj(w) * y * y) for y = norm(a), with a the node ``x`` or,
    where ``real`` says so, its real part."""
    y = g.norm(g.re(x) if real else x, eps)
    return g.re(g_sum(g, g.mulc(g.mul(y, y), g.const(w))))


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@settings(FUZZ, max_examples=30)
@given(**_NORM_DRAWS)
def test_fuzz_norm(real, shape, eps, small, seed):
    # with ``small``, the last column is scaled by 1e-3: its variance, about
    # 2e-6, is then far below eps = 1e-2 or 1
    rng = np.random.default_rng(seed)
    x = rand_complex(rng, *shape)
    if small:
        x[:, -1] *= 1e-3
    w = rand_complex(rng, *shape)
    u = CTensor(rand_complex(rng, *shape))

    def tape(at):
        g = Tape()
        leaf = g.leaf(at)
        return g, leaf, _norm_loss(g, leaf, w, real, eps)

    def gradient(at):
        g, leaf, loss = tape(at)
        return 2.0 * backward_values(g, loss)[leaf]

    def loss_at(arr):
        ev = evaluator()
        return float(ev.raw(_norm_loss(ev, ev.const(arr), w, real, eps)).real)

    g, leaf, loss = tape(x)
    ev = evaluator()
    assert np.asarray(ev.raw(_norm_loss(ev, ev.const(x), w, real, eps))).tobytes() == g.raw(loss).tobytes()
    recorded = backward(g, loss)
    got = 2.0 * g.raw(recorded[leaf])
    graph_free = gradient(x)
    scale = max(float(np.max(np.abs(graph_free))), 1e-300)
    assert float(np.max(np.abs(got - graph_free))) <= 1e-12 * scale
    assert rel_error(graph_free, fd_complex_gradient(loss_at, x), REL_TOL, ABS_FLOOR) <= REL_TOL

    # the Hessian product by hvp_sweep, by a second recorded sweep and by
    # central differences of the graph-free gradient
    g2, leaf2, loss2 = tape(x)
    first = backward(g2, loss2)
    phi = g2.re(g_sum(g2, g2.mulc(g2.smul(first[leaf2], 2.0), g2.const(u.numpy()))))
    twice = 2.0 * g2.raw(backward(g2, phi)[leaf2])
    hv = hvp_sweep(g, {"x": leaf}, recorded, {"x": u})["x"].numpy()
    scale = max(float(np.max(np.abs(hv))), 1e-300)
    assert float(np.max(np.abs(twice - hv))) <= 1e-12 * scale
    fd = (gradient(x + FD_STEP * u.numpy()) - gradient(x - FD_STEP * u.numpy())) / (2.0 * FD_STEP)
    assert rel_error(hv, fd, REL_TOL, ABS_FLOOR) <= REL_TOL


def _norm_adjoint_without_the_mean(g, xhat, s, c):
    # norm's adjoint with the share of the column mean, mean(c), dropped
    m, k = g.shape[xhat]
    r = g.smul(g.sum_to(g.re(g.mulc(c, xhat)), (1, k)), 1.0 / m)
    return g.div(g.sub(c, g.mul(xhat, r)), s)


def test_fuzz_norm_fails_on_a_planted_fault(monkeypatch):
    # the fuzz's own draws and checks on a complex operand, stopped at the
    # first failing example
    check = test_fuzz_norm.hypothesis.inner_test
    fuzz = settings(FUZZ, max_examples=10, phases=[Phase.generate])(given(**_NORM_DRAWS)(
        lambda shape, eps, small, seed: check(False, shape, eps, small, seed)))
    monkeypatch.setattr(camel.wirtinger, "_norm_adjoint", _norm_adjoint_without_the_mean)
    with pytest.raises(AssertionError):
        fuzz()
