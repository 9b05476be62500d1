"""Differential fuzz of the engine's fused and non-holomorphic ops.

``attend`` is checked against :func:`g_attention` recorded on a tape, over
drawn shapes, lifts and chunk sizes, with complex leaves, real parts of
leaves and one operand passed twice.  The forward must match bit for bit,
the recorded and graph-free adjoints the chain's within 1e-12 of the
largest entry, and ``hvp_sweep`` central differences of the graph-free
gradient.

``crelu`` and the three lifts (``re``, ``im``, ``cabs``), the maps that
need the second Wirtinger term, are checked over drawn shapes on real and
complex operands, with crelu gated by its operand, by another leaf or by
the real part of one.  The recorded and graph-free sweeps must agree
within 1e-12, the gradient must match central differences within
``REL_TOL`` and ``hvp_sweep`` central differences of the gradient.  Two
planted faults, crelu gated by its adjoint and -i for im, must make that
fuzz fail.

The runs are derandomized and bounded, as in ``test_fuzz``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import camel.wirtinger
from camel.ctensor import CTensor
from camel.gradcheck import ABS_FLOOR, FD_STEP, REL_TOL, _off_axes, fd_complex_gradient, rel_error
from camel.wirtinger import (
    _PULLBACKS,
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


def _attention_loss(attend, inputs, w, real, shared, lift):
    """A tape, its leaves by name and Re sum(out * conj(w)) for
    out = attend(q, kt, v): each operand a leaf or, where ``real`` says so,
    its real part; with ``shared`` v is q itself."""
    g = Tape()
    leaves = {n: g.leaf(x) for n, x in inputs.items()}
    ops = {n: g.re(leaf) if r else leaf for (n, leaf), r in zip(leaves.items(), real)}
    out = attend(g, ops["q"], ops["kt"], ops["q"] if shared else ops["v"], lift)
    return g, leaves, out, g.re(g_sum(g, g.mulc(out, g.const(w))))


@FUZZ
@given(dims=st.tuples(*[st.integers(1, 5)] * 5), lift=st.sampled_from(LIFTS),
       chunk=st.sampled_from(["one row", "one block", "default"]),
       real=st.tuples(st.booleans(), st.booleans(), st.booleans()), shared=st.booleans(),
       seed=st.integers(0, 2**16))
def test_fuzz_attend_against_the_primitive_chain(monkeypatch, dims, lift, chunk, real, shared, seed):
    b, lq, lk, d, dv = dims
    if shared:
        lk, dv = lq, d
    bytes_per_chunk = {"one row": 1, "one block": lq * lk * 16,
                       "default": camel.wirtinger.ATTEND_CHUNK_BYTES}[chunk]
    monkeypatch.setattr(camel.wirtinger, "ATTEND_CHUNK_BYTES", bytes_per_chunk)
    rng = np.random.default_rng(seed)
    inputs = {"q": rand_complex(rng, b, lq, d), "kt": rand_complex(rng, b, d, lk)}
    if not shared:
        inputs["v"] = rand_complex(rng, b, lk, dv)
    w = rand_complex(rng, b, lq, dv)
    u = {n: CTensor(rand_complex(rng, *x.shape)) for n, x in inputs.items()}

    def tape(attend=Tape.attend, at=inputs):
        return _attention_loss(attend, at, w, real, shared, lift)

    gc, chain_leaves, chain_out, chain_loss = tape(g_attention)
    g, leaves, out, loss = tape()
    assert g.kind[out] == "attend"
    assert g.raw(out).tobytes() == gc.raw(chain_out).tobytes()

    want = backward_values(gc, chain_loss)
    recorded = backward(g, loss)
    gv, leaves_v, _, loss_v = tape()
    graph_free = backward_values(gv, loss_v)
    for n, leaf in chain_leaves.items():
        ref = want[leaf]
        tol = 1e-12 * max(float(np.max(np.abs(ref))), 1e-300)
        for got in (g.raw(recorded[leaves[n]]), graph_free[leaves_v[n]]):
            assert float(np.max(np.abs(got - ref))) <= tol, n

    def gradient(at):
        gg, lv, _, lo = tape(at=at)
        grads = backward_values(gg, lo)
        return {n: 2.0 * grads[leaf] for n, leaf in lv.items()}

    hv = hvp_sweep(g, leaves, recorded, u)
    plus = gradient({n: x + FD_STEP * u[n].numpy() for n, x in inputs.items()})
    minus = gradient({n: x - FD_STEP * u[n].numpy() for n, x in inputs.items()})
    for n in inputs:
        fd = (plus[n] - minus[n]) / (2.0 * FD_STEP)
        assert rel_error(hv[n].numpy(), fd, REL_TOL, ABS_FLOOR) <= REL_TOL, n


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
