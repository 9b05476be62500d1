"""Differential fuzz of the engine's fused ops against the primitive chains
they stand for.

``attend`` is checked against :func:`g_attention` recorded on a tape, over
drawn shapes, lifts and chunk sizes, with complex leaves, real parts of
leaves and one operand passed twice.  The forward must match bit for bit,
the recorded and graph-free adjoints the chain's within 1e-12 of the
largest entry, and ``hvp_sweep`` central differences of the graph-free
gradient.  The runs are derandomized and bounded, as in ``test_fuzz``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import camel.wirtinger
from camel.ctensor import CTensor
from camel.gradcheck import ABS_FLOOR, FD_STEP, REL_TOL, rel_error
from camel.wirtinger import LIFTS, Tape, backward, backward_values, g_attention, g_sum, hvp_sweep

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
