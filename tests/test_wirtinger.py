import ast
import inspect

import numpy as np
import pytest

import camel.wirtinger

from camel.ctensor import CTensor, ShapeMismatchError
from camel.layers import ArchConfig, build_cross_entropy, build_network, frames_to_input, init_params
from camel.gradcheck import (
    ABS_FLOOR,
    BROADCAST_PATTERNS,
    REL_TOL,
    WINDOW_PATTERNS,
    AnalyticChain,
    GradCase,
    NonAnalyticChainError,
    cr_check,
    cr_jacobian_blocks,
    default_cases,
    fd_complex_gradient,
    fd_wirtinger_pair,
    make_analytic_chain,
    opcount_compare,
    rel_error,
)
from camel.wirtinger import (
    ADJOINT_FLAGS,
    _PULLBACKS,
    _READS,
    _attend_chunks,
    _attend_sequence_bytes,
    NonRealLossError,
    NonScalarLossError,
    ReleasedValueError,
    Tape,
    UnknownOpError,
    backward,
    backward_graph,
    backward_values,
    complex_gradient,
    evaluator,
    LIFTS,
    g_abs2,
    g_attention,
    g_sum,
    hvp,
    hvp_sweep,
)

from conftest import assert_close, assert_same_adjoints, rand_complex, rand_off_zero, traced_peak


@pytest.fixture(autouse=True)
def one_sequence_per_chunk(monkeypatch):
    """Every ``attend`` here runs one sequence per chunk, so the registry's
    attention cases cross chunk boundaries."""
    monkeypatch.setattr(camel.wirtinger, "ATTEND_CHUNK_BYTES", 1)


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

_OPS = {k: getattr(Tape, k) for k in _PULLBACKS}
"""The op methods of a tape: exactly those with a pullback."""


def test_record_add_value(rng):
    g = Tape()
    a = g.leaf(rand_complex(rng, 3))
    b = g.leaf(rand_complex(rng, 3))
    nid = g.add(a, b)
    assert np.array_equal(g.raw(nid), g.raw(a) + g.raw(b))


def test_record_topological_order(rng):
    g = Tape()
    a = g.leaf(rand_complex(rng, 2))
    b = g.leaf(rand_complex(rng, 2))
    c = g.mul(a, b)
    d = g.conj(c)
    assert c > max(a, b) and d > c


def test_record_chain_replays_direct_evaluation(rng):
    x = rand_complex(rng, 4)
    y = rand_complex(rng, 4)
    g = Tape()
    a, b = g.leaf(x), g.leaf(y)
    out = g.exp(g.mul(g.add(a, b), a))
    direct = np.exp((x + y) * x)
    assert np.max(np.abs(g.raw(out) - direct)) <= 1e-15 * np.max(np.abs(direct))


# ---------------------------------------------------------------------------
# window / unwindow: the convolution's patch rows and their overlap-add
# ---------------------------------------------------------------------------

_WINDOWS = [*WINDOW_PATTERNS, (5, 1)]
"""(k, stride): the gradcheck patterns (overlapping, touching, gapped as at
the desk arch's k 3 and stride 4, single taps) and a longer overlap."""


def _loop_patches(x, k, stride):
    n, t, c = x.shape
    to = (t - k) // stride + 1
    out = np.zeros((n * to, c * k), dtype=complex)
    for b in range(n):
        for j in range(to):
            for ch in range(c):
                for kk in range(k):
                    out[b * to + j, ch * k + kk] = x[b, j * stride + kk, ch]
    return out


def _loop_overlap_add(p, t, k, stride):
    to = (t - k) // stride + 1
    n, c = p.shape[0] // to, p.shape[1] // k
    out = np.zeros((n, t, c), dtype=complex)
    for b in range(n):
        for j in range(to):
            for ch in range(c):
                for kk in range(k):
                    out[b, j * stride + kk, ch] += p[b * to + j, ch * k + kk]
    return out


@pytest.mark.parametrize("k,stride", _WINDOWS)
def test_window_and_unwindow_match_python_loops(rng, k, stride):
    t = 11
    x = rand_complex(rng, 2, t, 3)
    g = Tape()
    w = g.window(g.leaf(x), k=k, stride=stride)
    assert np.array_equal(g.raw(w), _loop_patches(x, k, stride))
    p = rand_complex(rng, *g.raw(w).shape)
    u = g.unwindow(g.leaf(p), t=t, k=k, stride=stride)
    assert np.array_equal(g.raw(u), _loop_overlap_add(p, t, k, stride))


@pytest.mark.parametrize("op,shape,aux", [
    ("window", (2, 5), dict(k=3, stride=1)),
    ("window", (2, 5, 1), dict(k=0, stride=1)),
    ("window", (2, 5, 1), dict(k=6, stride=1)),
    ("window", (2, 5, 1), dict(k=3, stride=0)),
    ("unwindow", (2, 5, 3), dict(t=5, k=3, stride=1)),
    ("unwindow", (6, 3), dict(t=5, k=3, stride=0)),
    ("unwindow", (6, 3), dict(t=5, k=6, stride=1)),
    ("unwindow", (5, 3), dict(t=5, k=3, stride=1)),
    ("unwindow", (6, 4), dict(t=5, k=3, stride=1)),
], ids=["window-rank2", "window-k0", "window-k-over-T", "window-stride0", "unwindow-rank3",
        "unwindow-stride0", "unwindow-k-over-T", "unwindow-rows", "unwindow-columns"])
def test_window_ops_reject_bad_arguments(op, shape, aux):
    g = Tape()
    with pytest.raises(ShapeMismatchError):
        _OPS[op](g, g.leaf(np.zeros(shape, dtype=complex)), **aux)


@pytest.mark.parametrize("sa, sb, adj", [
    ((3,), (3, 2), None),
    ((2, 3), (3,), None),
    ((2, 3), (1, 3, 2), None),
    ((2, 2, 3), (3, 3, 2), None),
    ((2, 3), (4, 2), None),
    ((2, 3), (3, 4), "a"),
    ((2, 3), (4, 2), "b"),
    ((2, 2, 3), (2, 4, 2), None),
    ((2, 3, 2), (2, 4, 2), "a"),
    ((2, 2, 3), (2, 2, 4), "b"),
], ids=["rank1-a", "rank1-b", "rank2-vs-3", "leading-axes", "inner", "inner-adj=a", "inner-adj=b",
        "inner-rank3", "inner-rank3-adj=a", "inner-rank3-adj=b"])
def test_matmul_rejects_bad_shapes(sa, sb, adj):
    g = Tape()
    a, b = g.leaf(np.zeros(sa, dtype=complex)), g.leaf(np.zeros(sb, dtype=complex))
    with pytest.raises(ShapeMismatchError):
        g.matmul(a, b, adj=adj)
    assert len(g) == 2


@pytest.mark.parametrize("lead", [(), (2,)], ids=["matrix", "stack"])
@pytest.mark.parametrize("adj", ADJOINT_FLAGS)
def test_real_by_complex_matmul_equals_the_complex_product(rng, adj, lead):
    # a real left factor multiplies the interleaved parts of a complex right
    # factor whose last axis is contiguous (adj None and "a"); under "b" the
    # right factor is a transposed view, which numpy multiplies as complex
    ra = rng.standard_normal(lead + ((3, 2) if adj == "a" else (2, 3)))
    cb = rand_complex(rng, *lead + ((4, 3) if adj == "b" else (3, 4)))
    g = Tape()
    got = g.raw(g.matmul(g.const(ra), g.leaf(cb), adj))
    opa = ra.swapaxes(-1, -2) if adj == "a" else ra
    opb = np.conj(cb).swapaxes(-1, -2) if adj == "b" else cb
    want = opa.astype(complex) @ opb
    assert got.dtype == complex and got.flags.c_contiguous and not g.real[-1]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_matmul_rejects_an_unknown_adj_flag():
    g = Tape()
    a, b = g.leaf(np.zeros((2, 2), dtype=complex)), g.leaf(np.zeros((2, 2), dtype=complex))
    with pytest.raises(UnknownOpError):
        g.matmul(a, b, adj="c")


# ---------------------------------------------------------------------------
# backward: worked values and contracts
# ---------------------------------------------------------------------------

def test_backward_real_part():
    g = Tape()
    z = g.leaf(np.asarray(3 + 4j, dtype=complex))
    dzc = complex(g.val[backward(g, g.re(z))[z]])
    assert dzc.conjugate() == 0.5
    assert dzc == 0.5


def test_backward_modulus_squared():
    g = Tape()
    z = g.leaf(np.asarray(1 + 1j, dtype=complex))
    dzc = complex(g.val[backward(g, g.mul(z, g.conj(z)))[z]])
    assert dzc == 1 + 1j
    assert dzc.conjugate() == 1 - 1j


def _toy_loss(g, x):
    # J = |exp(-(x*)^2)|
    u = g.conj(x)
    return g.cabs(g.exp(g.neg(g.mul(u, u))))


def test_backward_toy_matches_finite_differences():
    x0 = np.asarray(0.3 + 0.2j, dtype=complex)
    g = Tape()
    x = g.leaf(x0)
    dzc = g.val[backward(g, _toy_loss(g, x))[x]]

    def f(arr):
        gg = Tape()
        return float(gg.raw(_toy_loss(gg, gg.leaf(arr))).real)

    dz, dzc_fd = fd_wirtinger_pair(f, x0)
    assert_close(np.conj(dzc), dz, rel=1e-5, label="dL/dz")
    assert_close(dzc, dzc_fd, rel=1e-5, label="dL/dz*")


def test_backward_rejects_nonscalar_and_nonreal(rng):
    for sweep in (backward, backward_values):
        g = Tape()
        z = g.leaf(rand_complex(rng, 3))
        with pytest.raises(NonScalarLossError):
            sweep(g, z)
        g2 = Tape()
        w = g2.leaf(np.asarray(0.3 + 0.4j, dtype=complex))
        with pytest.raises(NonRealLossError):
            sweep(g2, g2.mul(w, w))


def test_complex_gradient_worked_cases(rng):
    g = Tape()
    z = g.leaf(np.asarray(1 + 1j, dtype=complex))
    loss = g.mul(z, g.conj(z))
    assert complex_gradient(g, loss, z).item() == 2 + 2j

    g = Tape()
    z = g.leaf(np.asarray(0.7 - 0.2j, dtype=complex))
    assert complex_gradient(g, g.re(z), z).item() == 1.0

    g = Tape()
    z = g.leaf(np.asarray(0.7 - 0.2j, dtype=complex))
    loss = g.re(g.const(np.asarray(2.5, dtype=complex)))
    assert complex_gradient(g, loss, z).item() == 0.0

    g = Tape()
    z = g.leaf(np.asarray(1.0 + 0j))
    with pytest.raises(UnknownOpError):
        complex_gradient(g, g.re(z), 10 ** 6)


def test_gradient_matches_fd_on_composite(rng):
    x0 = rand_off_zero(rng, 4)

    def build(g, x):
        t = g.crelu(g.mul(x, g.conj(g.exp(g.smul(x, 0.5)))))
        return g.re(g_sum(g, g.mul(t, g.conj(t))))

    g = Tape()
    x = g.leaf(x0)
    grad = complex_gradient(g, build(g, x), x).numpy()

    def f(arr):
        gg = Tape()
        return float(gg.raw(build(gg, gg.leaf(arr))).real)

    assert rel_error(grad, fd_complex_gradient(f, x0)) <= 1e-5


def test_gated_crelu_values_shape_refusal_and_no_gate_adjoint(rng):
    a = np.array([[1.5 - 2j, -0.5 + 3j], [2 + 1j, -1 - 1j]])
    gate = np.array([[1 + 1j, 1 - 1j], [-1 + 1j, -1 - 1j]])
    g = Tape()
    x, y = g.leaf(a), g.leaf(gate)
    out = g.crelu(x, y)
    assert g.inputs[out] == (x, y) and not g.real[out]
    assert np.array_equal(g.raw(out), [[1.5 - 2j, -0.5], [1j, 0]])
    # a real operand gives a real node; a real gate masks every imaginary part
    r = g.crelu(g.re(x), y)
    assert g.real[r] and g.raw(r).dtype == np.float64
    assert np.array_equal(g.raw(r), [[1.5, -0.5], [0, 0]])
    assert np.array_equal(g.raw(g.crelu(x, g.re(y))), [[1.5, -0.5], [0, 0]])
    # the default gate is the operand: relu of each part
    assert g.inputs[g.crelu(y)] == (y, y)
    assert np.array_equal(g.raw(g.crelu(y)), [[1 + 1j, 1], [1j, 0]])
    for shape in ((2,), (1, 2), (2, 2, 1)):
        with pytest.raises(ShapeMismatchError, match="crelu"):
            g.crelu(x, g.leaf(np.ones(shape, dtype=complex)))
    # Re sum(w u) with u = crelu(x, y) has the gradient crelu(conj(w), y);
    # the gate gets none, also when the operand is a const
    w = rand_complex(rng, 2, 2)
    for operand in ("leaf", "const"):
        for sweep in ("graph", "values"):
            g = Tape()
            x = g.leaf(a) if operand == "leaf" else g.const(a)
            y = g.leaf(gate)
            loss = g.re(g_sum(g, g.mul(g.crelu(x, y), g.const(w))))
            cots = backward(g, loss) if sweep == "graph" else backward_values(g, loss)
            assert y not in cots and (x in cots) == (operand == "leaf")
            if operand == "leaf":
                got = 2.0 * (g.raw(cots[x]) if sweep == "graph" else cots[x])
                want = np.where(gate.real > 0, w.real, 0) - 1j * np.where(gate.imag > 0, w.imag, 0)
                assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# analytic subgraphs
# ---------------------------------------------------------------------------

def test_analytic_graph_has_zero_conjugate_channel(rng):
    g = Tape()
    z = g.leaf(rand_complex(rng, 3))
    w = g.const(rand_complex(rng, 3, 3))
    out = g_sum(g, g.exp(g.matmul(w, g.reshape(g.smul(z, 0.3 + 0.1j), (3, 1)))))
    pairs = backward_graph(g, out, seed=(1.0, None))
    pv, pc = pairs[z]
    assert pv is not None
    assert pc is None or np.max(np.abs(g.val[pc])) <= 1e-12


def _mixed_graph(g, z, w):
    # sum(crelu(z) * conj(z) + |z| * w): mul, conj, cabs and crelu
    return g_sum(g, g.add(g.mul(g.crelu(z), g.conj(z)), g.mul(g.cabs(z), w)))


@pytest.mark.parametrize("seed", [(1.0, None), (0.5, 0.5), (0.3 - 0.2j, 1.1 + 0.4j), (None, 2.0j)])
@pytest.mark.parametrize("sweep", ["graph", "values"])
def test_sweeps_match_hand_derived_dual_pair(rng, seed, sweep):
    # u = sum(r * conj(z) + |z| w) with r = crelu(z) and half-plane masks
    # m_re, m_im has, per element,
    #   A = du/dz  = p conj(z) + w conj(z) / (2|z|)
    #   B = du/dz* = q conj(z) + r + w z / (2|z|)
    # with p = (m_re + m_im)/2, q = (m_re - m_im)/2, so the dual-channel
    # adjoints of a seed (sv, sc) are sv A + sc conj(B) and sv B + sc conj(A).
    # A graph-free sweep takes a real loss only: it reads B and conj(A) from
    # the real losses Re u and Im u, whose dL/dz* are (B + conj(A))/2 and
    # (B - conj(A))/2i, and forms the seed's pair from them.
    z0 = rand_off_zero(rng, 6)
    w0 = rand_complex(rng, 6)
    mre, mim = (z0.real > 0) * 1.0, (z0.imag > 0) * 1.0
    r = np.maximum(z0.real, 0) + 1j * np.maximum(z0.imag, 0)
    a = (mre + mim) / 2 * np.conj(z0) + w0 * np.conj(z0) / (2 * np.abs(z0))
    b = (mre - mim) / 2 * np.conj(z0) + r + w0 * z0 / (2 * np.abs(z0))
    sv, sc = (0.0 if s is None else s for s in seed)
    want = (sv * a + sc * np.conj(b), sv * b + sc * np.conj(a))

    def record():
        g = Tape()
        z = g.leaf(z0)
        return g, z, _mixed_graph(g, z, g.const(w0))

    if sweep == "graph":
        g, z, out = record()
        pairs = backward_graph(g, out, seed=seed)
        got = [g.val[pairs[z][slot]] for slot in (0, 1)]
    else:
        # a graph-free sweep consumes its tape: one tape per real loss
        g, z, out = record()
        re = backward_values(g, g.re(out))[z]
        g, z, out = record()
        im = backward_values(g, g.im(out))[z]
        b, ca = re + 1j * im, re - 1j * im
        got = [sv * np.conj(ca) + sc * np.conj(b), sv * b + sc * ca]
    for slot in (0, 1):
        assert np.max(np.abs(got[slot] - want[slot])) <= 1e-12 * np.max(np.abs(want[slot]))


def test_real_seed_builds_the_value_channel_only_when_read(rng):
    g = Tape()
    z = g.leaf(rand_off_zero(rng, 4))
    out = _mixed_graph(g, z, g.const(rand_complex(rng, 4)))
    pairs = backward_graph(g, out, seed=(0.5, 0.5))
    n = len(g)
    cid = pairs[z][1]
    assert len(g) == n
    vid = pairs[z][0]
    assert len(g) == n + 1 and g.kind[vid] == "conj" and g.inputs[vid] == (cid,)
    assert pairs[z][0] == vid and len(g) == n + 1


# ---------------------------------------------------------------------------
# graph-free sweeps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.name)
def test_backward_values_match_backward_graph_on_registry(case):
    # a graph-free sweep consumes its tape, so each sweep gets its own tape,
    # recorded from the same draws
    for k in range(3):
        tapes = []
        for _ in range(2):
            rng = np.random.default_rng(np.random.SeedSequence((7, k)))
            g = Tape()
            leaves = {n: g.leaf(v) for n, v in case.make_inputs(rng).items()}
            tapes.append((g, leaves, case.build_loss(g, leaves, rng)))
        (g, leaves, loss), (gg, _, gloss) = tapes
        n = len(g)
        values = backward_values(g, loss)
        assert len(g) == n
        assert set(values) <= set(leaves.values())
        assert_same_adjoints(gg, values, backward(gg, gloss), leaves.values())


@pytest.mark.parametrize("shape", [(), (3,)])
def test_backward_values_resolve_numpy_integer_ids(rng, shape):
    # the op methods accept numpy integer ids and store them as given; the
    # graph-free sweep must read them as nodes, not as adjoint values.
    za, zb = rand_complex(rng, *shape), rand_complex(rng, *shape)

    def record():
        g = Tape()
        a, b = g.leaf(za), g.leaf(zb)
        c = g.mul(np.int64(a), np.int64(b))
        return g, a, b, g_sum(g, g.mul(np.int64(c), g.conj(np.int64(c))))

    g, a, b, loss = record()
    values = backward_values(g, loss)
    g, a, b, loss = record()
    assert_same_adjoints(g, values, backward(g, loss), [a, b])


@pytest.mark.parametrize("consumer", ["add", "expand", "sum_to"])
def test_leaf_consumed_by_a_broadcast_gets_a_writable_gradient(rng, consumer):
    # the adjoint of a broadcast is a reduction and the adjoint of a
    # reduction is a broadcast view; a graph-free sweep hands out neither
    # a view nor a scalar, but an array of the leaf's own
    x0 = rand_complex(rng, 2, 3) if consumer == "sum_to" else rand_complex(rng, 3)
    w0 = rand_complex(rng, 2, 3)

    def record():
        g = Tape()
        x = g.leaf(x0)
        if consumer == "sum_to":
            return g, x, g.re(g.sum_to(x, ()))
        w = g.const(w0)
        out = g.add(w, x) if consumer == "add" else g.expand(x, (2, 3))
        return g, x, g.re(g_sum(g, g.mul(out, w)))

    g, x, loss = record()
    got = backward_values(g, loss)[x]
    assert isinstance(got, np.ndarray) and got.shape == g.val[x].shape
    assert got.flags.writeable and got.flags.c_contiguous
    assert not any(np.shares_memory(got, v) for v in g.val if v is not None)
    gg, _, gloss = record()
    assert_same_adjoints(gg, {x: got}, backward(gg, gloss), [x])


@pytest.mark.parametrize("second", ["leaf", "reshaped leaf"])
def test_leaves_that_get_one_adjoint_get_arrays_of_their_own(rng, second):
    # add passes its adjoint to both inputs unchanged, and reshape passes a
    # view of it: each leaf still gets an array that no other leaf holds
    w0 = rand_complex(rng, 2, 3)
    g = Tape()
    x = g.leaf(rand_complex(rng, 2, 3))
    y = g.leaf(rand_complex(rng, 2, 3) if second == "leaf" else rand_complex(rng, 6))
    other = y if second == "leaf" else g.reshape(y, (2, 3))
    grads = backward_values(g, g.re(g_sum(g, g.mul(g.const(w0), g.add(x, other)))))
    gx, gy = grads[x], grads[y]
    assert gx is not gy and not np.shares_memory(gx, gy)
    assert np.array_equal(gx.reshape(-1), gy.reshape(-1))
    want = gy.copy()
    gx *= 2.0
    assert np.array_equal(gy, want)


_LARGE_LEAF_SHAPES = {  # (w, x) for w @ x and x @ w under each adj flag
    (0, None): ((5, 6), (6, 1)), (0, "a"): ((6, 5), (6, 1)), (0, "b"): ((5, 6), (1, 6)),
    (1, None): ((6, 5), (1, 6)), (1, "a"): ((6, 5), (6, 1)), (1, "b"): ((5, 6), (1, 6)),
}


@pytest.mark.parametrize("pos", [0, 1], ids=["w@x", "x@w"])
@pytest.mark.parametrize("adj", ADJOINT_FLAGS)
def test_a_large_leaf_operand_gets_its_matmul_adjoint_last(rng, monkeypatch, adj, pos):
    # the leaf w has 30 elements against the other operand's 6 and the
    # product's 5, so a graph-free sweep keeps x and the product's adjoint
    # and forms w's adjoint after every other node.  In hvp_sweep w also
    # meets the first sweep's adjoint in the recorded product for x's
    # adjoint, so it gets two such late adjoints
    sw, sx = _LARGE_LEAF_SHAPES[pos, adj]
    inputs = {"w": rand_complex(rng, *sw), "x": rand_complex(rng, *sx)}
    k0 = rand_complex(rng, *((5, 1) if pos == 0 else (1, 5)))
    u = {n: rand_complex(rng, *v.shape) for n, v in inputs.items()}

    def loss(g, lv):
        w, x = lv["w"], lv["x"]
        y = g.matmul(w, x, adj) if pos == 0 else g.matmul(x, w, adj)
        return g.re(g_sum(g, g.add(g_abs2(g, y), g.mul(y, g.const(k0)))))

    def record():
        g = Tape()
        lv = {n: g.leaf(v) for n, v in inputs.items()}
        return g, lv, loss(g, lv)

    formed_last = []
    pull = camel.wirtinger._pull_matmul

    def spy(g, nid, c, late=None):
        n = len(late)
        out = pull(g, nid, c, late)
        formed_last.extend(leaf for leaf, *_ in late[n:])
        return out

    monkeypatch.setattr(camel.wirtinger, "_pull_matmul", spy)

    def fd(f, name):
        return fd_complex_gradient(lambda arr: f({**inputs, name: arr}), inputs[name])

    def loss_at(vals):
        ev = evaluator()
        return float(ev.raw(loss(ev, {n: ev.const(v) for n, v in vals.items()})).real)

    g, lv, l = record()
    values = backward_values(g, l)
    assert formed_last == [lv["w"]]
    gg, _, gl = record()
    assert_same_adjoints(gg, values, backward(gg, gl), lv.values())
    for n, leaf in lv.items():
        assert rel_error(2.0 * values[leaf], fd(loss_at, n)) <= REL_TOL, n

    formed_last.clear()
    g, lv, l = record()
    got = hvp_sweep(g, lv, backward(g, l), {n: CTensor(v) for n, v in u.items()})
    assert formed_last == [lv["w"]] * 2
    gg, lv, l = record()
    first = backward(gg, l)
    phi = gg.re(gg.add(*(g_sum(gg, gg.mulc(gg.smul(first[leaf], 2.0), gg.const(u[n]))) for n, leaf in lv.items())))
    second = backward(gg, phi)

    def phi_at(vals):
        g = Tape()
        lv = {n: g.leaf(v) for n, v in vals.items()}
        grads = backward_values(g, loss(g, lv))
        return sum(float(np.sum(np.conj(u[n]) * 2.0 * grads[lv[n]]).real) for n in lv)

    for n, leaf in lv.items():
        assert_same_adjoints(gg, {leaf: got[n].numpy() / 2.0}, second, [leaf])
        assert rel_error(got[n].numpy(), fd(phi_at, n)) <= REL_TOL, n


# ---------------------------------------------------------------------------
# released values
# ---------------------------------------------------------------------------

def _registry_tape(case, k=0):
    rng = np.random.default_rng(np.random.SeedSequence((13, k)))
    g = Tape()
    leaves = {n: g.leaf(v) for n, v in case.make_inputs(rng).items()}
    return g, leaves, case.build_loss(g, leaves, rng)


def _pulled_back_reads(g, nid):
    """The forward values the pullback of ``nid`` reads, per ``_READS``."""
    ins, own, cross = _READS.get(g.kind[nid], ((), False, False))
    inputs = g.inputs[nid]
    read = {inputs[pos] for pos in ins} | ({nid} if own else set())
    if cross:
        a, b = inputs
        read |= {x for x, other in ((a, b), (b, a)) if g.needs[other]}
    return read


def test_reads_table_names_only_ops_with_a_pullback():
    assert set(_READS) <= set(_PULLBACKS)
    arity = {}
    for g in _registry_tapes().values():
        for kind, ins in zip(g.kind, g.inputs):
            arity.setdefault(kind, set()).add(len(ins))
    for kind, (ins, own, cross) in _READS.items():
        (n,) = arity[kind]
        assert all(0 <= pos < n for pos in ins) and isinstance(own, bool), kind
        assert cross is False or (cross is True and n == 2), kind


@pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.name)
def test_release_keeps_leaves_consts_keep_nodes_and_read_values(case):
    g, leaves, loss = _registry_tape(case)
    backward(g, loss)
    read = set()
    for nid in range(len(g)):
        if g.needs[nid]:
            read |= _pulled_back_reads(g, nid)
    keep = {loss, len(g) - 1}
    before = list(g.val)
    g.release(keep=keep)
    for nid, v in enumerate(g.val):
        kept = nid in read or nid in keep or g.kind[nid] in ("leaf", "const")
        assert (v is before[nid]) if kept else (v is None), (nid, g.kind[nid])
        assert g.shape[nid] == before[nid].shape
    # a second call with nothing kept drops the nodes the first one kept for
    # its keep set, and nothing else
    g.release()
    for nid in keep - read:
        if g.kind[nid] not in ("leaf", "const"):
            assert g.val[nid] is None


@pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.name)
def test_release_depends_only_on_the_tape_as_it_stands(case):
    def swept():
        g, _, loss = _registry_tape(case)
        backward(g, loss)
        return g, loss, list(g.val)

    def released(g):
        return {nid for nid, v in enumerate(g.val) if v is None}

    g, loss, before = swept()
    n, end = len(g), loss + 1
    wide = {nid for nid in range(n) if nid % 2} | {loss}
    narrow = {nid for nid in wide if nid % 3 == 0} | {loss}
    # a first call that keeps more, over fewer nodes, leaves no trace
    g.release(keep=wide, end=end // 2)
    g.release(keep=narrow, end=end)
    twin, _, _ = swept()
    twin.release(keep=narrow, end=end)
    dropped = released(g)
    assert dropped == released(twin)
    assert all(g.val[nid] is before[nid] for nid in range(n) if nid not in dropped)
    assert not any(nid >= end for nid in dropped)
    # and a last call over the whole tape drops what the earlier ones kept
    # for their keep sets, as a single call does
    g.release()
    twin, _, _ = swept()
    twin.release()
    assert released(g) == released(twin)


@pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.name)
def test_backward_values_consumes_the_tape_up_to_its_loss(case):
    def record():
        g, leaves, loss = _registry_tape(case)
        later = g.mul(loss, g.conj(loss))
        return g, leaves, loss, g.re(g_sum(g, g.exp(g.smul(later, 0.1))))

    g, leaves, loss, tail = record()
    n = len(g)
    before = list(g.val)
    backward_values(g, loss)
    assert len(g) == n
    for nid in range(loss):
        if g.kind[nid] in ("leaf", "const"):
            assert g.val[nid] is before[nid]
    assert g.raw(loss) is before[loss]
    assert all(g.val[nid] is before[nid] for nid in range(loss + 1, n))
    # sweeping the consumed nodes again either fails at a released value or
    # reads only values that were kept, and then equals a sweep of a twin
    twin, _, _, twin_tail = record()
    want = backward_values(twin, twin_tail)
    try:
        got = backward_values(g, tail)
    except ReleasedValueError:
        return
    assert set(got) == set(want)
    assert all(np.array_equal(got[nid], want[nid]) for nid in want)


def test_released_value_reads_raise_a_typed_error(rng, monkeypatch):
    g = Tape()
    x = g.leaf(rand_off_zero(rng, 3))
    s = g.sub(x, g.const(rand_complex(rng, 3)))
    loss = g.re(g_sum(g, g.exp(s)))
    g.release(keep=(loss,))
    for read in (g.raw, g.value):
        with pytest.raises(ReleasedValueError, match=rf"node {s} \(sub\)") as info:
            read(s)
        assert (info.value.nid, info.value.kind) == (s, "sub")
    assert isinstance(info.value, ValueError)
    # a pullback that reads a value its _READS entry does not name fails at
    # the operand lookup, not on stale data
    monkeypatch.setitem(camel.wirtinger._READS, "exp", ((), False, False))
    g = Tape()
    x = g.leaf(rand_off_zero(rng, 3))
    e = g.exp(g.smul(x, 0.5))
    with pytest.raises(ReleasedValueError, match=rf"node {e} \(exp\)"):
        backward_values(g, g.re(g_sum(g, e)))


_RELEASED_OPERANDS = {"add": 2, "sub": 2, "mul": 2, "mulc": 2, "div": 2, "mdiv": 2, "matmul": 2, "attend": 3}
"""Operand count of every op that takes more than one node."""
_NON_NODE_ARGS = {"smul": (0.5,), "reshape": ((8,),), "permute": ((2, 1, 0),), "sum_to": ((),),
                  "expand": ((2, 2, 2),), "window": (1, 1), "unwindow": (2, 1, 1), "attend": (1, 1, "abs")}


def test_recording_on_a_released_node_raises_a_typed_error(rng):
    g = Tape()
    x = g.leaf(rand_off_zero(rng, 2, 2, 2))
    r = g.neg(x)  # exp reads only its own value, so r is released
    loss = g.re(g_sum(g, g.exp(r)))
    g.release(keep=(loss,))
    assert g.val[r] is None
    for op, method in _OPS.items():
        n = _RELEASED_OPERANDS.get(op, 1)
        for pos in range(n):
            ids = [x] * n
            ids[pos] = r
            with pytest.raises(ReleasedValueError, match=rf"node {r} \(neg\)"):
                method(g, *ids, *_NON_NODE_ARGS.get(op, ()))


@pytest.mark.parametrize("sweep", [backward, lambda g, loss: backward_graph(g, loss, seed=(0.5, 0.5))],
                         ids=["backward", "backward_graph"])
def test_recorded_sweep_over_a_consumed_tape_raises_a_typed_error(rng, sweep):
    # the recorded pullbacks of log and attend read an input that the
    # graph-free sweep dropped once it had pulled that input back
    for build, kind in ((lambda g, x: g.log(g.neg(x)), "neg"),
                        (lambda g, x: g.attend(g.neg(x), x, x, 2, 1, "abs"), "neg")):
        g = Tape()
        x = g.leaf(rand_off_zero(rng, 4, 2))
        loss = g.re(g_sum(g, build(g, x)))
        backward_values(g, loss)
        with pytest.raises(ReleasedValueError, match=rf"\({kind}\)"):
            sweep(g, loss)


@pytest.mark.parametrize("lift", LIFTS)
def test_attend_equals_a_tape_of_the_primitive_chain_across_chunks(rng, monkeypatch, lift):
    # five sequences of 3 queries over 4 keys, two heads, two sequences to
    # a chunk: chunks of 2, 2 and 1 sequences
    n, lq, lk = 5, 3, 4
    inputs = [rand_complex(rng, n * lq, 4), rand_complex(rng, n * lk, 4), rand_complex(rng, n * lk, 6)]
    monkeypatch.setattr(camel.wirtinger, "ATTEND_CHUNK_BYTES",
                        2 * _attend_sequence_bytes(n, 2, inputs[0].shape, inputs[2].shape))
    assert [m for m, _, _ in _attend_chunks(n, 2, inputs[0].shape, inputs[2].shape)] == [2, 2, 1]
    w = rand_complex(rng, n * lq, 6)

    def record(attend):
        g = Tape()
        leaves = [g.leaf(x) for x in inputs]
        out = attend(g, *leaves, n, 2, lift)
        return g, leaves, out, g.re(g_sum(g, g.mul(out, g.const(w))))

    (g, leaves, out, loss), (gc, chain_leaves, chain_out, chain_loss) = record(Tape.attend), record(g_attention)
    assert g.kind[out] == "attend" and "attend" not in gc.kind
    assert g.raw(out).tobytes() == gc.raw(chain_out).tobytes()
    assert evaluator().attend(*inputs, n, 2, lift).tobytes() == gc.raw(chain_out).tobytes()
    # the closed-form adjoint is not the chain's autodiff, so it agrees to
    # rounding: per chunk in a graph-free sweep, over the whole batch in a
    # recorded one
    got, want = backward_values(g, loss), backward_values(gc, chain_loss)
    for a, b in zip(leaves, chain_leaves):
        assert_close(got[a], want[b], rel=1e-12, floor=1e-12 * np.max(np.abs(want[b])))
    (g, leaves, _, loss), (gc, chain_leaves, _, chain_loss) = record(Tape.attend), record(g_attention)
    got, want = backward(g, loss), backward(gc, chain_loss)
    for a, b in zip(leaves, chain_leaves):
        assert_close(g.raw(got[a]), gc.raw(want[b]), rel=1e-12, floor=1e-12 * np.max(np.abs(gc.raw(want[b]))))


@pytest.mark.parametrize("lift", LIFTS)
def test_attend_pullback_runs_in_the_bounded_working_set(rng, monkeypatch, lift):
    # a desk query batch, 25 sequences of 16 steps with 2 heads of width 4,
    # at the default bound: the graph-free sweep allocates the adjoint of
    # attend's output and the three operand adjoints, and all else that it
    # holds at once is one chunk's working set
    monkeypatch.undo()
    n, length, d = 25, 16, 8
    inputs = [rand_complex(rng, n * length, d) for _ in range(3)]
    w = rand_complex(rng, n * length, d)
    assert n * _attend_sequence_bytes(n, 2, w.shape, w.shape) > camel.wirtinger.ATTEND_CHUNK_BYTES
    assert len(_attend_chunks(n, 2, w.shape, w.shape)) > 1
    g = Tape()
    out = g.attend(*(g.leaf(x) for x in inputs), n, 2, lift)
    loss = g.re(g_sum(g, g.mulc(out, g.const(w))))
    peak = traced_peak(lambda: backward_values(g, loss))
    assert peak - 4 * w.nbytes <= camel.wirtinger.ATTEND_CHUNK_BYTES


def test_attend_rejects_bad_shapes_and_lifts(rng):
    g = Tape()
    q, k, v = g.leaf(rand_complex(rng, 6, 4)), g.leaf(rand_complex(rng, 8, 4)), g.leaf(rand_complex(rng, 8, 2))
    for args in ((q, k, q, 2, 1),  # keys and values of different lengths
                 (q, v, v, 2, 1),  # queries and keys of different widths
                 (q, k, v, 4, 1),  # rows that are not 4 sequences
                 (q, k, v, 0, 1),
                 (q, k, v, 2, 3),  # widths not divisible by the heads
                 (q, k, g.leaf(rand_complex(rng, 8, 3)), 2, 2),
                 (q, k, v, 2, 0),
                 (g.leaf(rand_complex(rng, 2, 3, 4)), k, v, 2, 1)):
        with pytest.raises(ShapeMismatchError, match="attend"):
            g.attend(*args, "abs")
    with pytest.raises(UnknownOpError, match="lift"):
        g.attend(q, k, v, 2, 1, "angle")


_PRODUCT_SHAPES = {
    (None, 2): ((2, 3), (3, 4)), ("a", 2): ((3, 2), (3, 4)), ("b", 2): ((2, 3), (4, 3)),
    (None, 3): ((2, 2, 3), (2, 3, 4)), ("a", 3): ((2, 3, 2), (2, 3, 4)), ("b", 3): ((2, 2, 3), (2, 4, 3)),
}
"""Operand shapes of matmul per (adj flag, rank)."""
_PRODUCTS = {
    "mul": ((2, 3), (2, 3), lambda g, a, b: g.mul(a, b)),
    "mulc": ((2, 3), (2, 3), lambda g, a, b: g.mulc(a, b)),
    "abs2": ((2, 3), (2, 3), lambda g, a, b: g.mul(g_abs2(g, a), b)),
    **{f"matmul[adj={adj}{'' if rank == 2 else f',rank={rank}'}]":
       (*shapes, lambda g, a, b, adj=adj: g.matmul(a, b, adj))
       for (adj, rank), shapes in _PRODUCT_SHAPES.items()},
}


@pytest.mark.parametrize("name", list(_PRODUCTS))
def test_product_adjoints_record_no_conjugation_or_transposition(rng, name):
    sa, sb, op = _PRODUCTS[name]
    for depth in (1, 2):
        g = Tape()
        a, b = g.leaf(rand_complex(rng, *sa)), g.leaf(rand_complex(rng, *sb))
        loss = g_sum(g, op(g, a, b))
        n = len(g)
        # a complex loss, so that no adjoint is real and every conj would
        # be recorded: the pair API sweeps it, backward takes real losses
        first = backward_graph(g, loss, seed=(0.5, 0.5))
        if depth == 2:  # differentiate the recorded gradient once more
            loss = g_sum(g, g.add(g_sum(g, first[a][1]), g_sum(g, first[b][1])))
            n = len(g)
            backward_graph(g, loss, seed=(0.5, 0.5))
        assert not {"conj", "permute", "window", "unwindow"} & set(g.kind[n:])


def _registry_tapes():
    tapes = {}
    for case in default_cases():
        rng = np.random.default_rng(0)
        g = Tape()
        case.build_loss(g, {n: g.leaf(v) for n, v in case.make_inputs(rng).items()}, rng)
        tapes[case.name] = g
    return tapes


def test_registry_covers_every_op_adjoint_flag_and_broadcast_pattern():
    tapes = _registry_tapes()
    for op in _OPS:
        assert any(name.split("[")[0] == op and op in g.kind for name, g in tapes.items()), \
            f"no gradcheck case named for and recording {op!r}"
    for op, method in _OPS.items():
        if "adj" not in inspect.signature(method).parameters:
            continue
        for adj in ADJOINT_FLAGS:
            for rank in (2, 3):
                tags = ",".join([f"adj={adj}"] * (adj is not None) + [f"rank={rank}"] * (rank > 2))
                g = tapes[f"{op}[{tags}]" if tags else op]
                assert any(k == op and aux == adj and g.val[ins[0]].ndim == rank
                           for k, aux, ins in zip(g.kind, g.aux, g.inputs)), (op, adj, rank)
    # an op that records a broadcast of its two operands needs a case per pattern
    probe = Tape()
    x, r = probe.leaf(np.ones((2, 3), dtype=complex)), probe.leaf(np.ones(3, dtype=complex))
    broadcasting = []
    for op, method in _OPS.items():
        try:
            nid = method(probe, x, r)
        except (TypeError, ValueError):
            continue
        if probe.inputs[nid] == (x, r):
            broadcasting.append(op)
    assert {"add", "sub", "mul", "mulc", "div", "mdiv"} <= set(broadcasting)
    for op in broadcasting:
        for pattern, shapes in BROADCAST_PATTERNS.items():
            g = tapes[f"{op}[{pattern}]"]
            assert any(k == op and tuple(g.val[i].shape for i in ins) == shapes
                       for k, ins in zip(g.kind, g.inputs)), (op, pattern)


@pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.name)
def test_second_order_matches_fd_of_gradient_on_registry(case):
    # phi(theta) = Re sum conj(u) * grad L(theta): its gradient through the
    # recorded first sweep against central differences of phi, where phi is
    # recomputed from a graph-free gradient
    for k in range(2):
        rng = np.random.default_rng(np.random.SeedSequence((11, k)))
        inputs = case.make_inputs(rng)
        u = {n: rand_complex(rng, *np.shape(v)) for n, v in inputs.items()}

        def head_rng():
            return np.random.default_rng(np.random.SeedSequence((11, k, 1)))

        g = Tape()
        leaves = {n: g.leaf(v) for n, v in inputs.items()}
        first = backward(g, case.build_loss(g, leaves, head_rng()))
        phi = None
        for n, leaf in leaves.items():
            if leaf in first:
                term = g_sum(g, g.mulc(g.smul(first[leaf], 2.0), g.const(u[n])))
                phi = term if phi is None else g.add(phi, term)
        second = backward_values(g, g.re(phi))

        def phi_at(name, arr):
            vals = dict(inputs)
            vals[name] = arr
            gg = Tape()
            lv = {m: gg.leaf(v) for m, v in vals.items()}
            grads = backward_values(gg, case.build_loss(gg, lv, head_rng()))
            return sum(float(np.sum(np.conj(u[m]) * 2.0 * grads[lv[m]]).real)
                       for m in lv if lv[m] in grads)

        for n, leaf in leaves.items():
            got = 2.0 * second[leaf] if leaf in second else np.zeros(np.shape(inputs[n]))
            fd = fd_complex_gradient(lambda arr, n=n: phi_at(n, arr), inputs[n])
            assert rel_error(got, fd, REL_TOL, ABS_FLOOR) <= REL_TOL, (case.name, k, n)


# ---------------------------------------------------------------------------
# real nodes in real storage
# ---------------------------------------------------------------------------

_DESK_ARCH = ArchConfig(n_classes=5, frame_len=64, conv_channels=8, conv_stride=4,
                        attn_dim=8, n_heads=2, fc_hidden=32)


def _desk_case():
    # the desk network of acceptance criteria 6/7 on 5 support frames
    def make_inputs(rng):
        return {n: t.numpy().copy() for n, t in init_params(_DESK_ARCH, rng).items()}

    def build(g, lv, rng):
        frames = [CTensor(rand_complex(rng, _DESK_ARCH.frame_len)) for _ in range(5)]
        lp = build_network(g, g.const(frames_to_input(frames, _DESK_ARCH)), lv, _DESK_ARCH)
        return build_cross_entropy(g, lp, range(5))

    return GradCase("desk_network", make_inputs, build)


def _real_by_construction(g):
    """The nodes real in math: a cabs, re or im, and every op whose operands
    are all such nodes or real consts (a smul only by a real scalar)."""
    real = set()
    for nid, (kind, ins) in enumerate(zip(g.kind, g.inputs)):
        if kind in ("cabs", "re", "im") or (
                ins and all(i in real or (g.kind[i] == "const" and g.val[i].dtype == np.float64) for i in ins)
                and (kind != "smul" or g.aux[nid].imag == 0)):
            real.add(nid)
    return real


def _spy_on_adjoints(monkeypatch):
    """(node is real, dtype of its adjoint) of every node a sweep pulls back."""
    seen = []
    for kind, pull in list(_PULLBACKS.items()):
        def spy(g, nid, c, pull=pull):
            value = c if isinstance(g, camel.wirtinger._ArrayOps) else g.raw(c)
            seen.append((g.real[nid], np.asarray(value).dtype))
            return pull(g, nid, c)
        monkeypatch.setitem(_PULLBACKS, kind, spy)
    return seen


def _check_real_storage(case, monkeypatch):
    """Real nodes hold float64 values and receive float64 adjoints from a
    recorded and a graph-free sweep; leaf adjoints stay complex128.
    Returns the kinds of the real nodes met."""
    seen = _spy_on_adjoints(monkeypatch)
    kinds = set()
    for sweep in ("graph", "values"):
        g, leaves, loss = _registry_tape(case)
        if sweep == "graph":
            cots = backward(g, loss)
            grads = [complex_gradient(g, loss, leaf, cots).numpy() for leaf in leaves.values()]
        else:
            grads = list(backward_values(g, loss).values())
        assert all(x.dtype == np.complex128 for x in grads), case.name
        for nid in _real_by_construction(g):
            assert g.real[nid], (case.name, sweep, nid, g.kind[nid])
            if g.val[nid] is not None:
                assert g.val[nid].dtype == np.float64, (case.name, sweep, nid, g.kind[nid])
            kinds.add(g.kind[nid])
    assert seen and all(dtype == np.float64 for real, dtype in seen if real), \
        f"{case.name}: a real node got a complex adjoint"
    return kinds


@pytest.mark.parametrize("case", [*default_cases(), _desk_case()], ids=lambda c: c.name)
def test_real_nodes_hold_real_values_and_adjoints(case, monkeypatch):
    kinds = _check_real_storage(case, monkeypatch)
    if case.name == "desk_network":
        # the lift, the softmax chain of attention and the log-softmax head
        assert {"cabs", "sub", "exp", "sum_to", "div", "log", "mul", "smul"} <= kinds


def test_real_storage_check_fails_when_a_real_node_gets_a_complex_adjoint(monkeypatch):
    # a planted fault: the sweep hands real inputs what their pullbacks give
    # them, so re(x0) gets the complex adjoint of a matmul under ^H
    monkeypatch.setattr(camel.wirtinger, "_real_part", lambda ops, p: p)
    (case,) = [c for c in default_cases() if c.name == "real_operands"]
    with pytest.raises(AssertionError, match="a real node got a complex adjoint"):
        _check_real_storage(case, monkeypatch)


@pytest.mark.parametrize("case", [*default_cases(), _desk_case()], ids=lambda c: c.name)
def test_pullbacks_hand_adjoints_only_to_their_inputs(case, monkeypatch):
    # a sweep visits node ids downward from its largest seed, so an adjoint
    # handed to a node recorded after the one pulled back would never be
    # propagated; recorded and graph-free sweeps alike
    strays = []
    for kind, pull in list(_PULLBACKS.items()):
        def spy(g, nid, c, pull=pull):
            pairs = pull(g, nid, c)
            strays.extend((g.kind[nid], i) for i, _ in pairs if i not in g.inputs[nid])
            return pairs
        monkeypatch.setitem(_PULLBACKS, kind, spy)
    for sweep in (backward, backward_values):
        g, _, loss = _registry_tape(case)
        sweep(g, loss)
    assert not strays, f"{case.name}: pullbacks handed adjoints to (kind, node) {strays}"


@pytest.mark.parametrize("sweep", [backward, backward_values], ids=["backward", "backward_values"])
def test_toy_map_sweeps_keep_real_adjoints_at_real_nodes(monkeypatch, sweep):
    # the toy map of camel toychain enters through a conj and ends in a
    # real cabs: its real nodes get float64 adjoints, its complex ones
    # complex adjoints, from a recorded sweep and a graph-free one alike
    seen = _spy_on_adjoints(monkeypatch)
    g = Tape()
    x = g.leaf(np.asarray(0.5 + 0.5j))
    loss = _toy_loss(g, x)
    assert g.real[loss]
    sweep(g, loss)
    assert {real for real, _ in seen} == {True, False}
    assert all(dtype == (np.float64 if real else np.complex128) for real, dtype in seen)


# ---------------------------------------------------------------------------
# the evaluator: forward passes that record nothing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.name)
def test_evaluator_matches_recorded_forward_on_registry(case):
    for k in range(3):
        inputs = case.make_inputs(np.random.default_rng(np.random.SeedSequence((7, k))))
        g = Tape()
        want = g.raw(case.build_loss(g, {n: g.leaf(v) for n, v in inputs.items()},
                                     np.random.default_rng(np.random.SeedSequence((7, k, 1)))))
        ev = evaluator()
        got = ev.raw(case.build_loss(ev, {n: ev.const(v) for n, v in inputs.items()},
                                     np.random.default_rng(np.random.SeedSequence((7, k, 1)))))
        assert len(ev) == 0
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_evaluator_refuses_leaf(rng):
    ev = evaluator()
    with pytest.raises(TypeError, match="const"):
        ev.leaf(rand_complex(rng, 3))
    assert len(ev) == 0


# ---------------------------------------------------------------------------
# Cauchy-Riemann checking
# ---------------------------------------------------------------------------

def _linear_layer_fn(rng, n=3):
    w = rand_complex(rng, n, n)
    b = rand_complex(rng, n)

    def fn(t):
        return CTensor(w.T @ t.numpy() + b)

    return fn


def test_cr_check_linear_layer_analytic(rng):
    for _ in range(5):
        fn = _linear_layer_fn(rng)
        assert cr_check(fn, CTensor(rand_complex(rng, 3)), tol=1e-4)


def test_cr_check_conj_fails(rng):
    fn = lambda t: CTensor(np.conj(t.numpy()))
    assert not cr_check(fn, CTensor(rand_complex(rng, 2)), tol=1e-4)


def test_cr_check_crelu_fails_at_mixed_sign_point():
    fn = lambda t: CTensor(np.maximum(t.numpy().real, 0) + 1j * np.maximum(t.numpy().imag, 0))
    point = CTensor(np.array([0.7 - 0.4j]))
    assert not cr_check(fn, point, tol=1e-4)


def test_cr_check_real_valued_maps_fail(rng):
    # nonconstant real-valued maps cannot be analytic
    z = CTensor(rand_off_zero(rng, 3))
    assert not cr_check(lambda t: CTensor(np.abs(t.numpy()) ** 2), z, tol=1e-4)
    assert not cr_check(lambda t: CTensor(t.numpy().real.astype(complex)), z, tol=1e-4)
    assert not cr_check(lambda t: CTensor(np.abs(t.numpy()).astype(complex)), z, tol=1e-4)


def test_cr_check_nonfinite_output_raises():
    fn = lambda t: CTensor._wrap(t.numpy() / 0.0)
    with pytest.warns(RuntimeWarning), pytest.raises(FloatingPointError):
        cr_check(fn, CTensor(np.array([1.0 + 0j])), tol=1e-4)


# ---------------------------------------------------------------------------
# Hessian-vector products
# ---------------------------------------------------------------------------

def _abs2_loss(g, leaves):
    th = leaves["t"]
    return g_sum(g, g.mul(th, g.conj(th)))


def test_hvp_modulus_squared():
    # L = |t|^2 has the gradient map 2t, so its derivative along u is 2u
    theta = {"t": CTensor.scalar(0.8 + 0.3j)}
    for u in (1.0, 0.6 - 1.7j):
        got = hvp(_abs2_loss, theta, {"t": CTensor.scalar(u)})["t"].item()
        assert abs(got - 2.0 * u) <= 1e-12


def test_hvp_zero_direction_is_zero(rng):
    theta = {"t": CTensor(rand_complex(rng, 3))}
    h = hvp(_abs2_loss, theta, {"t": CTensor.zeros((3,))})
    assert np.max(np.abs(h["t"].numpy())) == 0.0


def _quadratic_loss(rng):
    # random three-parameter quadratic with non-holomorphic coupling
    a = rand_complex(rng, 3, 3)
    a = a + np.conj(a.T)  # Hermitian coupling keeps the loss real
    b = rand_complex(rng, 3, 3)
    b = b + b.T  # symmetric conjugate-channel coupling

    def loss(g, leaves):
        th = leaves["t"]
        col = g.reshape(th, (3, 1))
        quad = g.matmul(g.matmul(col, g.const(a), "a"), col)
        anom = g.re(g.matmul(g.matmul(g.permute(col, (1, 0)), g.const(b)), col))
        return g.re(g.add(g_sum(g, quad), g_sum(g, anom)))

    return loss


def test_hvp_matches_fd_of_gradient_map(rng):
    # the complex gradient of theta -> Re sum(conj(g(theta)) * u), with
    # g(theta) the gradient map, by central differences
    loss = _quadratic_loss(rng)
    theta0 = rand_complex(rng, 3)
    u = rand_complex(rng, 3)
    h = hvp(loss, {"t": CTensor(theta0)}, {"t": CTensor(u)})

    def phi(arr):
        g = Tape()
        leaves = {"t": g.leaf(arr)}
        grad = 2.0 * backward_values(g, loss(g, leaves))[leaves["t"]]
        return float(np.sum(np.conj(grad) * u).real)

    assert rel_error(h["t"].numpy(), fd_complex_gradient(phi, theta0), rel=1e-4) <= 1e-4


def test_hvp_runs_one_recorded_and_one_graph_free_sweep(rng, monkeypatch):
    sweeps = []
    sweep = camel.wirtinger._sweep

    def counting_sweep(g, ops, *args):
        sweeps.append("recorded" if ops is g else "graph-free")
        return sweep(g, ops, *args)

    monkeypatch.setattr(camel.wirtinger, "_sweep", counting_sweep)
    hvp(_quadratic_loss(rng), {"t": CTensor(rand_complex(rng, 3))}, {"t": CTensor(rand_complex(rng, 3))})
    assert sweeps == ["recorded", "graph-free"]


# ---------------------------------------------------------------------------
# derivative cost comparison
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 8, 64])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_opcount_ratio_exactly_two(m, depth, rng):
    chain = make_analytic_chain(m, depth, rng)
    count_cd, count_iq, d_cd, d_iq = opcount_compare(chain, m)
    assert count_cd == 4 * m * depth
    assert count_iq == 8 * m * depth
    assert count_iq / count_cd == 2.0
    assert np.max(np.abs(d_cd - d_iq)) <= 1e-12


def test_opcount_rejects_nonanalytic():
    chain = AnalyticChain(4, [("affine", np.ones(4), np.zeros(4)), ("conj",)])
    with pytest.raises(NonAnalyticChainError):
        opcount_compare(chain, 4)


def test_opcount_m_mismatch(rng):
    chain = make_analytic_chain(4, 2, rng)
    with pytest.raises(ShapeMismatchError):
        opcount_compare(chain, 8)


def test_cr_blocks_take_four_calls_per_input_element(rng):
    calls = []
    w = rand_complex(rng, 2, 3)

    def fn(t):
        calls.append(t)
        return CTensor._wrap(w @ t.numpy())

    blocks = cr_jacobian_blocks(fn, CTensor(rand_complex(rng, 3)))
    assert len(calls) == 4 * 3
    assert all(b.shape == (2, 3) for b in blocks)
    drr, dii, dri, dir_ = blocks
    assert_close(drr, w.real)
    assert_close(dir_, w.imag)


# ---------------------------------------------------------------------------
# module boundary: wirtinger is the engine, the oracles live in gradcheck
# ---------------------------------------------------------------------------

MOVED_TO_GRADCHECK = ("FD_STEP", "fd_real_loss_partials", "fd_complex_gradient", "fd_wirtinger_pair",
                      "rel_error", "cr_jacobian_blocks", "cr_check", "AnalyticChain",
                      "make_analytic_chain", "opcount_compare", "NonAnalyticChainError")


def test_wirtinger_imports_only_ctensor_and_defines_no_oracle():
    import camel.gradcheck

    tree = ast.parse(inspect.getsource(camel.wirtinger))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("camel")):
            package.add("camel." + node.module if node.level else node.module)
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names if a.name.startswith("camel"))
    assert package == {"camel.ctensor"}
    defined = {t.id for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
               for t in (n.targets if isinstance(n, ast.Assign) else [n.target]) if isinstance(t, ast.Name)}
    defined |= {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & set(MOVED_TO_GRADCHECK)
    assert all(hasattr(camel.gradcheck, name) for name in MOVED_TO_GRADCHECK)
    assert camel.cr_check is camel.gradcheck.cr_check
    assert camel.opcount_compare is camel.gradcheck.opcount_compare
