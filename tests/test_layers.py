import numpy as np
import pytest

from camel.ctensor import CTensor, ShapeMismatchError
from camel.layers import (
    LIFTS,
    ArchConfig,
    ConfigError,
    MhaParams,
    build_attention,
    build_mha,
    c_act,
    c_attention,
    c_mha,
    c_norm,
    c_softmax,
    camel_forward,
    cconv1d,
    cfc,
    frames_to_input,
    init_params,
    param_count,
)
from camel.gradcheck import cr_check
from camel.wirtinger import evaluator, g_lift

from conftest import assert_close, rand_complex, rand_off_zero


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_cconv1d_pointwise_identity(rng):
    x = CTensor(rand_complex(rng, 1, 8))
    a = CTensor(np.ones((1, 1, 1), dtype=complex))
    b = CTensor.zeros((1,))
    out = cconv1d(x, a, b)
    assert np.allclose(out.numpy(), x.numpy(), atol=1e-15)


def test_cconv1d_real_inputs_imag_is_bias(rng):
    x = CTensor(rng.standard_normal((2, 8)).astype(complex))
    a = CTensor(rng.standard_normal((3, 2, 3)).astype(complex))
    b = CTensor(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    out = cconv1d(x, a, b).numpy()
    want_imag = np.broadcast_to(b.numpy().imag[:, None], out.shape)
    assert np.array_equal(out.imag, want_imag)


def test_cconv1d_matches_real_convolution_identities(rng):
    # real/imaginary output parts from four real correlations plus bias
    x = rand_complex(rng, 2, 8)
    a = rand_complex(rng, 3, 2, 3)
    b = rand_complex(rng, 3)
    out = cconv1d(CTensor(x), CTensor(a), CTensor(b)).numpy()

    def corr(u, v):  # valid cross-correlation of 1-d real arrays
        return np.array([np.dot(v, u[t:t + len(v)]) for t in range(len(u) - len(v) + 1)])

    want = np.zeros_like(out)
    for o in range(3):
        re = im = 0.0
        for c in range(2):
            re = re + corr(x[c].real, a[o, c].real) - corr(x[c].imag, a[o, c].imag)
            im = im + corr(x[c].imag, a[o, c].real) + corr(x[c].real, a[o, c].imag)
        want[o] = re + b[o].real + 1j * (im + b[o].imag)
    assert np.max(np.abs(out - want)) <= 1e-12


def test_cconv1d_errors(rng):
    x = CTensor(rand_complex(rng, 2, 4))
    with pytest.raises(ShapeMismatchError, match="channels"):
        cconv1d(x, CTensor(rand_complex(rng, 3, 3, 3)), CTensor.zeros((3,)))
    with pytest.raises(ShapeMismatchError, match="kernel"):
        cconv1d(x, CTensor(rand_complex(rng, 3, 2, 5)), CTensor.zeros((3,)))


# ---------------------------------------------------------------------------
# fully connected
# ---------------------------------------------------------------------------

def test_cfc_identity_and_rotation(rng):
    x = CTensor(rand_complex(rng, 4))
    w_eye = CTensor(np.eye(4, dtype=complex))
    zero = CTensor.zeros((4,))
    assert np.allclose(cfc(x, w_eye, zero).numpy(), x.numpy(), atol=1e-15)
    w_j = CTensor(1j * np.eye(4))
    assert np.allclose(cfc(x, w_j, zero).numpy(), 1j * x.numpy(), atol=1e-15)


def test_cfc_matches_matmul_oracle(rng):
    x = rand_complex(rng, 4)
    w = rand_complex(rng, 4, 3)
    b = rand_complex(rng, 3)
    got = cfc(CTensor(x), CTensor(w), CTensor(b)).numpy()
    assert np.max(np.abs(got - (w.T @ x + b))) <= 1e-12


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_c_softmax_equal_magnitudes():
    out = c_softmax(CTensor(np.array([1 + 0j, 0 + 1j])), "abs").numpy()
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)
    out = c_softmax(CTensor(np.array([0j, 0j])), "re").numpy()
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)


def test_c_softmax_abs_scalar_evaluation():
    out = c_softmax(CTensor(np.array([3 + 4j, 0j])), "abs").numpy()
    want = np.exp([5.0, 0.0]) / np.exp([5.0, 0.0]).sum()
    assert_close(out.real, want, rel=1e-12, label="softmax")


def test_c_softmax_rows_real_positive_normalized(rng):
    x = CTensor(rand_complex(rng, 4, 6))
    for lift in ("abs", "re", "im"):
        out = c_softmax(x, lift).numpy()
        assert np.max(np.abs(out.imag)) == 0.0
        assert np.all(out.real > 0)
        assert np.max(np.abs(out.real.sum(axis=1) - 1.0)) <= 1e-12


def test_c_softmax_errors(rng):
    with pytest.raises(ShapeMismatchError):
        c_softmax(CTensor(np.zeros((0,), dtype=complex)))
    with pytest.raises(ConfigError):
        c_softmax(CTensor(rand_complex(rng, 3)), lift="angle")


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def test_attention_single_key_row(rng):
    q = CTensor(rand_complex(rng, 3, 2))
    k = CTensor(rand_complex(rng, 1, 2))
    v = CTensor(rand_complex(rng, 1, 4))
    out = c_attention(q, k, v)
    assert np.max(np.abs(out.numpy() - np.tile(v.numpy(), (3, 1)))) <= 1e-12


def test_attention_identical_keys_average(rng):
    q = CTensor(rand_complex(rng, 2, 3))
    krow = rand_complex(rng, 3)
    k = CTensor(np.stack([krow, krow]))
    v = CTensor(rand_complex(rng, 2, 3))
    out, w = c_attention(q, k, v, return_weights=True)
    assert np.max(np.abs(w.numpy().real - 0.5)) <= 1e-12
    assert np.max(np.abs(out.numpy() - v.numpy().mean(axis=0))) <= 1e-12


def test_attention_matches_expanded_real_imag_formula(rng):
    q = rand_complex(rng, 2, 2)
    k = rand_complex(rng, 2, 2)
    v = rand_complex(rng, 2, 2)
    out = c_attention(CTensor(q), CTensor(k), CTensor(v)).numpy()

    logits = ((q.real @ k.real.T - q.imag @ k.imag.T)
              + 1j * (q.real @ k.imag.T + q.imag @ k.real.T)) / np.sqrt(2)
    lifted = np.abs(logits)
    e = np.exp(lifted - lifted.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    want = w @ v.real + 1j * (w @ v.imag)
    assert np.max(np.abs(out - want)) <= 1e-12


def test_attention_permuted_keys_values(rng):
    q = CTensor(rand_complex(rng, 3, 2))
    k = rand_complex(rng, 4, 2)
    v = rand_complex(rng, 4, 2)
    out1, w1 = c_attention(q, CTensor(k), CTensor(v), return_weights=True)
    perm = [2, 0, 3, 1]
    out2, w2 = c_attention(q, CTensor(k[perm]), CTensor(v[perm]), return_weights=True)
    assert np.max(np.abs(w1.numpy()[:, perm] - w2.numpy())) <= 1e-12
    assert np.max(np.abs(out1.numpy() - out2.numpy())) <= 1e-12


def test_attention_on_a_stack_equals_one_call_per_sequence(rng):
    b, lq, lk, d, dv = 3, 2, 4, 3, 5
    q, k, v = rand_complex(rng, b, lq, d), rand_complex(rng, b, lk, d), rand_complex(rng, b, lk, dv)
    g = evaluator()
    out = g.raw(build_attention(g, g.const(q), g.const(k), g.const(v)))
    assert out.shape == (b, lq, dv)
    for i in range(b):
        want = c_attention(CTensor(q[i]), CTensor(k[i]), CTensor(v[i]))
        assert_close(out[i], want.numpy(), rel=1e-12, floor=1e-14)


@pytest.mark.parametrize("lift", LIFTS)
def test_attention_output_and_weights_are_the_bytes_of_the_primitive_chain(rng, lift):
    # one sequence, written out op by op at rank 2: the output comes from
    # the attend op over a batch of one, the weights from the chain itself
    q, k, v = rand_complex(rng, 3, 2), rand_complex(rng, 4, 2), rand_complex(rng, 4, 5)
    out, w = c_attention(CTensor(q), CTensor(k), CTensor(v), lift, return_weights=True)
    ev = evaluator()
    scores = ev.matmul(ev.smul(ev.const(q), 1.0 / np.sqrt(2)), ev.permute(ev.const(k), (1, 0)))
    lifted = g_lift(ev, scores, lift)
    e = ev.exp(ev.sub(lifted, ev.const(ev.raw(lifted).real.max(axis=-1, keepdims=True))))
    want_w = ev.div(e, ev.sum_to(e, (3, 1)))
    assert w.numpy().tobytes() == want_w.tobytes()
    assert out.numpy().tobytes() == ev.matmul(want_w, ev.const(v)).tobytes()


def test_attention_length_mismatch(rng):
    with pytest.raises(ShapeMismatchError):
        c_attention(CTensor(rand_complex(rng, 3, 2)), CTensor(rand_complex(rng, 4, 2)),
                    CTensor(rand_complex(rng, 5, 2)))


# ---------------------------------------------------------------------------
# multi-head attention
# ---------------------------------------------------------------------------

def test_mha_single_head_identity_projections(rng):
    x = CTensor(rand_complex(rng, 4, 3))
    ident = CTensor(np.eye(3, dtype=complex))
    params = MhaParams(ident, ident, ident, ident, n_heads=1)
    got = c_mha(x, x, x, params).numpy()
    want = c_attention(x, x, x).numpy()
    assert np.max(np.abs(got - want)) <= 1e-12


def test_mha_output_shape(rng):
    for heads in (1, 2, 4):
        d = 4
        x = CTensor(rand_complex(rng, 5, d))
        params = MhaParams(*(CTensor(rand_complex(rng, d, d)) for _ in range(4)), n_heads=heads)
        assert c_mha(x, x, x, params).shape == (5, d)


def test_mha_matches_manual_two_head_evaluation(rng):
    d, dh = 4, 2
    x = rand_complex(rng, 3, d)
    wq, wk, wv, wo = (rand_complex(rng, d, d) for _ in range(4))
    params = MhaParams(CTensor(wq), CTensor(wk), CTensor(wv), CTensor(wo), n_heads=2)
    got = c_mha(CTensor(x), CTensor(x), CTensor(x), params).numpy()

    heads = []
    for h in range(2):
        sl = slice(h * dh, (h + 1) * dh)
        heads.append(c_attention(CTensor(x @ wq[:, sl]), CTensor(x @ wk[:, sl]),
                                 CTensor(x @ wv[:, sl])).numpy())
    want = np.concatenate(heads, axis=1) @ wo
    assert np.max(np.abs(got - want)) <= 1e-12


def test_mha_on_rows_keeps_sequences_apart(rng):
    # three sequences stacked as rows: heads attend within a sequence only
    n, length, d = 3, 4, 4
    x = rand_complex(rng, n * length, d)
    ws = [rand_complex(rng, d, d) for _ in range(4)]
    g = evaluator()
    out = g.raw(build_mha(g, g.const(x), g.const(x), g.const(x), n, *(g.const(w) for w in ws), n_heads=2))
    params = MhaParams(*(CTensor(w) for w in ws), n_heads=2)
    for i in range(n):
        seq = CTensor(x[i * length:(i + 1) * length])
        assert_close(out[i * length:(i + 1) * length], c_mha(seq, seq, seq, params).numpy(),
                     rel=1e-12, floor=1e-14)


def test_mha_head_divisibility_error(rng):
    x = CTensor(rand_complex(rng, 3, 4))
    params = MhaParams(*(CTensor(rand_complex(rng, 4, 4)) for _ in range(4)), n_heads=3)
    with pytest.raises(ShapeMismatchError):
        c_mha(x, x, x, params)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_c_norm_constant_batch_returns_shift(rng):
    x = CTensor(np.full((2, 5), 0.7 - 0.2j))
    gamma = CTensor(rand_complex(rng, 2))
    kappa = CTensor(rand_complex(rng, 2))
    out = c_norm(x, gamma, kappa, eps=1e-5).numpy()
    want = np.broadcast_to(kappa.numpy()[:, None], (2, 5))
    assert np.max(np.abs(out - want)) <= 1e-12


def test_c_norm_standardizes(rng):
    x = CTensor(rand_complex(rng, 3, 64))
    out = c_norm(x, CTensor(np.ones(3, dtype=complex)), CTensor.zeros((3,)), eps=1e-6).numpy()
    assert np.max(np.abs(out.mean(axis=1))) <= 1e-10
    power = np.mean(np.abs(out) ** 2, axis=1)
    assert np.all(power >= 1 - 1e-4) and np.all(power <= 1 + 1e-6)


def test_c_norm_two_point_batch_eps_zero():
    x = CTensor(np.array([[1 + 0j, -1 + 0j]]))
    out = c_norm(x, CTensor(np.ones(1, dtype=complex)), CTensor.zeros((1,)), eps=0.0).numpy()
    assert np.allclose(out, [[1, -1]], atol=1e-14)


def test_c_norm_negative_eps_rejected(rng):
    with pytest.raises(ConfigError):
        c_norm(CTensor(rand_complex(rng, 1, 4)), CTensor(np.ones(1, dtype=complex)),
               CTensor.zeros((1,)), eps=-1e-3)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def test_c_act_crelu_values():
    out = c_act(CTensor(np.array([1 - 2j, -1 - 1j])), "crelu").numpy()
    assert np.array_equal(out, np.array([1 + 0j, 0 + 0j]))


def test_c_act_csigmoid_at_zero():
    out = c_act(CTensor(np.array([0j])), "csigmoid").numpy()
    assert np.allclose(out, [0.5 + 0.5j], atol=1e-15)


def test_c_act_ctanh_parts(rng):
    z = rand_complex(rng, 5)
    out = c_act(CTensor(z), "ctanh").numpy()
    assert np.max(np.abs(out - (np.tanh(z.real) + 1j * np.tanh(z.imag)))) <= 1e-12


# ---------------------------------------------------------------------------
# full network
# ---------------------------------------------------------------------------

def _toy_arch(**kw):
    base = dict(n_classes=3, frame_len=16, conv_channels=2, conv_stride=2,
                attn_dim=2, n_heads=1, fc_hidden=4)
    base.update(kw)
    return ArchConfig(**base)


def test_camel_forward_logprob_contract(rng):
    arch = _toy_arch()
    params = init_params(arch, rng)
    frame = CTensor(rand_complex(rng, 1, arch.frame_len))
    lp = camel_forward(frame, params, arch)
    assert lp.shape == (arch.n_classes,)
    vals = lp.numpy()
    assert np.max(np.abs(vals.imag)) == 0.0
    assert abs(np.log(np.exp(vals.real).sum())) <= 1e-12


def test_camel_forward_zero_params_uniform(rng):
    arch = _toy_arch()
    params = {k: CTensor.zeros(v.shape) for k, v in init_params(arch, rng).items()}
    lp = camel_forward(CTensor(rand_complex(rng, 1, arch.frame_len)), params, arch).numpy()
    assert np.max(np.abs(np.exp(lp.real) - 1.0 / arch.n_classes)) <= 1e-12


def test_real_input_mode_stays_real(rng):
    arch = _toy_arch(real_input=True, softmax_lift="abs")
    params = init_params(arch, rng)
    assert all(np.max(np.abs(t.numpy().imag)) == 0.0 for t in params.values())
    x = frames_to_input([CTensor(rand_complex(rng, arch.frame_len))], arch)
    assert x.shape == (1, arch.frame_len, 2)
    assert np.max(np.abs(x.imag)) == 0.0


def test_param_count_toy_under_500(rng):
    arch = ArchConfig(n_classes=2, frame_len=16, conv_channels=2, conv_stride=2,
                      attn_dim=2, n_heads=1, fc_hidden=4)
    assert param_count(init_params(arch, rng)) <= 500


def test_arch_validation():
    with pytest.raises(ConfigError):
        ArchConfig(n_classes=2, attn_dim=6, n_heads=4)
    with pytest.raises(ConfigError):
        ArchConfig(n_classes=0)
    with pytest.raises(ConfigError):
        ArchConfig(n_classes=2, softmax_lift="angle")


# ---------------------------------------------------------------------------
# analyticity of the linear layers (and non-analyticity of the rest)
# ---------------------------------------------------------------------------

def test_conv_and_fc_layers_are_analytic(rng):
    a = CTensor(rand_complex(rng, 2, 2, 3))
    b = CTensor(rand_complex(rng, 2))
    conv_fn = lambda t: cconv1d(t, a, b)
    w = CTensor(rand_complex(rng, 4, 4))
    bias = CTensor(rand_complex(rng, 4))
    fc_fn = lambda t: cfc(t, w, bias)
    for _ in range(20):
        assert cr_check(conv_fn, CTensor(rand_complex(rng, 2, 6)), tol=1e-4)
        assert cr_check(fc_fn, CTensor(rand_complex(rng, 4)), tol=1e-4)


def test_nonlinear_layers_fail_cr(rng):
    act_fn = lambda t: c_act(t, "crelu")
    point = CTensor(np.array([0.6 - 0.8j, -0.5 + 0.7j]))
    assert not cr_check(act_fn, point, tol=1e-4)
    soft_fn = lambda t: c_softmax(t, "abs")
    assert not cr_check(soft_fn, CTensor(rand_off_zero(rng, 3)), tol=1e-4)
    norm_fn = lambda t: c_norm(t, CTensor(np.ones(1, dtype=complex)), CTensor.zeros((1,)))
    assert not cr_check(norm_fn, CTensor(rand_off_zero(rng, 1, 4)), tol=1e-4)


def test_cconv1d_stride(rng):
    x = rand_complex(rng, 1, 9)
    a = rand_complex(rng, 1, 1, 3)
    full = cconv1d(CTensor(x), CTensor(a), CTensor.zeros((1,)), stride=1).numpy()
    strided = cconv1d(CTensor(x), CTensor(a), CTensor.zeros((1,)), stride=3).numpy()
    assert strided.shape == (1, 3)
    assert np.max(np.abs(strided[0] - full[0, ::3])) <= 1e-12
