"""Complex-valued layers: convolution, fully connected, softmax, attention,
multi-head attention, normalization, activations, and the full recognition
network (embedding -> conv block -> attention block -> FC block -> head).

Each layer exists twice: a ``build_*`` function that records the layer onto
a tape (used by training and by the ``gradcheck`` registry), and a small
eager wrapper with the public CTensor signature, which runs the same
builder on a ``wirtinger.evaluator`` and so records nothing.  The wrappers
serve callers of the package; criterion 3's Cauchy-Riemann checks
(``gradcheck.cr_check``) call ``cconv1d``, ``cfc`` and ``c_act``.

Inside the network, features are time-major from the input block to the
FC block: every convolution reads (N, T, C) and reads its patch rows with
``window``, and the rows (N*T, C) between layers let biases, norm
statistics and scales broadcast.  ``build_mha`` reads those rows as N
sequences and moves heads with ``permute``; ``build_attention`` reads only
trailing axes, so one sequence (L, d) and a stack (B, L, d) take the same
path.  Both hand the whole batch of sequences and heads to one
``attend`` op, which runs it one chunk at a time.  No layer builds an
index map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ctensor import CTensor, ShapeMismatchError
from .wirtinger import (
    LIFTS,
    Tape,
    evaluator,
    g_abs2,
    g_lift,
    g_minus_row_max,
    g_softmax_last,
    g_sum,
    g_sum_last,
)

_C = np.complex128

ACTIVATIONS = ("crelu", "ctanh", "csigmoid")


class ConfigError(ValueError):
    """Raised for inconsistent architecture or layer configuration."""


@dataclass
class ArchConfig:
    """Architecture hyperparameters of the recognition network."""

    n_classes: int
    frame_len: int = 128
    conv_channels: int = 128
    conv_kernel: int = 3
    conv_stride: int = 1
    conv_blocks: int = 1
    attn_dim: int = 64
    n_heads: int = 8
    fc_hidden: int = 64
    fc_blocks: int = 1
    softmax_lift: str = "abs"
    activation: str = "crelu"
    norm_eps: float = 1e-5
    use_attention: bool = True
    real_input: bool = False

    def __post_init__(self):
        for name in ("n_classes", "frame_len", "conv_channels", "conv_kernel",
                     "conv_stride", "conv_blocks", "attn_dim", "n_heads",
                     "fc_hidden", "fc_blocks"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"ArchConfig.{name} must be positive")
        if self.attn_dim % self.n_heads != 0:
            raise ConfigError(f"attn_dim {self.attn_dim} not divisible by n_heads {self.n_heads}")
        if self.softmax_lift not in LIFTS:
            raise ConfigError(f"softmax_lift must be one of {LIFTS}, got {self.softmax_lift!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.norm_eps < 0:
            raise ConfigError("norm_eps must be non-negative")
        self.conv_out_len()  # the conv blocks must fit in the frame

    @property
    def in_channels(self) -> int:
        return 2 if self.real_input else 1

    def conv_out_len(self) -> int:
        t = self.frame_len
        for _ in range(self.conv_blocks):
            if self.conv_kernel > t:
                raise ConfigError(f"conv kernel {self.conv_kernel} longer than input length {t}")
            t = (t - self.conv_kernel) // self.conv_stride + 1
        return t

    def feature_dim(self) -> int:
        width = self.attn_dim if self.use_attention else self.conv_channels
        return self.conv_out_len() * width


@dataclass
class MhaParams:
    """Projection matrices of multi-head attention.

    wq/wk/wv/wo are (d x d); column block k*(d/n_heads) .. (k+1)*(d/n_heads)
    of wq/wk/wv is head k's projection.
    """

    wq: CTensor
    wk: CTensor
    wv: CTensor
    wo: CTensor
    n_heads: int


# ---------------------------------------------------------------------------
# graph builders
# ---------------------------------------------------------------------------

def build_log_softmax_last(g: Tape, x: int, lift: str) -> int:
    z = g_minus_row_max(g, g_lift(g, x, lift))
    return g.sub(z, g.log(g_sum_last(g, g.exp(z))))


def build_cconv1d(g: Tape, x3: int, a: int, b: int | None, stride: int = 1) -> int:
    """Valid 1-d complex convolution of time-major input.

    x3: (N, T, C_in); a: (C_out, C_in, K); b: (C_out,) or None.  Returns
    time-major rows (N*T_out, C_out).
    """
    n, t, ci = g.raw(x3).shape
    co, cia, k = g.raw(a).shape
    if cia != ci:
        raise ShapeMismatchError(f"cconv1d: input has {ci} channels, kernel expects {cia}")
    if k > t:
        raise ShapeMismatchError(f"cconv1d: kernel length {k} exceeds input length {t}")
    if stride < 1:
        raise ConfigError("cconv1d: stride must be >= 1")
    patches = g.window(x3, k, stride)
    out = g.matmul(patches, g.reshape(g.permute(a, (1, 2, 0)), (ci * k, co)))
    if b is not None:
        if g.raw(b).shape != (co,):
            raise ShapeMismatchError(f"cconv1d: bias shape {g.raw(b).shape} != ({co},)")
        out = g.add(out, b)
    return out


def build_cfc(g: Tape, x2: int, w: int, b: int | None) -> int:
    """Linear map of row vectors: (N, d_in) @ (d_in, d_out) + bias."""
    n, din = g.raw(x2).shape
    win, dout = g.raw(w).shape
    if win != din:
        raise ShapeMismatchError(f"cfc: input dim {din} does not match weight rows {win}")
    out = g.matmul(x2, w)
    if b is not None:
        if g.raw(b).shape != (dout,):
            raise ShapeMismatchError(f"cfc: bias shape {g.raw(b).shape} != ({dout},)")
        out = g.add(out, b)
    return out


def _queries_and_keys(g: Tape, q: int, k: int, v: int) -> tuple[int, int]:
    """Q (..., Lq, d) scaled by 1/sqrt(d), and K (..., Lk, d) transposed to
    (..., d, Lk), once their shapes agree with V (..., Lk, dv)."""
    sq, sk, sv = g.shape[q], g.shape[k], g.shape[v]
    if sq[-1] != sk[-1]:
        raise ShapeMismatchError(f"attention: Q feature dim {sq[-1]} != K feature dim {sk[-1]}")
    if sk[:-1] != sv[:-1] or sq[:-2] != sk[:-2]:
        raise ShapeMismatchError(f"attention: Q {sq}, K {sk} and V {sv} disagree in batch or length")
    swap = (*range(len(sk) - 2), len(sk) - 1, len(sk) - 2)
    return g.smul(q, 1.0 / np.sqrt(sq[-1])), g.permute(k, swap)


def build_attention(g: Tape, q: int, k: int, v: int, lift: str = "abs") -> int:
    """Scaled dot-product attention of Q (..., Lq, d) over K (..., Lk, d)
    and V (..., Lk, dv): one sequence (rank 2) or a stack of them.

    Scores are Q K^T / sqrt(d); the softmax runs on the lifted (real)
    scores and the resulting real weights mix V.  The leading axes run as
    the batch of one ``attend`` op."""
    qs, kt = _queries_and_keys(g, q, k, v)
    lead = g.shape[q][:-2]
    if len(lead) == 1:
        return g.attend(qs, kt, v, lift)
    b = int(np.prod(lead))
    out = g.attend(*(g.reshape(x, (b,) + g.shape[x][-2:]) for x in (qs, kt, v)), lift)
    return g.reshape(out, lead + g.shape[out][1:])


def build_mha(g: Tape, q2: int, k2: int, v2: int, n: int, wq: int, wk: int, wv: int, wo: int,
              n_heads: int, lift: str = "abs") -> int:
    """Multi-head attention within each of N sequences held as (N*L, d)
    rows: projections, attention of all heads as one batch of n_heads * N,
    concat, W^O.  Returns (N*Lq, d) rows."""
    (mq, d), sk, sv = g.raw(q2).shape, g.raw(k2).shape, g.raw(v2).shape
    if mq % n or sk[0] % n or sk != (sk[0], d) or sv != sk:
        raise ShapeMismatchError(f"mha: Q rows {mq}, K {sk} and V {sv} are not {n} sequences of width {d}")
    if g.raw(wq).shape != (d, d) or g.raw(wk).shape != (d, d) or g.raw(wv).shape != (d, d):
        raise ShapeMismatchError("mha: projection matrices must be (d, d)")
    if d % n_heads != 0:
        raise ShapeMismatchError(f"mha: feature dim {d} not divisible by n_heads {n_heads}")
    lq, lk, h, dh = mq // n, sk[0] // n, n_heads, d // n_heads

    def heads(x2: int, w: int, l: int, axes: tuple[int, ...]) -> int:
        # (n*l, d) @ W, split into (n, l, h, dh) and moved to head-major
        # order: column block k*dh .. (k+1)*dh of W is head k's projection
        p = g.permute(g.reshape(g.matmul(x2, w), (n, l, h, dh)), axes)
        return g.reshape(p, (h * n,) + g.raw(p).shape[2:])

    qh = g.smul(heads(q2, wq, lq, (2, 0, 1, 3)), 1.0 / np.sqrt(dh))
    out = g.attend(qh, heads(k2, wk, lk, (2, 0, 3, 1)), heads(v2, wv, lk, (2, 0, 1, 3)), lift)
    merged = g.permute(g.reshape(out, (h, n, lq, dh)), (1, 2, 0, 3))
    return g.matmul(g.reshape(merged, (n * lq, d)), wo)


def build_norm(g: Tape, x2: int, gamma: int, kappa: int, eps: float) -> int:
    """Per-channel normalization of (M, C) rows: subtract each column's
    complex mean, divide by sqrt(E|x - mean|^2 + eps), scale by gamma,
    shift by kappa (both (C,))."""
    if eps < 0:
        raise ConfigError(f"norm eps must be >= 0, got {eps}")
    m, c = g.raw(x2).shape
    mu = g.smul(g.sum_to(x2, (1, c)), 1.0 / m)
    xc = g.sub(x2, mu)
    var = g.smul(g.sum_to(g_abs2(g, xc), (1, c)), 1.0 / m)
    denom = g.sqrt(g.add(var, g.const(np.full((1, c), eps, dtype=_C))))
    return g.add(g.mul(g.div(xc, denom), gamma), kappa)


def build_act(g: Tape, x: int, kind: str) -> int:
    """Activation applied independently to real and imaginary parts."""
    if kind == "crelu":
        return g.crelu(x)
    if kind not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {kind!r}")
    one = g.const(1.0)

    def real_af(u: int) -> int:
        if kind == "csigmoid":
            return g.div(one, g.add(one, g.exp(g.neg(u))))
        e = g.exp(g.smul(u, 2.0))  # tanh(u) = (e^{2u} - 1) / (e^{2u} + 1)
        return g.div(g.sub(e, one), g.add(e, one))

    return g.add(real_af(g.re(x)), g.smul(real_af(g.im(x)), 1j))


def build_cross_entropy(g: Tape, logprobs: int, labels: Sequence[int]) -> int:
    """Mean negative log-likelihood of integer labels under (N, C) log-probs."""
    n, c = g.raw(logprobs).shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), list(labels)] = 1.0
    picked = g_sum(g, g.mul(logprobs, g.const(onehot)))
    return g.smul(picked, -1.0 / n)


# ---------------------------------------------------------------------------
# the recognition network
# ---------------------------------------------------------------------------

def frames_to_input(frames: Sequence[CTensor], arch: ArchConfig) -> np.ndarray:
    """Stack frames into the time-major network input block (N, frame_len,
    C_in).

    Complex mode feeds one complex channel; real mode feeds two real
    channels (real and imaginary parts) so parameter counts stay
    comparable between the two variants.
    """
    n = len(frames)
    out = np.zeros((n, arch.frame_len, arch.in_channels), dtype=_C)
    for i, f in enumerate(frames):
        s = f.numpy().reshape(-1)
        if s.size != arch.frame_len:
            raise ShapeMismatchError(f"frame {i} has {s.size} samples, expected {arch.frame_len}")
        if arch.real_input:
            out[i, :, 0] = s.real
            out[i, :, 1] = s.imag
        else:
            out[i, :, 0] = s
    return out


def build_network(g: Tape, x3: int, params: Mapping[str, int], arch: ArchConfig) -> int:
    """Record the full network; returns (N, n_classes) real log-probs.

    ``params`` maps parameter names to tape node ids (see ``init_params``
    for the naming scheme).  Features stay in time-major rows (N*T, C)
    from the embedding to the FC block.
    """
    n = g.raw(x3).shape[0]
    t = arch.frame_len
    c = arch.conv_channels

    # embedding block: pointwise conv lifting input channels to C
    feats = build_cconv1d(g, x3, params["embed.A"], params["embed.b"], stride=1)

    # conv blocks: conv -> norm -> activation
    for i in range(arch.conv_blocks):
        name = f"conv{i}"
        feats = build_cconv1d(g, g.reshape(feats, (n, t, c)), params[f"{name}.A"], params[f"{name}.b"],
                              stride=arch.conv_stride)
        t = (t - arch.conv_kernel) // arch.conv_stride + 1
        feats = build_norm(g, feats, params[f"{name}.gamma"], params[f"{name}.kappa"], arch.norm_eps)
        feats = build_act(g, feats, arch.activation)

    if arch.use_attention:
        d = arch.attn_dim
        rows = build_cfc(g, feats, params["attn_in.W"], params["attn_in.b"])
        attn = build_mha(g, rows, rows, rows, n,
                         params["attn.wq"], params["attn.wk"], params["attn.wv"],
                         params["attn.wo"], arch.n_heads, arch.softmax_lift)
        h = g.reshape(attn, (n, t * d))
    else:
        h = g.reshape(feats, (n, t * c))

    for i in range(arch.fc_blocks):
        name = f"fc{i}"
        h = build_cfc(g, h, params[f"{name}.W"], params[f"{name}.b"])
        h = build_norm(g, h, params[f"{name}.gamma"], params[f"{name}.kappa"], arch.norm_eps)
        h = build_act(g, h, arch.activation)

    logits = build_cfc(g, h, params["head.W"], params["head.b"])
    return build_log_softmax_last(g, logits, arch.softmax_lift)


def init_params(arch: ArchConfig, rng: np.random.Generator) -> dict[str, CTensor]:
    """Random parameters: real and imaginary parts drawn independently from
    a zero-mean uniform sized so that E|w|^2 = 1/fan_in.  Real-input mode
    keeps imaginary parts at zero, doubling the per-part variance to
    preserve E|w|^2.

    Biases are drawn the same way (not zeroed): the relu-style activation
    zeroes whole feature vectors with positive probability, and zero
    biases would then park attention scores exactly at the modulus kink,
    where the gradient map is discontinuous."""

    def weight(shape: tuple[int, ...], fan_in: int) -> CTensor:
        if arch.real_input:
            a = np.sqrt(3.0 / fan_in)
            w = rng.uniform(-a, a, size=shape).astype(np.float64)
            return CTensor(w.astype(_C))
        a = np.sqrt(3.0 / (2.0 * fan_in))
        w = rng.uniform(-a, a, size=shape) + 1j * rng.uniform(-a, a, size=shape)
        return CTensor(w)

    c = arch.conv_channels
    k = arch.conv_kernel
    params: dict[str, CTensor] = {}
    params["embed.A"] = weight((c, arch.in_channels, 1), arch.in_channels)
    params["embed.b"] = weight((c,), arch.in_channels)
    for i in range(arch.conv_blocks):
        params[f"conv{i}.A"] = weight((c, c, k), c * k)
        params[f"conv{i}.b"] = weight((c,), c * k)
        params[f"conv{i}.gamma"] = CTensor.full((c,), 1.0)
        params[f"conv{i}.kappa"] = CTensor.zeros((c,))
    if arch.use_attention:
        d = arch.attn_dim
        params["attn_in.W"] = weight((c, d), c)
        params["attn_in.b"] = weight((d,), c)
        for nm in ("wq", "wk", "wv", "wo"):
            params[f"attn.{nm}"] = weight((d, d), d)
    dim = arch.feature_dim()
    for i in range(arch.fc_blocks):
        out = arch.fc_hidden
        params[f"fc{i}.W"] = weight((dim, out), dim)
        params[f"fc{i}.b"] = weight((out,), dim)
        params[f"fc{i}.gamma"] = CTensor.full((out,), 1.0)
        params[f"fc{i}.kappa"] = CTensor.zeros((out,))
        dim = out
    params["head.W"] = weight((dim, arch.n_classes), dim)
    params["head.b"] = weight((arch.n_classes,), dim)
    return params


def param_count(params: Mapping[str, CTensor]) -> int:
    return sum(t.size for t in params.values())


# ---------------------------------------------------------------------------
# eager wrappers (public layer signatures)
# ---------------------------------------------------------------------------

def cconv1d(x: CTensor, a: CTensor, b: CTensor, stride: int = 1) -> CTensor:
    """Valid complex convolution of (C_in, T) with kernels (C_out, C_in, K)."""
    if x.rank != 2 or a.rank != 3:
        raise ShapeMismatchError(f"cconv1d: need x rank-2 and A rank-3, got {x.rank} and {a.rank}")
    g = evaluator()
    x3 = g.const(x.numpy().T[None])
    out = build_cconv1d(g, x3, g.const(a), None if b is None else g.const(b), stride)
    return g.value(g.permute(out, (1, 0)))


def cfc(x: CTensor, w: CTensor, b: CTensor) -> CTensor:
    """Complex linear transform of a vector: out = W^T x + b."""
    if x.rank != 1 or w.rank != 2:
        raise ShapeMismatchError(f"cfc: need x rank-1 and W rank-2, got {x.rank} and {w.rank}")
    g = evaluator()
    x2 = g.reshape(g.const(x), (1, x.size))
    out = build_cfc(g, x2, g.const(w), None if b is None else g.const(b))
    return g.value(out).reshape((w.shape[1],))


def c_softmax(x: CTensor, lift: str = "abs") -> CTensor:
    """Real softmax of the lifted input; rows for rank-2, whole vector for rank-1."""
    if x.size == 0:
        raise ShapeMismatchError("c_softmax: empty input")
    if lift not in LIFTS:
        raise ConfigError(f"c_softmax: lift must be one of {LIFTS}, got {lift!r}")
    if x.rank not in (1, 2):
        raise ShapeMismatchError(f"c_softmax: need rank-1 or rank-2 input, got rank {x.rank}")
    g = evaluator()
    return g.value(g_softmax_last(g, g.const(x), lift))


def c_attention(q: CTensor, k: CTensor, v: CTensor, lift: str = "abs",
                return_weights: bool = False):
    """Single-sequence attention over rank-2 Q (Lq, d), K (Lk, d), V (Lk, dv)."""
    if q.rank != 2 or k.rank != 2 or v.rank != 2:
        raise ShapeMismatchError("c_attention: Q, K, V must be rank-2")
    g = evaluator()
    q, k, v = g.const(q), g.const(k), g.const(v)
    out = g.value(build_attention(g, q, k, v, lift))
    if not return_weights:
        return out
    return out, g.value(g_softmax_last(g, g.matmul(*_queries_and_keys(g, q, k, v)), lift))


def c_mha(q: CTensor, k: CTensor, v: CTensor, params: MhaParams, lift: str = "abs") -> CTensor:
    """Multi-head attention over rank-2 Q, K, V of feature width d."""
    if q.rank != 2 or k.rank != 2 or v.rank != 2:
        raise ShapeMismatchError("c_mha: Q, K, V must be rank-2")
    g = evaluator()
    out = build_mha(g, g.const(q), g.const(k), g.const(v), 1, g.const(params.wq), g.const(params.wk),
                    g.const(params.wv), g.const(params.wo), params.n_heads, lift)
    return g.value(out)


def c_norm(x: CTensor, gamma: CTensor, kappa: CTensor, eps: float = 1e-5) -> CTensor:
    """Per-channel complex normalization of (C, M); rank-1 input is one channel."""
    g = evaluator()
    if x.rank == 1:
        x2 = g.reshape(g.const(x), (x.size, 1))
    elif x.rank == 2:
        x2 = g.permute(g.const(x), (1, 0))
    else:
        raise ShapeMismatchError(f"c_norm: need rank-1 or rank-2 input, got rank {x.rank}")
    c = g.raw(x2).shape[1]
    ga = g.const(gamma if gamma.rank == 1 else gamma.reshape((1,)))
    ka = g.const(kappa if kappa.rank == 1 else kappa.reshape((1,)))
    if g.raw(ga).shape != (c,) or g.raw(ka).shape != (c,):
        raise ShapeMismatchError(f"c_norm: gamma/kappa must have {c} channels")
    out = build_norm(g, x2, ga, ka, eps)
    if x.rank == 1:
        return g.value(out).reshape((x.size,))
    return g.value(g.permute(out, (1, 0)))


def c_act(x: CTensor, kind: str = "crelu") -> CTensor:
    """Activation applied to real and imaginary parts independently."""
    g = evaluator()
    return g.value(build_act(g, g.const(x), kind))


def camel_forward(frame: CTensor, params: Mapping[str, CTensor], arch: ArchConfig) -> CTensor:
    """Log class probabilities of one frame shaped (1, frame_len).

    The normalization layers use the frame's own statistics (a batch of
    one; the FC norm then degenerates to its shift parameter).
    """
    g = evaluator()
    x3 = g.const(frames_to_input([frame], arch))
    consts = {name: g.const(t) for name, t in params.items()}
    lp = build_network(g, x3, consts, arch)
    return g.value(lp).reshape((arch.n_classes,))
