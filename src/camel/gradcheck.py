"""Numerical oracles for the tape, and the oracle suite over every tape
primitive and layer.

The oracles check ``wirtinger`` from outside it: central differences
(:func:`fd_complex_gradient`) and the Cauchy-Riemann checker
(:func:`cr_check`), which read one central-difference loop
(:func:`fd_jacobians`), and the derivative cost comparison of Lemma 1
(:func:`opcount_compare`).

Each suite case builds a real scalar loss from leaf inputs, differentiates
it on the tape, and compares the steepest-ascent direction against central
differences on the real and imaginary parts of every input element.  The
differenced losses are only evaluated, so they run on an evaluator.  A
non-finite gradient or difference fails its case with error ``inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ctensor import CTensor, ShapeMismatchError
from .layers import (
    LIFTS,
    ArchConfig,
    build_act,
    build_attention,
    build_cconv1d,
    build_cfc,
    build_cross_entropy,
    build_mha,
    build_network,
    build_norm,
    frames_to_input,
    init_params,
)
from .wirtinger import Tape, backward, complex_gradient, evaluator, g_softmax_last, g_sum

_C = np.complex128

FD_STEP = 1e-6
REL_TOL = 1e-5
ABS_FLOOR = 1e-8


class NonAnalyticChainError(ValueError):
    """Raised when an operation-count comparison meets a non-analytic stage."""


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def fd_jacobians(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float = FD_STEP):
    """Central-difference Jacobians of ``fn`` at ``x``: the complex d/dRe x
    and d/dIm x of every output element, each shaped (outputs, elements).
    Column j is (fn(x + s e_j) - fn(x - s e_j)) / 2h with the step s = h,
    then s = ih.  A non-finite output raises FloatingPointError."""
    x = np.asarray(x, dtype=_C)
    flat = x.ravel()
    jac = np.zeros((2, 0, 0), dtype=_C)  # sized at the first output
    for j in range(flat.size):
        for k, step in enumerate((h, 1j * h)):
            xp = flat.copy()
            xm = flat.copy()
            xp[j] += step
            xm[j] -= step
            yp = np.asarray(fn(xp.reshape(x.shape)), dtype=_C).ravel()
            ym = np.asarray(fn(xm.reshape(x.shape)), dtype=_C).ravel()
            if not (np.all(np.isfinite(yp)) and np.all(np.isfinite(ym))):
                raise FloatingPointError("finite differences: the function gave a non-finite output")
            if not jac.size:
                jac = np.zeros((2, yp.size, flat.size), dtype=_C)
            jac[k, :, j] = (yp - ym) / (2.0 * h)
    return jac[0], jac[1]


def fd_real_loss_partials(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = FD_STEP):
    """Central-difference partials of a real scalar f wrt Re(x) and Im(x)."""
    shape = np.shape(x)
    dre, dim = fd_jacobians(f, x, h)
    return dre.real.reshape(shape), dim.real.reshape(shape)


def fd_complex_gradient(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Finite-difference estimate of the steepest-ascent direction 2 dL/dz*."""
    dre, dim = fd_real_loss_partials(f, x, h)
    return dre + 1j * dim


def fd_wirtinger_pair(f, x: np.ndarray, h: float = FD_STEP):
    """Finite-difference estimates of (dL/dz, dL/dz*) for a real loss."""
    dre, dim = fd_real_loss_partials(f, x, h)
    return (dre - 1j * dim) / 2.0, (dre + 1j * dim) / 2.0


def rel_error(got: np.ndarray, want: np.ndarray, rel: float = REL_TOL, floor: float = ABS_FLOOR) -> float:
    """Largest elementwise error, scaled so that a return value <= ``rel``
    is exactly the acceptance test |got - want| <= max(rel*|want|, floor).
    A non-finite element on either side gives ``inf``."""
    got = np.asarray(got)
    want = np.asarray(want)
    denom = np.maximum(np.abs(want), floor / rel)
    err = float(np.max(np.abs(got - want) / denom, initial=0.0))
    return err if math.isfinite(err) else math.inf


# ---------------------------------------------------------------------------
# Cauchy-Riemann checking
# ---------------------------------------------------------------------------

def cr_jacobian_blocks(fn: Callable[[CTensor], CTensor], point: CTensor, h: float = FD_STEP):
    """Central-difference estimates of the four real Jacobian blocks
    (dRe f/dRe x, dIm f/dIm x, dRe f/dIm x, dIm f/dRe x)."""
    dre, dim = fd_jacobians(lambda x: fn(CTensor._wrap(x)).numpy(), point.numpy(), h)
    return dre.real, dim.imag, dim.real, dre.imag


def cr_check(fn: Callable[[CTensor], CTensor], point: CTensor, tol: float, h: float = FD_STEP) -> bool:
    """True iff fn satisfies the Cauchy-Riemann equalities at ``point``:
    dRe f/dRe x == dIm f/dIm x and dRe f/dIm x == -dIm f/dRe x, elementwise
    within ``tol``."""
    drr, dii, dri, dir_ = cr_jacobian_blocks(fn, point, h)
    return bool(np.max(np.abs(drr - dii), initial=0.0) <= tol
                and np.max(np.abs(dri + dir_), initial=0.0) <= tol)


# ---------------------------------------------------------------------------
# derivative cost comparison: single-term complex chain vs stacked-real chain
# ---------------------------------------------------------------------------

class AnalyticChain:
    """Composite of elementwise analytic stages acting on an m-vector.

    Stage kinds: ("affine", a, b) computes a*z + b; ("square",) computes
    z**2; ("conj",) is deliberately non-analytic and only exists so that
    rejection can be exercised.
    """

    def __init__(self, m: int, stages: list[tuple]):
        self.m = m
        self.stages = stages

    @property
    def analytic(self) -> bool:
        return all(s[0] != "conj" for s in self.stages)

    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """Stage inputs, one per stage (last entry feeds the final stage)."""
        zs = [x]
        z = x
        for s in self.stages:
            if s[0] == "affine":
                z = s[1] * z + s[2]
            elif s[0] == "square":
                z = z * z
            elif s[0] == "conj":
                z = np.conj(z)
            else:
                raise NonAnalyticChainError(f"unknown stage {s[0]!r}")
            zs.append(z)
        return zs[:-1]

    def local_derivative(self, k: int, z_in: np.ndarray) -> np.ndarray:
        s = self.stages[k]
        if s[0] == "affine":
            return np.broadcast_to(s[1], z_in.shape).astype(_C)
        if s[0] == "square":
            return 2.0 * z_in
        raise NonAnalyticChainError("derivative of a non-analytic stage")


def make_analytic_chain(m: int, depth: int, rng: np.random.Generator) -> AnalyticChain:
    """Chain with ``depth`` derivative compositions (depth + 1 stages)."""
    stages: list[tuple] = []
    for k in range(depth + 1):
        if k % 2 == 1:
            stages.append(("square",))
        else:
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            stages.append(("affine", a * 0.5, b * 0.1))
    return AnalyticChain(m, stages)


def opcount_compare(chain: AnalyticChain, m: int, x: np.ndarray | None = None):
    """Count scalar multiply-accumulates for both derivative routes.

    Route one composes the diagonal complex derivatives with the
    single-term chain rule (4 MACs per element per composition).  Route
    two stacks real and imaginary parts and composes 2x2 real Jacobian
    blocks (8 MACs per element per composition).  Returns
    (count_cd, count_iq, deriv_cd, deriv_iq) where the derivative vectors
    must agree for analytic chains.
    """
    if m != chain.m:
        raise ShapeMismatchError(f"opcount_compare: chain is over m={chain.m}, got m={m}")
    if not chain.analytic:
        raise NonAnalyticChainError("opcount_compare requires an analytic chain")
    if x is None:
        x = np.full(m, 0.3 + 0.2j, dtype=_C)
    stage_in = chain.forward(x)
    locs = [chain.local_derivative(k, stage_in[k]) for k in range(len(chain.stages))]

    count_cd = 0
    d = locs[0].copy()
    for loc in locs[1:]:
        for i in range(m):
            a, b = d[i].real, d[i].imag
            c, s = loc[i].real, loc[i].imag
            re = c * a - s * b
            im = c * b + s * a
            count_cd += 4
            d[i] = re + 1j * im

    count_iq = 0
    blocks = np.zeros((m, 2, 2))
    for i in range(m):
        c, s = locs[0][i].real, locs[0][i].imag
        blocks[i] = [[c, s], [-s, c]]
    for loc in locs[1:]:
        for i in range(m):
            c, s = loc[i].real, loc[i].imag
            jk = np.array([[c, s], [-s, c]])
            prod = np.zeros((2, 2))
            for r in range(2):
                for col in range(2):
                    prod[r, col] = jk[r, 0] * blocks[i][0, col] + jk[r, 1] * blocks[i][1, col]
                    count_iq += 2
            blocks[i] = prod
    d_iq = blocks[:, 0, 0] + 1j * blocks[:, 0, 1]
    return count_cd, count_iq, d, d_iq


# ---------------------------------------------------------------------------
# the oracle suite
# ---------------------------------------------------------------------------

@dataclass
class GradCase:
    """One named oracle case: inputs plus a loss builder over their leaves."""

    name: str
    make_inputs: Callable[[np.random.Generator], dict[str, np.ndarray]]
    build_loss: Callable[[Tape, dict[str, int], np.random.Generator], int]


@dataclass
class CaseResult:
    name: str
    max_err: float
    instances: int

    @property
    def ok(self) -> bool:
        return self.max_err <= REL_TOL


def _rand(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_off_zero(rng, *shape) -> np.ndarray:
    z = _rand(rng, *shape)
    small = np.abs(z) < 0.3
    return z + small * (0.5 + 0.5j)


def _head(g: Tape, out: int, rng: np.random.Generator) -> int:
    """Real scalar readout that exercises both output channels."""
    c = g.const(_rand(rng, *g.raw(out).shape))
    return g.re(g_sum(g, g.mul(c, out)))


def _elementwise_case(name, op, shape=(2, 3), off_zero=False, n_inputs=1):
    def make_inputs(rng):
        gen = _rand_off_zero if off_zero else _rand
        return {f"x{i}": gen(rng, *shape) for i in range(n_inputs)}

    def build_loss(g, leaves, rng):
        out = op(g, *[leaves[f"x{i}"] for i in range(n_inputs)])
        return _head(g, out, rng)

    return GradCase(name, make_inputs, build_loss)


def run_case(case: GradCase, instances: int = 20, seed: int = 0) -> CaseResult:
    worst = 0.0
    for k in range(instances):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        inputs = case.make_inputs(rng)
        head_rng = np.random.default_rng(np.random.SeedSequence((seed, k, 1)))

        g = Tape()
        leaves = {n: g.leaf(v) for n, v in inputs.items()}
        loss_id = case.build_loss(g, leaves, head_rng)
        cots = backward(g, loss_id)

        for n, leaf in leaves.items():
            got = complex_gradient(g, loss_id, leaf, cots).numpy()

            def f(arr, n=n):
                vals = dict(inputs)
                vals[n] = arr
                ev = evaluator()
                consts = {m: ev.const(v) for m, v in vals.items()}
                hr = np.random.default_rng(np.random.SeedSequence((seed, k, 1)))
                return float(ev.raw(case.build_loss(ev, consts, hr)).real)

            try:
                err = rel_error(got, fd_complex_gradient(f, inputs[n]), REL_TOL, ABS_FLOOR)
            except FloatingPointError:  # the loss is not finite at a differenced point
                err = math.inf
            worst = max(worst, err)
    return CaseResult(case.name, worst, instances)


def run_suite(cases: Sequence[GradCase], instances: int = 20, seed: int = 0) -> list[CaseResult]:
    return [run_case(c, instances, seed) for c in cases]


# ---------------------------------------------------------------------------
# the default registry
# ---------------------------------------------------------------------------

def _toy_arch() -> ArchConfig:
    return ArchConfig(n_classes=2, frame_len=8, conv_channels=2, conv_stride=2,
                      attn_dim=2, n_heads=1, fc_hidden=3)


def _softmax_case(lift: str) -> GradCase:
    return GradCase(
        f"c_softmax[{lift}]",
        lambda rng: {"x": _rand_off_zero(rng, 2, 4)},
        lambda g, lv, rng: _head(g, g_softmax_last(g, lv["x"], lift), rng),
    )


def _off_axes(z: np.ndarray) -> np.ndarray:
    """``z`` moved clear of the half-plane boundaries where crelu has kinks."""
    z = np.where(np.abs(z.real) < 0.1, z + np.sign(z.real + 1e-12) * 0.2, z)
    return np.where(np.abs(z.imag) < 0.1, z + 1j * np.sign(z.imag + 1e-12) * 0.2, z)


def _act_case(kind: str) -> GradCase:
    return GradCase(f"c_act[{kind}]",
                    lambda rng: {"x": _off_axes(_rand(rng, 2, 3))},
                    lambda g, lv, rng: _head(g, build_act(g, lv["x"], kind), rng))


def _conv_case() -> GradCase:
    def build(g, lv, rng):
        out = build_cconv1d(g, lv["x"], lv["A"], lv["b"], stride=1)
        return _head(g, g.permute(out, (1, 0)), rng)  # channel-major, (C_out, N*T_out)

    return GradCase(
        "cconv1d",
        # x is drawn as (N, C_in, T) and read time-major, (N, T, C_in)
        lambda rng: {"x": _rand(rng, 2, 2, 8).swapaxes(1, 2), "A": _rand(rng, 3, 2, 3), "b": _rand(rng, 3)},
        build,
    )


def _fc_case() -> GradCase:
    return GradCase(
        "cfc",
        lambda rng: {"x": _rand(rng, 3, 4), "W": _rand(rng, 4, 3), "b": _rand(rng, 3)},
        lambda g, lv, rng: _head(g, build_cfc(g, lv["x"], lv["W"], lv["b"]), rng),
    )


def _attention_case() -> GradCase:
    return GradCase(
        "c_attention",
        lambda rng: {"q": _rand(rng, 2, 3, 2), "k": _rand(rng, 2, 3, 2), "v": _rand(rng, 2, 3, 2)},
        lambda g, lv, rng: _head(g, build_attention(g, lv["q"], lv["k"], lv["v"], "abs"), rng),
    )


def _attend_case(lift: str, heads: int) -> GradCase:
    # three sequences of 2 queries over 4 keys, held as rows: enough for
    # three chunks when each chunk holds one sequence
    return GradCase(
        f"attend[lift={lift}]" if heads == 1 else f"attend[lift={lift},heads={heads}]",
        lambda rng: {"q": _rand(rng, 6, 4), "k": _rand(rng, 12, 4), "v": _rand(rng, 12, 2)},
        lambda g, lv, rng: _head(g, g.attend(lv["q"], lv["k"], lv["v"], 3, heads, lift), rng),
    )


def _mha_case() -> GradCase:
    def build(g, lv, rng):
        out = build_mha(g, lv["x"], lv["x"], lv["x"], 2, lv["wq"], lv["wk"], lv["wv"], lv["wo"],
                        n_heads=2, lift="abs")
        return _head(g, out, rng)

    return GradCase(
        "c_mha",
        # two sequences of length 3, held as rows
        lambda rng: {"x": _rand(rng, 6, 4), "wq": _rand(rng, 4, 4), "wk": _rand(rng, 4, 4),
                     "wv": _rand(rng, 4, 4), "wo": _rand(rng, 4, 4)},
        build,
    )


def _norm_case() -> GradCase:
    return GradCase(
        "c_norm",
        lambda rng: {"x": _rand(rng, 2, 5), "gamma": _rand(rng, 2), "kappa": _rand(rng, 2)},
        lambda g, lv, rng: _head(g, g.permute(build_norm(g, g.permute(lv["x"], (1, 0)), lv["gamma"],
                                                         lv["kappa"], 1e-5), (1, 0)), rng),
    )


def _norm_op_case() -> GradCase:
    # eps = 1e-2, and the last column's variance is about 2e-6, far below
    # it, so s there is nearly sqrt(eps)
    return GradCase("norm",
                    lambda rng: {"x": _rand(rng, 5, 3) * np.array([1.0, 1.0, 1e-3])},
                    lambda g, lv, rng: _head(g, g.norm(lv["x"], 1e-2), rng))


def _forward_case() -> GradCase:
    arch = _toy_arch()

    def make_inputs(rng):
        params = init_params(arch, rng)
        return {n: t.numpy().copy() for n, t in params.items()}

    def build(g, lv, rng):
        frames = [CTensor(_rand(rng, arch.frame_len)) for _ in range(2)]
        x3 = g.const(frames_to_input(frames, arch))
        lp = build_network(g, x3, lv, arch)
        return build_cross_entropy(g, lp, [0, 1])

    return GradCase("camel_forward", make_inputs, build)


BROADCAST_PATTERNS = {
    "row": ((2, 3), (3,)),
    "col": ((2, 3), (2, 1)),
    "scalar": ((2, 3), ()),
    "outer": ((2, 1), (1, 3)),
}
"""Operand shapes of the broadcasting cases: a bias row, a per-row
statistic, a scalar, and both operands broadcast."""

_BINARY = {"add": Tape.add, "sub": Tape.sub, "mul": Tape.mul, "mulc": Tape.mulc,
           "div": Tape.div, "mdiv": Tape.mdiv}


def _broadcast_case(op: str, pattern: str) -> GradCase:
    sa, sb = BROADCAST_PATTERNS[pattern]
    off_zero = op in ("div", "mdiv")

    def make_inputs(rng):
        gen = _rand_off_zero if off_zero else _rand
        return {"x0": gen(rng, *sa), "x1": gen(rng, *sb)}

    return GradCase(f"{op}[{pattern}]", make_inputs,
                    lambda g, lv, rng: _head(g, _BINARY[op](g, lv["x0"], lv["x1"]), rng))


def _real_operands_case() -> GradCase:
    # real nodes meet complex ones in mul, add and a matmul under ^H, so
    # the sweep takes the real part of what each real input gets
    def build(g, lv, rng):
        r, s = g.re(lv["x0"]), g.im(lv["x1"])
        m = g.matmul(g.matmul(r, lv["x1"], "b"), g.mul(s, lv["x0"]))
        q = g.div(g.exp(r), g.add(g.mul(s, s), g.const(1.0)))
        return _head(g, g.add(m, q), rng)

    return GradCase("real_operands", lambda rng: {"x0": _rand(rng, 2, 3), "x1": _rand(rng, 2, 3)}, build)


def _matmul_case(adj, sa, sb) -> GradCase:
    tags = ",".join([f"adj={adj}"] * (adj is not None) + [f"rank={len(sa)}"] * (len(sa) > 2))
    return GradCase(f"matmul[{tags}]" if tags else "matmul",
                    lambda rng: {"x0": _rand(rng, *sa), "x1": _rand(rng, *sb)},
                    lambda g, lv, rng: _head(g, g.matmul(lv["x0"], lv["x1"], adj), rng))


WINDOW_PATTERNS = ((3, 1), (3, 3), (3, 4), (1, 1))
"""(k, stride) of the window cases: overlapping, touching and gapped
windows, and single taps."""


def _window_case(k: int, stride: int) -> GradCase:
    return GradCase(f"window[k={k},stride={stride}]",
                    lambda rng: {"x0": _rand(rng, 2, 9, 2)},
                    lambda g, lv, rng: _head(g, g.window(lv["x0"], k, stride), rng))


def _unwindow_case(k: int, stride: int) -> GradCase:
    rows = 2 * ((9 - k) // stride + 1)
    return GradCase(f"unwindow[k={k},stride={stride}]",
                    lambda rng: {"x0": _rand(rng, rows, 2 * k)},
                    lambda g, lv, rng: _head(g, g.unwindow(lv["x0"], 9, k, stride), rng))


def default_cases() -> list[GradCase]:
    cases = [
        *(_elementwise_case(op, fn, off_zero=op in ("div", "mdiv"), n_inputs=2)
          for op, fn in _BINARY.items()),
        _elementwise_case("neg", Tape.neg),
        _elementwise_case("smul", lambda g, a: g.smul(a, 0.7 - 0.4j)),
        _elementwise_case("conj", Tape.conj),
        _elementwise_case("re", Tape.re),
        _elementwise_case("im", Tape.im),
        _real_operands_case(),
        _elementwise_case("exp", Tape.exp),
        _elementwise_case("log", Tape.log, off_zero=True),
        _elementwise_case("sqrt", Tape.sqrt, off_zero=True),
        _elementwise_case("cabs", Tape.cabs, off_zero=True),
        _elementwise_case("crelu", Tape.crelu, off_zero=True),
        GradCase("crelu[gated]",  # the gate, a second leaf off the axes, gets no adjoint
                 lambda rng: {"x0": _rand(rng, 2, 3), "x1": _off_axes(_rand(rng, 2, 3))},
                 lambda g, lv, rng: _head(g, g.crelu(lv["x0"], lv["x1"]), rng)),
        *(_broadcast_case(op, pattern) for op in _BINARY for pattern in BROADCAST_PATTERNS),
        _matmul_case(None, (2, 3), (3, 4)),
        _matmul_case("a", (3, 2), (3, 4)),
        _matmul_case("b", (2, 3), (4, 3)),
        _matmul_case(None, (2, 2, 3), (2, 3, 2)),
        _matmul_case("a", (2, 3, 2), (2, 3, 4)),
        _matmul_case("b", (2, 2, 3), (2, 4, 3)),
        _elementwise_case("reshape", lambda g, a: g.reshape(a, (3, 2))),
        _elementwise_case("permute", lambda g, a: g.permute(g.reshape(a, (1, 2, 3)), (2, 0, 1))),
        _elementwise_case("permute[axes=1,0]", lambda g, a: g.permute(a, (1, 0))),
        _elementwise_case("permute[axes=0,2,1]", lambda g, a: g.permute(g.reshape(a, (1, 2, 3)), (0, 2, 1))),
        _elementwise_case("sum_to", lambda g, a: g.sum_to(a, (1, 3))),
        _elementwise_case("expand", lambda g, a: g.expand(g.reshape(a, (2, 1, 3)), (2, 4, 3))),
        *(_window_case(k, stride) for k, stride in WINDOW_PATTERNS),
        *(_unwindow_case(k, stride) for k, stride in WINDOW_PATTERNS),
        _conv_case(),
        _fc_case(),
        _softmax_case("abs"),
        _softmax_case("re"),
        _softmax_case("im"),
        *(_attend_case(lift, heads) for heads in (1, 2) for lift in LIFTS),
        _attention_case(),
        _mha_case(),
        _norm_op_case(),
        _norm_case(),
        _act_case("crelu"),
        _act_case("ctanh"),
        _act_case("csigmoid"),
        _forward_case(),
    ]
    return cases
