"""Finite-difference oracle suite over every tape primitive and layer.

Each case builds a real scalar loss from leaf inputs, differentiates it on
the tape, and compares the steepest-ascent direction against central
differences on the real and imaginary parts of every input element.  The
differenced losses are only evaluated, so they run on an evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ctensor import CTensor
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
    build_softmax_last,
    frames_to_input,
    init_params,
)
from .wirtinger import Tape, backward, evaluator, fd_complex_gradient, g_re, g_sum, rel_error

_C = np.complex128

REL_TOL = 1e-5
ABS_FLOOR = 1e-8


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
    return g_re(g, g_sum(g, g.mul(c, out)))


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
            got = 2.0 * cots.wrt_conj(leaf).numpy()

            def f(arr, n=n):
                vals = dict(inputs)
                vals[n] = arr
                ev = evaluator()
                consts = {m: ev.const(v) for m, v in vals.items()}
                hr = np.random.default_rng(np.random.SeedSequence((seed, k, 1)))
                return float(ev.raw(case.build_loss(ev, consts, hr)).real)

            fd = fd_complex_gradient(f, inputs[n])
            worst = max(worst, rel_error(got, fd, REL_TOL, ABS_FLOOR))
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
        lambda g, lv, rng: _head(g, build_softmax_last(g, lv["x"], lift), rng),
    )


def _act_case(kind: str) -> GradCase:
    # keep clear of the half-plane boundaries where crelu has kinks
    def make_inputs(rng):
        z = _rand(rng, 2, 3)
        z = np.where(np.abs(z.real) < 0.1, z + np.sign(z.real + 1e-12) * 0.2, z)
        z = np.where(np.abs(z.imag) < 0.1, z + 1j * np.sign(z.imag + 1e-12) * 0.2, z)
        return {"x": z}

    return GradCase(f"c_act[{kind}]",
                    make_inputs,
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


def _attend_case(lift: str) -> GradCase:
    # three (2 x 4) score blocks: enough for three chunks when each chunk
    # holds one block
    return GradCase(
        f"attend[lift={lift}]",
        lambda rng: {"q": _rand(rng, 3, 2, 3), "kt": _rand(rng, 3, 3, 4), "v": _rand(rng, 3, 4, 2)},
        lambda g, lv, rng: _head(g, g.attend(lv["q"], lv["kt"], lv["v"], lift), rng),
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
        _elementwise_case("exp", Tape.exp),
        _elementwise_case("log", Tape.log, off_zero=True),
        _elementwise_case("sqrt", Tape.sqrt, off_zero=True),
        _elementwise_case("cabs", Tape.cabs, off_zero=True),
        _elementwise_case("crelu", Tape.crelu, off_zero=True),
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
        *(_attend_case(lift) for lift in LIFTS),
        _attention_case(),
        _mha_case(),
        _norm_case(),
        _act_case("crelu"),
        _act_case("ctanh"),
        _act_case("csigmoid"),
        _forward_case(),
    ]
    return cases
