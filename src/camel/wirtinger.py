"""Reverse-mode differentiation over complex tensors with one adjoint channel.

The chain rule for a non-holomorphic map u(z) has two terms,

    dL/dz*  =  dL/du* * conj(du/dz)  +  dL/du * du/dz*,

and for a real-valued loss dL/du = conj(dL/du*) at every node: the two
Wirtinger channels are conjugate mirrors.  So a sweep propagates one
adjoint per node, c = dL/du*, as c * conj(du/dz) + conj(c) * du/dz*.  Only
conj, the real lifts (re, im, cabs), crelu and the conjugated factor of the
conjugate-aware products have the second, antiholomorphic term: a lift's
adjoint is real, which folds both terms into one rule, and crelu is its own
pullback.  The steepest-ascent direction is ``2 * dL/dz*``, which is what
:func:`complex_gradient` returns.

A node that is real for every input holds its value in float64, and
``Tape.real`` flags it.  Its op makes it so: cabs, re and im always; a const
built from real data; crelu of a real operand; and add, sub, neg, mul,
mulc, div, mdiv, exp, matmul, attend, smul by a real scalar and the
structural ops when every operand is real (log and sqrt too, where no
entry is negative).  Mixed
operands promote as numpy does.  A real node's adjoint is float64 as well:
since u* = u, the chain rule through u reads c conj(du/dz) + conj(c) du/dz*
= 2 Re(c) du/dz*, so only Re c reaches a leaf.  The sweep takes that real
part where a pullback hands a real input a complex adjoint, which happens
where a real node meets a complex one (the real part of one matrix times
another, say), in recorded and graph-free sweeps alike, so no real node's
adjoint is complex.  Leaves, and every value handed out (``Tape.value``,
:func:`complex_gradient` and the leaf adjoints of :func:`backward_values`),
are complex128.  The softmax chain and the log-softmax head run in float64,
where numpy's exp is an order of magnitude cheaper than on complex128.

The op set is chosen so that adjoints need no conjugation or transposition
nodes of their own.  ``mulc(a, b) = a * conj(b)`` and the ``adj`` flag of
``matmul`` (a^H @ b or a @ b^H, BLAS op 'C') are the conjugate-aware
products: the adjoint of a @ b is c @ b^H, one node.  ``matmul`` multiplies
over the last two axes of operands of one rank >= 2 with equal leading
axes, so one op serves matrices and stacks of them.  Binary elementwise
ops broadcast as numpy does, and their pullbacks reduce over the broadcast
axes with ``sum_to``, whose adjoint is ``expand``; ``permute`` moves axes.
``window`` copies the convolution's patch rows out as strided slices, and
its adjoint ``unwindow`` adds them back; no op needs an index map.

``attend`` is softmax attention as one op: (B, Lq, d) scaled queries over
(B, d, Lk) keys mix (B, Lk, dv) values.  It runs :func:`g_attention`, the
chain of primitive ops (matmul, lift, minus the row maximum, exp, row
normalisation, matmul), which is written once and also serves the softmax
layers.  The batch runs in chunks of as many rows as fit one (rows, Lq,
Lk) complex block in :data:`ATTEND_CHUNK_BYTES`, 256 KiB, so no
(B, Lq, Lk) array outlives its chunk; every op of the chain acts per matrix
or per row, so chunks change no bit.  The pullback keeps nothing from the
forward pass (Chen et al., arXiv:1604.06174): it recomputes the weights
from q and kt and applies the chain's adjoint in closed form, written once
against the op methods.  A recording sweep records it over the whole
batch, so a later sweep differentiates it again; a graph-free sweep runs
it on the arrays of each chunk.

A real scalar loss reads as (L + L*)/2, so its sweep starts from the real
seed 1/2.  :func:`backward` returns one adjoint per node, dL/dz*, as a map
node id -> the node that holds it; :func:`complex_gradient` reads that map.
:func:`backward_graph` keeps the older (value, conj) pair API for
``perfbench``'s traced run only; a seed pair that is not real runs as two
real-seeded sweeps.

Both kinds of sweep run the same pullbacks, and visit node ids in
descending order: a pullback hands adjoints only to its node's inputs.
:func:`backward` records its own arithmetic on the same tape, which is
what makes exact second derivatives possible: a second sweep over the
extended tape differentiates the first gradient.  It runs the first sweep
of a Hessian product (:func:`hvp`, and each inner step of the exact
meta-gradient in ``meta``) and the two-term gradient of ``camel
toychain``.  :func:`backward_values` records nothing and keeps only the
adjoints of leaves, for the last sweep of a gradient, which nothing
differentiates again: the second sweep of a Hessian product
(:func:`hvp_sweep`), and in ``meta`` every support and query gradient.

A tape keeps each node's shape, and each op's pullback reads the values
``_READS`` names and only shapes and ``aux`` otherwise.  So
:meth:`Tape.release` can drop every value that no recorded pullback reads.
It is a function of the tape as it stands: each call marks the reads of
every node afresh, so what it drops does not depend on earlier calls.
:func:`backward_values` consumes the tape up to its loss: it releases
those values first and drops each node's value once it has pulled that
node back.  Leaves, consts and the loss keep theirs.  Reading a released
value, directly or as the operand of a new op, raises
:class:`ReleasedValueError`.

A forward pass that nothing differentiates runs on :func:`evaluator`, the
same op methods evaluated on arrays, so each intermediate is freed once
its last consumer has run: ``EpisodeTask.query_predictions`` (evaluation)
and the query losses of ``meta.meta_objective``, the
eager layer wrappers of ``layers``, and the finite-difference losses of
``gradcheck``.

The numerical oracles that check this engine live in ``gradcheck``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .ctensor import CTensor, ShapeMismatchError

_C = np.complex128
_R = np.float64

REAL_LOSS_TOL = 1e-12


class UnknownOpError(ValueError):
    """Raised for an op argument the tape does not define (a matmul ``adj``
    flag, a lift) or a node id that is not on the tape."""


class NonScalarLossError(ValueError):
    """Raised when backward is seeded from a non-scalar node."""


class NonRealLossError(ValueError):
    """Raised when backward is seeded from a loss with an imaginary part."""


class ReleasedValueError(ValueError):
    """Raised when reading the value of a node that the tape has released."""

    def __init__(self, nid: int, kind: str):
        super().__init__(f"node {nid} ({kind}) was released: no recorded pullback reads its value")
        self.nid, self.kind = nid, kind


def _as_node_value(x, dtype=None) -> np.ndarray:
    """``x`` as a node value: ``dtype``, or float64 for real data and
    complex128 otherwise."""
    v = x.numpy() if isinstance(x, CTensor) else np.asarray(x)
    v = v.astype(dtype or (_C if np.iscomplexobj(v) else _R), copy=False)
    return np.ascontiguousarray(v) if v.ndim else v.copy()


def _complex(v):
    """A value in complex storage, as every public return hands it out."""
    return v if v.dtype == _C else v.astype(_C)


def _conj(v):
    """np.conj, without a copy for real values."""
    return v if v.dtype != _C else np.conj(v)


def _principal(v):
    """The operand of log and sqrt: a real value with a negative entry is
    taken to complex storage, where the principal branch is complex."""
    return v.astype(_C) if v.dtype != _C and np.any(v < 0) else v


def _broadcasts(src: tuple[int, ...], dst: tuple[int, ...]) -> bool:
    """True iff shape ``src`` broadcasts to exactly ``dst``."""
    if len(src) > len(dst):
        return False
    for s, d in zip(src[::-1], dst[::-1]):
        if s != d and s != 1:
            return False
    return True


def _joint_shape(op: str, sa: tuple[int, ...], sb: tuple[int, ...]) -> tuple[int, ...]:
    """The shape two operands broadcast to, as numpy broadcasts them."""
    if sa == sb:
        return sa
    n = max(len(sa), len(sb))
    out = []
    for x, y in zip((1,) * (n - len(sa)) + sa, (1,) * (n - len(sb)) + sb):
        if x != y and x != 1 and y != 1:
            raise ShapeMismatchError(f"{op}: operand shapes do not broadcast, {sa} vs {sb}")
        out.append(y if x == 1 else x)
    return tuple(out)


def _window_len(op: str, t: int, k: int, stride: int) -> int:
    """Number of windows of length k, stride ``stride``, over t steps."""
    if not 1 <= k <= t or stride < 1:
        raise ShapeMismatchError(f"{op}: need 1 <= k <= T = {t} and stride >= 1, got k={k}, stride={stride}")
    return (t - k) // stride + 1


def _tap(kk: int, to: int, stride: int) -> slice:
    """The times that tap kk of each of ``to`` windows reads."""
    return slice(kk, kk + (to - 1) * stride + 1, stride)


ADJOINT_FLAGS = (None, "a", "b")
"""The ``adj`` flags of matmul: a @ b, a^H @ b and a @ b^H."""


class Tape:
    """Append-only record of a complex tensor computation.

    Node ids are list indices, so inputs always refer to earlier nodes and
    the tape is topologically ordered by construction.  A tape serves one
    forward pass; backward sweeps append their arithmetic to the same tape.
    A released node's value is None; its shape and its real flag stay.
    """

    __slots__ = ("kind", "inputs", "val", "shape", "real", "aux", "needs")

    def __init__(self):
        self.kind: list[str] = []
        self.inputs: list[tuple[int, ...]] = []
        self.val: list[np.ndarray | None] = []
        self.shape: list[tuple[int, ...]] = []
        self.real: list[bool] = []  # node -> value held in float64
        self.aux: list = []
        self.needs: list[bool] = []

    def __len__(self) -> int:
        return len(self.kind)

    def _push(self, kind: str, inputs: tuple[int, ...], val: np.ndarray, aux=None) -> int:
        needs = False
        for i in inputs:
            if self.needs[i]:
                needs = True
                break
        self.kind.append(kind)
        self.inputs.append(inputs)
        self.val.append(val)
        self.shape.append(val.shape)
        self.real.append(val.dtype != _C)
        self.aux.append(aux)
        self.needs.append(needs)
        return len(self.kind) - 1

    def _keep(self, a: int, va: np.ndarray) -> int:
        """The result of an op that leaves its operand as it is: the node."""
        return a

    # -- introspection ---------------------------------------------------

    def value(self, nid: int) -> CTensor:
        """Forward value of a node as a CTensor (complex storage)."""
        return CTensor._wrap(_complex(self.raw(nid)))

    def raw(self, nid: int) -> np.ndarray:
        v = self.val[nid]
        if v is None:
            raise ReleasedValueError(int(nid), self.kind[nid])
        return v

    # -- memory ------------------------------------------------------------

    def release(self, keep: Iterable[int] = (), end: int | None = None) -> None:
        """Drop the value of every node before ``end`` (default: every node)
        that no recorded pullback reads, except leaves, consts and ``keep``.
        A released node can no longer be an operand of a new op."""
        n = len(self.kind)
        read, needs = bytearray(n), self.needs
        for nid in range(n):
            reads = _READS.get(self.kind[nid]) if needs[nid] else None
            if reads is not None:
                ins, own, cross = reads
                inputs = self.inputs[nid]
                for pos in ins:
                    read[inputs[pos]] = 1
                if cross:
                    a, b = inputs
                    if needs[b]:
                        read[a] = 1
                    if needs[a]:
                        read[b] = 1
                if own:
                    read[nid] = 1
        keep = set(keep)
        for nid in range(n if end is None else end):
            if not (read[nid] or nid in keep or self.kind[nid] in ("leaf", "const")):
                self.val[nid] = None

    # -- terminals -------------------------------------------------------

    def leaf(self, value) -> int:
        """Differentiable input node, always in complex storage."""
        nid = self._push("leaf", (), _as_node_value(value, _C))
        self.needs[nid] = True
        return nid

    def const(self, value) -> int:
        """Non-differentiable constant node; real data stays real."""
        return self._push("const", (), _as_node_value(value))

    # -- elementwise -----------------------------------------------------

    def _operands(self, op: str, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """The values of a binary elementwise op's operands, which broadcast
        as numpy does."""
        va, vb = self.raw(a), self.raw(b)
        if va.shape != vb.shape:
            _joint_shape(op, va.shape, vb.shape)
        return va, vb

    def add(self, a: int, b: int) -> int:
        va, vb = self._operands("add", a, b)
        return self._push("add", (a, b), va + vb)

    def sub(self, a: int, b: int) -> int:
        va, vb = self._operands("sub", a, b)
        return self._push("sub", (a, b), va - vb)

    def neg(self, a: int) -> int:
        return self._push("neg", (a,), -self.raw(a))

    def mul(self, a: int, b: int) -> int:
        va, vb = self._operands("mul", a, b)
        return self._push("mul", (a, b), va * vb)

    def mulc(self, a: int, b: int) -> int:
        """a * conj(b): holomorphic in a, antiholomorphic in b."""
        va, vb = self._operands("mulc", a, b)
        return self._push("mulc", (a, b), va * _conj(vb))

    def div(self, a: int, b: int) -> int:
        va, vb = self._operands("div", a, b)
        return self._push("div", (a, b), va / vb)

    def smul(self, a: int, c: complex) -> int:
        """Multiply by a fixed (non-differentiable) complex scalar; a real
        scalar keeps a real node real."""
        c = complex(c)
        va = self.raw(a)
        return self._push("smul", (a,), va * (c.real if c.imag == 0 and va.dtype != _C else _C(c)), c)

    def conj(self, a: int) -> int:
        """Complex conjugate; the conjugate of a real node is the node."""
        va = self.raw(a)
        return self._keep(a, va) if va.dtype != _C else self._push("conj", (a,), np.conj(va))

    def re(self, a: int) -> int:
        """Real part, in real storage; the real part of a real node is the node."""
        va = self.raw(a)
        return self._keep(a, va) if va.dtype != _C else self._push("re", (a,), va.real.copy())

    def im(self, a: int) -> int:
        """Imaginary part, in real storage."""
        va = self.raw(a)
        return self._push("im", (a,), va.imag.copy() if va.dtype == _C else np.zeros_like(va))

    def exp(self, a: int) -> int:
        return self._push("exp", (a,), np.exp(self.raw(a)))

    def log(self, a: int) -> int:
        """Principal logarithm; real on a real node with no negative entry."""
        return self._push("log", (a,), np.log(_principal(self.raw(a))))

    def sqrt(self, a: int) -> int:
        """Principal square root; real on a real node with no negative entry."""
        return self._push("sqrt", (a,), np.sqrt(_principal(self.raw(a))))

    def cabs(self, a: int) -> int:
        """Elementwise modulus |z|, in real storage; derivative 0 at z = 0."""
        return self._push("cabs", (a,), np.abs(self.raw(a)))

    def mdiv(self, a: int, b: int) -> int:
        """Masked divide: a/b where b != 0, else 0.  Supports the modulus
        pullback, which must stay finite at exact zeros."""
        va, vb = self.raw(a), self.raw(b)
        out = np.zeros(_joint_shape("mdiv", va.shape, vb.shape), dtype=np.result_type(va, vb))
        np.divide(va, vb, out=out, where=vb != 0)
        return self._push("mdiv", (a, b), out)

    def crelu(self, a: int, gate: int | None = None) -> int:
        """Split relu Re a [Re gate > 0] + j Im a [Im gate > 0] by the masks
        of ``gate`` (default a; of a's shape), multiplied in, so NaN and inf
        propagate.  It is its own pullback, and the gate gets no adjoint."""
        gate = a if gate is None else gate
        va, vg = self.raw(a), self.raw(gate)
        if va.shape != vg.shape:
            raise ShapeMismatchError(f"crelu: gate shape {vg.shape} is not the operand's {va.shape}")
        out = np.empty(va.shape, va.dtype)
        out.real = va.real * (vg.real > 0)
        if va.dtype == _C:
            out.imag = va.imag * (vg.imag > 0)
        return self._push("crelu", (a, gate), out)

    # -- linear algebra ----------------------------------------------------

    def matmul(self, a: int, b: int, adj: str | None = None) -> int:
        """a @ b over the last two axes of operands of one rank >= 2 with
        equal leading axes; ``adj="a"`` gives a^H @ b and ``adj="b"`` gives
        a @ b^H, as BLAS does with op 'C'."""
        va, vb = self.raw(a), self.raw(b)
        if va.ndim < 2 or va.ndim != vb.ndim:
            raise ShapeMismatchError(f"matmul needs operands of one rank >= 2, got {va.ndim} and {vb.ndim}")
        if adj not in ADJOINT_FLAGS:
            raise UnknownOpError(f"matmul: adj must be one of {ADJOINT_FLAGS}, got {adj!r}")
        if adj == "a":
            va = _conj(va).swapaxes(-1, -2)
        elif adj == "b":
            vb = _conj(vb).swapaxes(-1, -2)
        if va.shape[:-2] != vb.shape[:-2] or va.shape[-1] != vb.shape[-2]:
            raise ShapeMismatchError(f"matmul: shapes disagree, {va.shape} x {vb.shape} (adj={adj!r})")
        return self._push("matmul", (a, b), va @ vb, adj)

    def attend(self, q: int, kt: int, v: int, lift: str) -> int:
        """Attention of (B, Lq, d) scaled queries over (B, d, Lk) keys and
        (B, Lk, dv) values, (B, Lq, dv): the chain of :func:`g_attention`,
        evaluated one chunk of the batch at a time (see
        :func:`_attend_chunks`), so no (B, Lq, Lk) array outlives its chunk.
        Its pullback recomputes the weights instead of keeping them."""
        vq, vk, vv = self.raw(q), self.raw(kt), self.raw(v)
        if not (vq.ndim == vk.ndim == vv.ndim == 3 and vq.shape[0] == vk.shape[0] == vv.shape[0]
                and vq.shape[2] == vk.shape[1] and vk.shape[2] == vv.shape[1]):
            raise ShapeMismatchError(f"attend: need (B, Lq, d), (B, d, Lk) and (B, Lk, dv), "
                                     f"got {vq.shape}, {vk.shape} and {vv.shape}")
        if lift not in LIFTS:
            raise UnknownOpError(f"attend: lift must be one of {LIFTS}, got {lift!r}")
        out = np.empty(vq.shape[:2] + vv.shape[2:], dtype=vv.dtype)  # the weights are real
        ev = evaluator()
        for s in _attend_chunks(vq.shape[0], vq.shape[1], vk.shape[2]):
            out[s] = g_attention(ev, vq[s], vk[s], vv[s], lift)
        return self._push("attend", (q, kt, v), out, lift)

    # -- structure ---------------------------------------------------------

    def reshape(self, a: int, shape: Sequence[int]) -> int:
        shape = tuple(shape)
        va = self.raw(a)
        return self._push("reshape", (a,), va.reshape(shape), va.shape)

    def permute(self, a: int, axes: Sequence[int]) -> int:
        """Axis permutation: out.shape[i] = a.shape[axes[i]]."""
        axes = tuple(axes)
        va = self.raw(a)
        if sorted(axes) != list(range(va.ndim)):
            raise ShapeMismatchError(f"permute: {axes} is not a permutation of the {va.ndim} axes")
        return self._push("permute", (a,), np.ascontiguousarray(np.transpose(va, axes)), axes)

    def sum_to(self, a: int, shape: Sequence[int]) -> int:
        """Sum over the axes along which ``shape`` broadcasts to a's shape:
        the adjoint of broadcasting.  ``()`` sums everything."""
        shape = tuple(shape)
        va = self.raw(a)
        if not _broadcasts(shape, va.shape):
            raise ShapeMismatchError(f"sum_to: {shape} does not broadcast to {va.shape}")
        lead = va.ndim - len(shape)
        axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n != va.shape[lead + i])
        return self._push("sum_to", (a,), np.add.reduce(va, axis=axes, keepdims=True).reshape(shape))

    def expand(self, a: int, shape: Sequence[int]) -> int:
        """Broadcast to ``shape``, as a read-only view; adjoint of sum_to."""
        shape = tuple(shape)
        va = self.raw(a)
        if not _broadcasts(va.shape, shape):
            raise ShapeMismatchError(f"expand: {va.shape} does not broadcast to {shape}")
        return self._push("expand", (a,), np.broadcast_to(va, shape))

    def window(self, a: int, k: int, stride: int) -> int:
        """Patch rows of an (N, T, C) input: row n*T_out + j holds channel c
        at times j*stride .. j*stride + k - 1 in columns c*k .. c*k + k - 1,
        with T_out = (T - k) // stride + 1.  Copied as k strided slices."""
        va = self.raw(a)
        if va.ndim != 3:
            raise ShapeMismatchError(f"window needs an (N, T, C) input, got shape {va.shape}")
        n, t, c = va.shape
        to = _window_len("window", t, k, stride)
        out = np.empty((n, to, c, k), dtype=va.dtype)
        for kk in range(k):
            out[..., kk] = va[:, _tap(kk, to, stride)]
        return self._push("window", (a,), out.reshape(n * to, c * k), (k, stride))

    def unwindow(self, a: int, t: int, k: int, stride: int) -> int:
        """Overlap-add of (N*T_out, C*k) patch rows into (N, t, C): the
        adjoint of window.  Taps are added from the last to the first, so
        each sum runs in the order of a scatter-add over the patch rows."""
        va = self.raw(a)
        to = _window_len("unwindow", t, k, stride)
        if va.ndim != 2 or va.shape[0] % to or va.shape[1] % k:
            raise ShapeMismatchError(f"unwindow: {va.shape} are not rows of windows with T_out = {to}, k = {k}")
        n, c = va.shape[0] // to, va.shape[1] // k
        patches = va.reshape(n, to, c, k)
        out = np.zeros((n, t, c), dtype=va.dtype)
        for kk in range(k - 1, -1, -1):
            out[:, _tap(kk, to, stride)] += patches[..., kk]
        return self._push("unwindow", (a,), out, (k, stride))


# ---------------------------------------------------------------------------
# graph convenience builders
# ---------------------------------------------------------------------------

def g_abs2(g: Tape, x: int) -> int:
    return g.mulc(x, x)


def g_sum(g: Tape, x: int) -> int:
    """Sum of all elements, as a rank-0 node."""
    return g.sum_to(x, ())


def g_dot_const(g: Tape, x: int, w) -> int:
    """sum(x * w) for a fixed coefficient tensor w, as a rank-0 node."""
    return g_sum(g, g.mul(x, g.const(w)))


LIFTS = ("abs", "re", "im")
"""The real lifts a softmax reads its complex input through."""


def g_lift(g: Tape, x: int, lift: str) -> int:
    if lift == "abs":
        return g.cabs(x)
    if lift == "re":
        return g.re(x)
    if lift == "im":
        return g.im(x)
    raise UnknownOpError(f"unknown lift {lift!r}")


def g_sum_last(g: Tape, x: int) -> int:
    """Sum over the last axis, kept as an axis of length 1."""
    return g.sum_to(x, g.shape[x][:-1] + (1,))


def g_minus_row_max(g: Tape, x: int) -> int:
    """x minus its row maximum, held as a detached constant: softmax is
    shift invariant, so gradients are unaffected."""
    return g.sub(x, g.const(g.raw(x).real.max(axis=-1, keepdims=True)))


def g_softmax_last(g: Tape, x: int, lift: str) -> int:
    """Real softmax over the last axis of the lifted input.  ``x`` is
    rebound at each step, so an evaluator frees each intermediate as soon
    as the next op has read it."""
    x = g_lift(g, x, lift)
    x = g_minus_row_max(g, x)
    x = g.exp(x)
    return g.div(x, g_sum_last(g, x))


def g_attention(g: Tape, q: int, kt: int, v: int, lift: str) -> int:
    """The attention chain: the softmax weights of scaled queries q over
    transposed keys kt mix the values v.  :meth:`Tape.attend` runs it; its
    pullback is its adjoint in closed form.  No local name holds the scores,
    so an evaluator frees them as soon as the lift has read them."""
    return g.matmul(g_softmax_last(g, g.matmul(q, kt), lift), v)


ATTEND_CHUNK_BYTES = 256 * 2**10
"""The most bytes that one (rows, Lq, Lk) complex block of a chunk of
:meth:`Tape.attend`, or of its pullback, takes.  A chunk has at least one
row, so one (Lq, Lk) matrix larger than this runs alone."""


def _attend_chunks(b: int, lq: int, lk: int) -> list[slice]:
    """Slices of a batch of b attention rows, as many rows per chunk as
    fit an (Lq, Lk) block in :data:`ATTEND_CHUNK_BYTES`."""
    rows = max(1, ATTEND_CHUNK_BYTES // (lq * lk * np.dtype(_C).itemsize))
    return [slice(i, i + rows) for i in range(0, b, rows)]


# ---------------------------------------------------------------------------
# pullbacks: one function per op, propagating the one adjoint c = dL/du*
# ---------------------------------------------------------------------------
#
# Each pullback takes the adjoint c of node u and returns (input_id, dL/dz*)
# pairs: the holomorphic term c * conj(du/dz) plus the antiholomorphic term
# conj(c) * du/dz*.  Only conj, the lifts, crelu, mulc's second factor and
# the ^H factor of matmul have the second term.  A binary elementwise op
# that broadcast an input sums that input's adjoint back to its shape.  The
# sweep, not the pullback, takes the real part of what a real input gets.

def _fit(g, p, x):
    """Adjoint ``p`` summed down to the shape of input ``x``, which the
    node broadcast."""
    shape = g.shape[x]
    return p if g.shape[p] == shape else g.sum_to(p, shape)


def _pull_add(g, nid, c):
    return [(i, _fit(g, c, i)) for i in g.inputs[nid] if g.needs[i]]


def _pull_sub(g, nid, c):
    a, b = g.inputs[nid]
    out = []
    if g.needs[a]:
        out.append((a, _fit(g, c, a)))
    if g.needs[b]:
        out.append((b, g.neg(_fit(g, c, b))))
    return out


def _pull_neg(g, nid, c):
    (a,) = g.inputs[nid]
    return [(a, g.neg(c))]


def _pull_conj(g, nid, c):
    # du/dz = 0 and du/dz* = 1: the whole adjoint is antiholomorphic
    (a,) = g.inputs[nid]
    return [(a, g.conj(c))]


def _pull_mul(g, nid, c):
    a, b = g.inputs[nid]
    out = []
    if g.needs[a]:
        out.append((a, _fit(g, g.mulc(c, b), a)))
    if g.needs[b]:
        out.append((b, _fit(g, g.mulc(c, a), b)))
    return out


def _pull_mulc(g, nid, c):
    # u = a conj(b): du/da = conj(b), and du/db* = a is antiholomorphic
    a, b = g.inputs[nid]
    out = []
    if g.needs[a]:
        out.append((a, _fit(g, g.mul(c, b), a)))
    if g.needs[b]:
        out.append((b, _fit(g, g.mulc(a, c), b)))
    return out


def _pull_quotient(g, nid, c):
    # u = a / b by div or the masked mdiv, and the adjoint divides by the
    # same op: du/da = 1/b and du/db = -u/b, both holomorphic
    a, b = g.inputs[nid]
    quot = g.div if g.kind[nid] == "div" else g.mdiv
    cb = g.conj(b)
    out = []
    if g.needs[a]:
        out.append((a, _fit(g, quot(c, cb), a)))
    if g.needs[b]:
        out.append((b, g.neg(_fit(g, quot(g.mulc(c, nid), cb), b))))
    return out


def _pull_smul(g, nid, c):
    (a,) = g.inputs[nid]
    return [(a, g.smul(c, g.aux[nid].conjugate()))]


def _pull_exp(g, nid, c):
    (a,) = g.inputs[nid]
    return [(a, g.mulc(c, nid))]


def _pull_log(g, nid, c):
    (a,) = g.inputs[nid]
    return [(a, g.div(c, g.conj(a)))]


def _pull_sqrt(g, nid, c):
    (a,) = g.inputs[nid]
    return [(a, g.div(c, g.conj(g.smul(nid, 2.0))))]


def _lift_adjoint(g, lift, a, u, c):
    # the adjoint of a from the real adjoint c of its real lift u: the two
    # terms add to 2c du/da*, as du/da* = conj(du/da).  re: u = (a + a*)/2
    # gives c; im: u = (a - a*)/2i gives i c; the modulus (lift abs, op
    # cabs): du/da* = a/(2|a|) gives c a/|a|, masked to 0 at a = 0
    if lift == "re":
        return c
    if lift == "im":
        return g.smul(c, 1j)
    return g.mdiv(g.mul(c, a), u)


def _pull_lift(g, nid, c):
    (a,) = g.inputs[nid]
    return [(a, _lift_adjoint(g, g.kind[nid], a, nid, c))]


def _pull_crelu(g, nid, c):
    # du/da = (m_re + m_im)/2 and du/da* = (m_re - m_im)/2 with the gate's
    # masks, so the two terms add to m_re Re c + i m_im Im c: crelu of c by
    # the same gate.  The masks are flat almost everywhere: no gate adjoint.
    a, gate = g.inputs[nid]
    return [(a, g.crelu(c, gate))] if g.needs[a] else []


def _pull_matmul(g, nid, c):
    # u = op(a) op(b) with op the identity or ^H.  The adjoint of a plain
    # factor is c times the other factor's ^H; a factor under ^H enters
    # antiholomorphically, and its adjoint is the ^H of that product.
    a, b = g.inputs[nid]
    adj = g.aux[nid]
    out = []
    if g.needs[a]:
        if adj is None:
            out.append((a, g.matmul(c, b, "b")))
        elif adj == "b":
            out.append((a, g.matmul(c, b)))
        else:
            out.append((a, g.matmul(b, c, "b")))
    if g.needs[b]:
        if adj is None:
            out.append((b, g.matmul(a, c, "a")))
        elif adj == "a":
            out.append((b, g.matmul(a, c)))
        else:
            out.append((b, g.matmul(c, a, "a")))
    return out


def _attend_adjoint(g, q, kt, v, c, lift: str, need) -> list:
    # (operand position, adjoint) where ``need`` says.  With S = q kt and
    # P = softmax(lift(S)): v gets P^T c, the real P gets dP = Re(c v^H),
    # lift(S) gets P (dP - rowsum(P dP)), S the lift's rule
    # (_lift_adjoint, as for a lift node) and q and kt the product's
    s = g.matmul(q, kt)
    lifted = g_lift(g, s, lift)
    p = g_softmax_last(g, lifted, "re")  # the real part of a real node is the node
    out = [(2, g.matmul(p, c, "a"))] if need[2] else []
    if need[0] or need[1]:
        ds = g.re(g.matmul(c, v, "b"))  # dP, rebound so that a chunk frees it
        ds = g.mul(p, g.sub(ds, g_sum_last(g, g.mul(p, ds))))
        ds = _lift_adjoint(g, lift, s, lifted, ds)
        out += [(0, g.matmul(ds, kt, "b"))] if need[0] else []
        out += [(1, g.matmul(q, ds, "a"))] if need[1] else []
    return out


def _pull_attend(g, nid, c):
    # recorded over the whole batch, or run per chunk into buffers of the
    # dtypes the chunks give; the sweep adds a repeated operand's adjoints
    ids, lift = g.inputs[nid], g.aux[nid]
    need = [g.needs[i] for i in ids]
    if not isinstance(g, _ArrayOps):
        return [(ids[k], p) for k, p in _attend_adjoint(g, *ids, c, lift, need)]
    grads = [None] * 3
    for s in _attend_chunks(*g.shape[ids[0]][:2], g.shape[ids[1]][2]):
        for k, p in _attend_adjoint(g, *(g.raw(i)[s] for i in ids), c[s], lift, need):
            if grads[k] is None:
                grads[k] = np.empty(g.shape[ids[k]], dtype=p.dtype)
            grads[k][s] = p
    return [(ids[k], p) for k, p in enumerate(grads) if p is not None]


def _pull_reshape(g, nid, c):
    (a,) = g.inputs[nid]
    return [(a, g.reshape(c, g.aux[nid]))]


def _pull_permute(g, nid, c):
    (a,) = g.inputs[nid]
    axes = g.aux[nid]
    return [(a, g.permute(c, sorted(range(len(axes)), key=axes.__getitem__)))]


def _pull_sum_to(g, nid, c):
    (a,) = g.inputs[nid]
    return [(a, g.expand(c, g.shape[a]))]


def _pull_expand(g, nid, c):
    (a,) = g.inputs[nid]
    return [(a, g.sum_to(c, g.shape[a]))]


def _pull_window(g, nid, c):
    (a,) = g.inputs[nid]
    return [(a, g.unwindow(c, g.shape[a][1], *g.aux[nid]))]


def _pull_unwindow(g, nid, c):
    (a,) = g.inputs[nid]
    return [(a, g.window(c, *g.aux[nid]))]


_PULLBACKS: dict[str, Callable] = {
    "add": _pull_add,
    "sub": _pull_sub,
    "neg": _pull_neg,
    "mul": _pull_mul,
    "mulc": _pull_mulc,
    "div": _pull_quotient,
    "smul": _pull_smul,
    "conj": _pull_conj,
    "re": _pull_lift,
    "im": _pull_lift,
    "exp": _pull_exp,
    "log": _pull_log,
    "sqrt": _pull_sqrt,
    "cabs": _pull_lift,
    "mdiv": _pull_quotient,
    "crelu": _pull_crelu,
    "matmul": _pull_matmul,
    "attend": _pull_attend,
    "reshape": _pull_reshape,
    "permute": _pull_permute,
    "sum_to": _pull_sum_to,
    "expand": _pull_expand,
    "window": _pull_window,
    "unwindow": _pull_unwindow,
}

# The forward values each pullback reads, as (input positions, own value,
# cross): with ``cross`` a product's pullback reads each of its two inputs
# only when the other one needs a gradient.  Every other pullback reads only
# shapes, ``aux`` and its adjoint.  A value missing here is released before
# its pullback runs, and reading it raises ReleasedValueError.
_READS: dict[str, tuple[tuple[int, ...], bool, bool]] = {
    "mul": ((), False, True),
    "mulc": ((), False, True),
    "matmul": ((), False, True),
    "div": ((1,), True, False),
    "mdiv": ((1,), True, False),
    "exp": ((), True, False),
    "sqrt": ((), True, False),
    "cabs": ((0,), True, False),
    "log": ((0,), False, False),
    "crelu": ((1,), False, False),
    "attend": ((0, 1, 2), False, False),
}


# ---------------------------------------------------------------------------
# backward sweeps
# ---------------------------------------------------------------------------

def backward_values(g: Tape, loss_id: int) -> dict[int, np.ndarray]:
    """The sweep of :func:`backward`, run on arrays: it records nothing,
    so the tape keeps its length and its result cannot be differentiated
    again.  It consumes the tape up to ``loss_id`` (see the module notes),
    so no node it reached can be swept again; the nodes recorded after the
    loss keep their values, and each adjoint is dropped once propagated.
    Returns a map leaf id -> dL/dz* for the leaves the sweep reached,
    arrays equal to the values of the nodes :func:`backward` records.
    """
    _check_real_scalar(g, loss_id)
    return _sweep(g, _ArrayOps(g), {loss_id: 0.5})


class _Shapes:
    """Shape lookup of :class:`_ArrayOps`: a node id resolves to the tape's
    shape of that node, a value to its own shape."""

    __slots__ = ("_shapes",)

    def __init__(self, shapes: list):
        self._shapes = shapes

    def __getitem__(self, x):
        return self._shapes[x] if isinstance(x, (int, np.integer)) else x.shape


class _ArrayOps(Tape):
    """The ops of a tape, evaluated on arrays without recording.

    Every op method returns its value instead of a new node id.  An operand
    that is an integer (Python or numpy) is a node id and resolves to the tape's forward value, or raises
    :class:`ReleasedValueError` if the tape released it; anything else is a
    value already.  Values are not all arrays: arithmetic on rank-0 arrays
    yields numpy scalars.  The pullbacks run against it unchanged, so they
    stay the only definition of each op's adjoint."""

    __slots__ = ()

    def __init__(self, g: Tape):
        self.kind, self.inputs, self.aux, self.needs, self.val = g.kind, g.inputs, g.aux, g.needs, g.val
        self.real = g.real
        self.shape = _Shapes(g.shape)

    def raw(self, x):
        return Tape.raw(self, x) if isinstance(x, (int, np.integer)) else x

    def _push(self, kind, inputs, val, aux=None):
        return val

    def _keep(self, a, va):
        return va

    def leaf(self, value):
        raise TypeError("an evaluator records nothing to differentiate; use const for its inputs")


def evaluator() -> Tape:
    """A forward pass that nothing differentiates: the ops of a :class:`Tape`
    evaluated on arrays over an empty tape.  Each op returns its value where
    a tape returns a node id, ``const`` takes every input and ``leaf`` is
    refused.  ``raw`` and ``value`` read a value as they read a node."""
    return _ArrayOps(Tape())


def _real_part(ops: Tape, p):
    """What a real input keeps of an adjoint ``p`` that a pullback hands it:
    Re p, which is all of it that reaches a leaf under the two-term rule."""
    return ops.re(p)


def _sweep(g: Tape, ops: Tape, seeds: Mapping[int, object]) -> dict:
    """Reverse sweep over ``g`` from the adjoints ``seeds`` (node id -> its
    seed), whose adjoint arithmetic runs on ``ops``: ``g`` itself records
    it, an :class:`_ArrayOps` over ``g`` does not, keeps only the adjoints
    of leaves and consumes ``g`` up to the last seeded node (see
    :func:`backward_values`).  A seed is a number, the adjoint of every
    element of its node, or an adjoint as ``ops`` holds it: a node id when
    ``g`` records, an array when not.  Seeded nodes keep their values.
    Returns node id -> c.

    A real node holds a real adjoint: only its real part reaches a leaf, so
    the sweep keeps the real part of what each pullback hands a real input,
    and a number seeds a real output with its real part."""
    keep_all = ops is g
    if not keep_all:
        g.release(keep=seeds, end=max(seeds) + 1)
    real = g.real
    cot: dict = {}
    for nid, seed in seeds.items():
        if isinstance(seed, (float, complex)):
            seed = ops.const(np.full(g.shape[nid], seed.real if real[nid] else _C(seed)))
        cot[nid] = seed
    for nid in range(max(seeds), -1, -1):
        kind = g.kind[nid]
        if nid not in cot or kind == "leaf" or kind == "const":
            continue
        c = cot[nid] if keep_all else cot.pop(nid)
        if not g.needs[nid]:
            continue
        for inp, p in _PULLBACKS[kind](ops, nid, c):
            if real[inp]:
                p = _real_part(ops, p)
            prev = cot.get(inp)
            cot[inp] = p if prev is None else ops.add(prev, p)
        if not keep_all and nid not in seeds:
            g.val[nid] = None
    if not keep_all:
        # a leaf's adjoint may be a broadcast view (from expand), a numpy
        # scalar or real: hand out a writable complex array of its shape
        for nid, c in cot.items():
            if not (isinstance(c, np.ndarray) and c.flags.writeable and c.dtype == _C):
                cot[nid] = np.array(c, dtype=_C)
    return cot


def _check_real_scalar(g: Tape, loss_id: int) -> None:
    v = g.raw(loss_id)
    if v.size != 1:
        raise NonScalarLossError(f"loss node must be scalar, got shape {v.shape}")
    im = abs(float(v.reshape(-1)[0].imag))
    if im > REAL_LOSS_TOL:
        raise NonRealLossError(f"loss has imaginary part {im:.3e} above tolerance {REAL_LOSS_TOL}")


def backward(g: Tape, loss_id: int) -> dict[int, int]:
    """Reverse sweep from a real-valued scalar loss, recorded on the tape.
    Returns node id -> the node that holds dL/dz*; a node the loss does not
    reach is absent.

    The loss node is seeded with 1/2: a real scalar reads as (L + L*)/2,
    which splits the unit adjoint evenly across the two conjugate-mirror
    channels, so one sweep propagates dL/dz*, visiting node ids from the
    loss down (see the module notes).
    """
    _check_real_scalar(g, loss_id)
    return _sweep(g, g, {loss_id: 0.5})


def complex_gradient(g: Tape, loss_id: int, param_id: int, cots: Mapping[int, int] | None = None) -> CTensor:
    """Steepest-ascent direction 2 * dL/dz* of a real loss at a node, read
    from the map of :func:`backward` (swept here if not given)."""
    if not 0 <= param_id < len(g):
        raise UnknownOpError(f"param node {param_id} is not on the tape")
    if cots is None:
        cots = backward(g, loss_id)
    cid = cots.get(param_id)
    if cid is None:
        return CTensor.zeros(g.shape[param_id])
    return CTensor._wrap(2.0 * _complex(g.raw(cid)))


def backward_graph(g: Tape, out_id: int, seed: tuple[complex | None, complex | None]) -> dict[int, "_Pair"]:
    """Recorded sweeps from a (value, conj) seed pair at ``out_id``; None
    in the seed is a structural zero.  Returns node id -> the pair
    (dL/dz, dL/dz*) as recorded node ids.  Only ``perfbench`` still reads
    pairs; camel itself calls :func:`backward`.

    A sweep propagates one adjoint, c = dL/du*, which stands for the pair
    (conj(c), c): the two channels of a real loss are conjugate mirrors.
    A seed (sv, sc) with sv == conj(sc) is real and runs one sweep, seeded
    with sc.  Any other seed is the sum of two real ones, because the
    two-channel chain rule is linear over C in the seed pair:

        a1 = (sc + conj(sv)) / 2,   a2 = (sc - conj(sv)) / 2i,
        conj channel  = P(a1) + i P(a2),
        value channel = conj(P(a1)) + i conj(P(a2)),

    with P(a) the sweep seeded with a.  On a real output only Re a
    reaches a leaf, so a2 is dropped when its real part is 0.
    """
    sv, sc = (0j if s is None else complex(s) for s in seed)
    a1, a2 = (sc + sv.conjugate()) / 2, (sc - sv.conjugate()) / 2j
    if g.real[out_id]:
        a1, a2 = a1.real, a2.real
    p1 = _sweep(g, g, {out_id: a1}) if a1 else {}
    p2 = _sweep(g, g, {out_id: a2}) if a2 else {}
    return {nid: _Pair(g, p1.get(nid), p2.get(nid)) for nid in dict.fromkeys([*p1, *p2])}


class _Pair:
    """(dL/dz, dL/dz*) of one node from its adjoints c1 and c2 in the
    sweeps of :func:`backward_graph` (c2 None after a real seed): c1 + i c2
    and conj(c1) + i conj(c2), each recorded on first read.  A pair holds
    the tape, never the map it sits in, so a swept tape and its result are
    freed by reference counting alone."""

    __slots__ = ("_g", "_c1", "_c2", "_built")

    def __init__(self, g: Tape, c1, c2):
        self._g, self._c1, self._c2 = g, c1, c2
        self._built = [None, c1 if c2 is None else None]

    def __getitem__(self, slot: int):
        if slot not in (0, 1):
            raise IndexError(slot)
        got = self._built[slot]
        if got is None:
            g = self._g
            lift = g.conj if slot == 0 else (lambda c: c)
            terms = [] if self._c1 is None else [lift(self._c1)]
            if self._c2 is not None:
                terms.append(g.smul(lift(self._c2), 1j))
            got = terms[0] if len(terms) == 1 else g.add(*terms)
            self._built[slot] = got
        return got


# ---------------------------------------------------------------------------
# Hessian-vector products via double backprop
# ---------------------------------------------------------------------------

def hvp(
    loss_builder: Callable[[Tape, dict[str, int]], int],
    theta: Mapping[str, CTensor],
    u: Mapping[str, CTensor],
) -> dict[str, CTensor]:
    """The R-linear Hessian of a real loss applied to ``u``: the derivative
    of the gradient map g = 2 dL/dz* along u, lim (g(theta + h u) - g(theta)) / h.

    That is the complex gradient of the real inner product
    Re sum(conj(g) * u) (Pearlmutter's double backprop): the first sweep
    records g on the tape, and :func:`hvp_sweep` differentiates it.
    """
    g = Tape()
    leaves = {name: g.leaf(t) for name, t in theta.items()}
    return hvp_sweep(g, leaves, backward(g, loss_builder(g, leaves)), u)


def hvp_sweep(g: Tape, leaves: Mapping[str, int], first: Mapping[int, int],
              u: Mapping[str, CTensor]) -> dict[str, CTensor]:
    """The second half of :func:`hvp`: the Hessian product at the leaves
    ``leaves`` of the loss whose recorded sweep :func:`backward` returned
    as ``first``.

    With c = dL/dz* the node ``first`` holds for a leaf, g = 2c there, and
    s = Re sum(conj(g) * u) has ds/dc* = u.  So one graph-free sweep,
    seeded with 2u at each leaf's c (its real part at a real c), returns
    2 ds/dz*, the complex gradient of s.  It consumes ``g`` as
    :func:`backward_values` does, so each tape serves one product.
    """
    seeds: dict = {}
    for name, leaf in leaves.items():
        c = first.get(leaf)
        if c is not None:
            seed = 2.0 * u[name].numpy()
            seed = seed.real if g.real[c] else seed
            seeds[c] = seed if c not in seeds else seeds[c] + seed
    second = _sweep(g, _ArrayOps(g), seeds) if seeds else {}
    return {name: CTensor._wrap(second[leaf]) if leaf in second else CTensor.zeros(g.shape[leaf])
            for name, leaf in leaves.items()}
