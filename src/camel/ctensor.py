"""Dense complex tensor type with exact elementwise and matrix primitives.

CTensor is the value type every other module trades in: a row-major,
immutable array of complex128 scalars.  There is no broadcasting and no
view machinery; callers reshape explicitly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class NonFiniteError(ValueError):
    """Raised when a tensor is built from NaN or infinite components."""


def _as_complex_array(data) -> np.ndarray:
    if isinstance(data, CTensor):
        return data._a
    arr = np.asarray(data, dtype=np.complex128)
    return arr


class CTensor:
    """Immutable dense n-dimensional array of complex scalars.

    Storage is a flat row-major complex128 buffer; ``shape`` is carried
    separately.  A rank-0 tensor holds exactly one scalar.
    """

    __slots__ = ("_a",)

    def __init__(self, data, shape: Sequence[int] | None = None):
        arr = _as_complex_array(data)
        if shape is not None:
            arr = arr.reshape(tuple(shape))
        if arr.ndim > 0:
            arr = np.ascontiguousarray(arr)  # keeps rank-0 as rank-0
        else:
            arr = arr.copy()
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise NonFiniteError("CTensor components must be finite")
        arr.flags.writeable = False
        self._a = arr

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "CTensor":
        """Wrap a trusted complex128 array without copying or validation."""
        obj = object.__new__(cls)
        obj._a = arr
        return obj

    @classmethod
    def zeros(cls, shape: Sequence[int]) -> "CTensor":
        return cls._wrap(np.zeros(tuple(shape), dtype=np.complex128))

    @classmethod
    def full(cls, shape: Sequence[int], value: complex) -> "CTensor":
        return cls(np.full(tuple(shape), value, dtype=np.complex128))

    @classmethod
    def scalar(cls, value: complex) -> "CTensor":
        return cls(np.asarray(value, dtype=np.complex128))

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def rank(self) -> int:
        return self._a.ndim

    @property
    def size(self) -> int:
        return self._a.size

    def numpy(self) -> np.ndarray:
        """Read-only complex128 view of the stored data."""
        return self._a

    def item(self) -> complex:
        if self._a.size != 1:
            raise ShapeMismatchError(f"item() needs a single-element tensor, got shape {self.shape}")
        return complex(self._a.reshape(-1)[0])

    def reshape(self, shape: Iterable[int]) -> "CTensor":
        return CTensor._wrap(self._a.reshape(tuple(shape)))

    def __repr__(self) -> str:
        return f"CTensor(shape={self.shape}, data={np.array2string(self._a, precision=6)})"


def _check_same_shape(op: str, a: CTensor, b: CTensor) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: operand shapes differ, {a.shape} vs {b.shape}")


def cmul(a: CTensor, b: CTensor) -> CTensor:
    """Elementwise complex product: (Re a Re b - Im a Im b) + j(Re a Im b + Im a Re b).

    Evaluated with the explicit real formula so results agree bit-for-bit
    with per-scalar evaluation (vectorized complex multiplication may
    contract the products differently)."""
    _check_same_shape("cmul", a, b)
    ar, ai = a._a.real, a._a.imag
    br, bi = b._a.real, b._a.imag
    return CTensor._wrap((ar * br - ai * bi) + 1j * (ar * bi + ai * br))


def cmatmul(a: CTensor, b: CTensor) -> CTensor:
    """Matrix product over the complex field for rank-2 operands."""
    if a.rank != 2 or b.rank != 2:
        raise ShapeMismatchError(f"cmatmul needs rank-2 operands, got ranks {a.rank} and {b.rank}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"cmatmul: inner dimensions disagree, {a.shape} x {b.shape}")
    return CTensor._wrap(a._a @ b._a)


def conj(a: CTensor) -> CTensor:
    """Elementwise complex conjugate."""
    return CTensor._wrap(np.conj(a._a))


def hermitian(a: CTensor) -> CTensor:
    """Conjugate transpose of a rank-2 tensor."""
    if a.rank != 2:
        raise ShapeMismatchError(f"hermitian needs a rank-2 tensor, got rank {a.rank}")
    return CTensor._wrap(np.ascontiguousarray(np.conj(a._a.T)))


def eye(n: int) -> CTensor:
    return CTensor._wrap(np.eye(n, dtype=np.complex128))


def max_abs_diff(a: CTensor, b: CTensor) -> float:
    _check_same_shape("max_abs_diff", a, b)
    return float(np.max(np.abs(a._a - b._a), initial=0.0))
