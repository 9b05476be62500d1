"""Dense complex tensor type.

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
