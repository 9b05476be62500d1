import numpy as np
import pytest

from camel.ctensor import CTensor, NonFiniteError


def test_rank0_and_shape_invariant():
    t = CTensor.scalar(2 + 3j)
    assert t.shape == () and t.size == 1
    t2 = CTensor(np.arange(6, dtype=complex), shape=(2, 3))
    assert t2.shape == (2, 3)


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteError):
        CTensor(np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteError):
        CTensor(np.array([np.inf + 0j]))
