import tracemalloc

import numpy as np
import pytest


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_off_zero(rng, *shape):
    z = rand_complex(rng, *shape)
    return z + (np.abs(z) < 0.3) * (0.5 + 0.5j)


def assert_close(got, want, rel=1e-5, floor=1e-8, label=""):
    got = np.asarray(got)
    want = np.asarray(want)
    err = np.abs(got - want)
    tol = np.maximum(rel * np.abs(want), floor)
    if not np.all(err <= tol):
        worst = float(np.max(err - tol))
        raise AssertionError(f"{label or 'values'} differ: worst excess {worst:.3e}\n"
                             f"got  {got}\nwant {want}")


def assert_same_adjoints(g, values, cots, nids):
    """The dL/dz* arrays of a graph-free sweep equal the nodes that
    backward records for them, to 1e-12 relative."""
    for nid in nids:
        got = values.get(nid)
        cid = cots.get(nid)
        assert (got is None) == (cid is None), f"node {nid}"
        if cid is not None:
            want = g.val[cid]
            scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
            assert float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * scale


def unique_bytes(values) -> int:
    """Bytes of the buffers that the arrays in ``values`` (None skipped)
    hold, each base buffer counted once however many views share it."""
    bases = {}
    for v in values:
        if v is not None:
            base = v if v.base is None else v.base
            bases[id(base)] = base.nbytes
    return sum(bases.values())


def traced_peak(fn) -> int:
    """The peak of the allocations that tracemalloc traces while ``fn()``
    runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
