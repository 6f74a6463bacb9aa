import numpy as np
import pytest


@pytest.fixture(autouse=True)
def _seed_guard():
    """Tests must not depend on numpy's global RNG; make leaks loud."""
    np.random.seed(123456789)
    yield


@pytest.fixture
def set_workers(monkeypatch):
    """The fused ops' worker-count setter, with slices of any size allowed so
    that small test batches split; the count in force before the test is
    restored after it."""
    from eegtransfer import autodiff as ad
    monkeypatch.setattr(ad, "_MIN_SLICE_SIZE", 1)
    before = ad._workers
    yield ad._set_workers
    ad._set_workers(before)


@pytest.fixture
def attention_tile(monkeypatch):
    """Sets the bytes of Pᵀ in one tile of `attention`'s batch entries for the
    test; the size in force before it is restored after it."""
    from eegtransfer import autodiff as ad
    return lambda nbytes: monkeypatch.setattr(ad, "_TILE_BYTES", nbytes)
