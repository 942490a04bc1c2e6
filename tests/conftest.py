import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def lossy_pair_scalars(monkeypatch):
    """Make every field solve give a q11 with a negative imaginary part,
    i.e. an unphysical (negative) decay rate gamma11."""
    from entcloak import optimizer

    real = optimizer._pair_scalars

    def lossy(*args, **kwargs):
        q = real(*args, **kwargs)
        q[0] -= 2j * q[0].imag
        return q

    monkeypatch.setattr(optimizer, "_pair_scalars", lossy)
