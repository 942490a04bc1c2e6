import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def lossy_pair_tensors(monkeypatch):
    """Make every full solve return a G11 with a negative imaginary
    diagonal, i.e. an unphysical (negative) decay rate gamma11."""
    from entcloak import optimizer, vie

    def lossy(sol1, sol2):
        G11, G22, G12, f1, f2 = vie.pair_tensors(sol1, sol2)
        return G11 - 2j * np.diag(np.diag(G11).imag), G22, G12, f1, f2

    monkeypatch.setattr(optimizer, "pair_tensors", lossy)
