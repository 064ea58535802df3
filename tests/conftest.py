import pytest

from qkzpsi import rmatrix
from qkzpsi.appendix import load_fixture
from qkzpsi.qkz import build_psi_fundamental, fuse_psi


@pytest.fixture(scope="session")
def psi_m8():
    """The heavy fundamental build shared by fusion-related tests."""
    return build_psi_fundamental(4, (2, 2, 2, 2))


@pytest.fixture(scope="session")
def fused_example(psi_m8):
    return fuse_psi(psi_m8, (2, 2, 2, 2))


@pytest.fixture(scope="session")
def appendix_doc():
    return load_fixture()


@pytest.fixture
def fresh_unitarity():
    """pair_unitarity forgets its results before and after the test."""
    rmatrix.pair_unitarity.cache_clear()
    yield
    rmatrix.pair_unitarity.cache_clear()
