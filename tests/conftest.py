import contextlib
from fractions import Fraction
from unittest import mock

import pytest

from fracpack import IFSSystem, LacunarySequence, make_lacunary

MASTER_SEED = 0x5EED


@pytest.fixture(scope="session")
def lam_paper():
    return make_lacunary("paper")


@pytest.fixture(scope="session")
def lam_toy():
    return make_lacunary("explicit:2,6,14")


@pytest.fixture(scope="session")
def lam_toy4():
    return make_lacunary("explicit:2,6,14,30")


@pytest.fixture(scope="session")
def sys_paper(lam_paper):
    return IFSSystem(lam_paper)


@pytest.fixture(scope="session")
def sys_toy(lam_toy):
    return IFSSystem(lam_toy)


def exact_value(point, lam) -> Fraction:
    """Collapse p + q*u to a plain rational; only valid when u is rational."""
    u = lam.u_exact()
    return point.p + point.q * u


@contextlib.contextmanager
def walker_only():
    """Close the below-grid gate, so ball and cylinder counts take the
    prefix-tree walk instead of the rank path."""
    with mock.patch.object(LacunarySequence, "below_grid", return_value=False):
        yield
