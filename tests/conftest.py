import pytest

from anyonsim import lattice as lat
from anyonsim import tableau as tb


@pytest.fixture(scope="session")
def torus4():
    return lat.torus(4)


@pytest.fixture(scope="session")
def planar2():
    return lat.planar(2)


@pytest.fixture(scope="session")
def planar3():
    return lat.planar(3)


@pytest.fixture(scope="session")
def torus4_ground(torus4):
    return tb.prepare_ground_state(torus4, 0)


@pytest.fixture(scope="session")
def planar2_ground(planar2):
    return tb.prepare_ground_state(planar2, 0)
