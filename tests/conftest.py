import pytest

from latuni.fixtures import SMALL_LATTICES, l1, l2, l3


@pytest.fixture(scope="session")
def fx_l1():
    return l1()


@pytest.fixture(scope="session")
def fx_l2():
    return l2()


@pytest.fixture(scope="session")
def fx_l3():
    return l3()


@pytest.fixture(scope="session")
def small_lattices():
    return {name: make() for name, make in SMALL_LATTICES.items()}
