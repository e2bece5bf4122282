import pytest

from nwalgebra.coxeter import RootSystem, cartan_data
from nwalgebra.exactlinalg import PrimeField
from nwalgebra.nichols_core import AlgebraState


@pytest.fixture(scope="session")
def a1():
    state = AlgebraState(RootSystem(cartan_data("A", 1)))
    state.construct_all()
    return state


@pytest.fixture(scope="session")
def s3():
    state = AlgebraState(RootSystem(cartan_data("A", 2)))
    state.construct_all()
    return state


@pytest.fixture(scope="session")
def s4():
    state = AlgebraState(RootSystem(cartan_data("A", 3)))
    state.construct_all()
    return state


@pytest.fixture(scope="session")
def s4_prime(s4):
    state = AlgebraState(s4.system, field=PrimeField())
    state.construct_all()
    return state
