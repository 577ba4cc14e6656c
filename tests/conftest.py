import pytest

from chamberlab.cases import default_cases, load_registry, registry_case
import grid


@pytest.fixture(scope="session")
def registry():
    return load_registry()


@pytest.fixture(scope="session")
def all_cases(registry):
    """Every registry row, parametric rows at smallest parameters."""
    return default_cases(registry)


@pytest.fixture(scope="session")
def u5():
    return registry_case("U5")


@pytest.fixture(scope="session")
def su3():
    return registry_case("SU3")


@pytest.fixture(scope="session")
def multiplicity_grid():
    """The 208 cases of :func:`grid.multiplicity_grid`."""
    return grid.multiplicity_grid()
