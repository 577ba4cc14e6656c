import itertools

import pytest

from chamberlab.cases import ADMISSIBLE_D, CaseSpec, default_cases, load_registry, registry_case


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
    """Every alternating-multiplicity case with m1, m2 in 1..8 at each chamber
    type d: walls 0, 2, ... have m1 and walls 1, 3, ... m2, with m2 = m1 when
    d is odd (mirror walls i and d - i share a multiplicity), and n = 2 + sum(m).
    208 cases."""
    grid = []
    for d in ADMISSIBLE_D:
        for m1, m2 in itertools.product(range(1, 9), repeat=2):
            if d % 2 == 0 or m1 == m2:
                mults = tuple(m2 if i % 2 else m1 for i in range(d))
                grid.append(CaseSpec(name="grid", group="", action="", n=2 + sum(mults),
                                     d=d, multiplicities=mults))
    return grid
