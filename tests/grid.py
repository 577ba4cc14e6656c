"""The 208-case multiplicity grid that the tests and tests/golden.py share."""

from __future__ import annotations

import itertools

from chamberlab.cases import ADMISSIBLE_D, CaseSpec


def multiplicity_grid() -> list[CaseSpec]:
    """Every alternating-multiplicity case with m1, m2 in 1..8 at each chamber
    type d: walls 0, 2, ... have m1 and walls 1, 3, ... m2, with m2 = m1 when
    d is odd (mirror walls i and d - i share a multiplicity), and n = 2 + sum(m).
    208 cases, all named "grid" (see :func:`grid_key`)."""
    grid = []
    for d in ADMISSIBLE_D:
        for m1, m2 in itertools.product(range(1, 9), repeat=2):
            if d % 2 == 0 or m1 == m2:
                mults = tuple(m2 if i % 2 else m1 for i in range(d))
                grid.append(CaseSpec(name="grid", group="", action="", n=2 + sum(mults),
                                     d=d, multiplicities=mults))
    return grid


def grid_key(case: CaseSpec) -> str:
    """A grid case's key, "d=<d> m=<m_0>,<m_1>,...": its label is always "grid"."""
    return f"d={case.d} m={','.join(map(str, case.multiplicities))}"
