import tracemalloc

import numpy as np
import pytest

from bosegas.bogoliubov import build_tables, e01
from bosegas.corrections import c_constant, e_pert_tilde, g2_expectation
from bosegas.lattice_potential import (
    TWO_PI,
    Potential,
    born2_sum,
    enumerate_lattice,
    scaled_table,
)
from bosegas.scattering import make_convolver, solve_eta


@pytest.fixture(scope="session")
def pot_ref():
    return Potential(kappa=0.1, R=0.25)


@pytest.fixture(scope="session")
def pot_coupled():
    return Potential(kappa=0.5, R=0.25)


@pytest.fixture(scope="session")
def lat6():
    return enumerate_lattice(TWO_PI * 6)


@pytest.fixture(scope="session")
def lat3():
    return enumerate_lattice(TWO_PI * 3)


@pytest.fixture(scope="session")
def sol_small(pot_coupled, lat6):
    return solve(pot_coupled, lat6, N=500, beta=0.75)


@pytest.fixture(scope="session")
def tables_small(sol_small):
    return tables_of(sol_small)


@pytest.fixture(scope="session")
def tables_first_shell(pot_coupled, lat3):
    return tables_of(solve(pot_coupled, lat3, N=200, beta=0.6))


def solve(pot, lattice, N: int, beta: float):
    """`solve_eta` on a convolver of the scaled table, built for it."""
    return solve_eta(make_convolver(scaled_table(pot, lattice, N, beta)))


def tables_of(sol):
    """`build_tables` of a solution on a convolver of its table, built for
    it."""
    return build_tables(sol, make_convolver(sol.table))


def e01_at(tables, K2: float):
    """`e01` at the inner cutoff K2, on the pieces `assemble_report` cuts:
    the K2 sub-table's convolver and born2 tail."""
    sub = tables.table.sub_table(K2)
    return e01(tables, make_convolver(sub), born2_sum(sub).tail)


def g2_at(tables, K2: float):
    """`g2_expectation` on the convolver of the K2 sub-table."""
    return g2_expectation(tables, make_convolver(tables.table.sub_table(K2)))


def ept_args(tables, K2: float) -> tuple:
    """`e_pert_tilde`'s arguments at the inner cutoff K2, as
    `assemble_report` passes them."""
    sub = tables.table.sub_table(K2)
    return tables, sub, c_constant(tables).C2, born2_sum(sub).tail


def ept_at(tables, K2: float):
    """`e_pert_tilde` at the inner cutoff K2."""
    return e_pert_tilde(*ept_args(tables, K2))


def brute_count(radius_n: float) -> int:
    L = int(np.floor(radius_n)) + 1
    c = 0
    for x in range(-L, L + 1):
        for y in range(-L, L + 1):
            for z in range(-L, L + 1):
                n2 = x * x + y * y + z * z
                if 0 < n2 <= radius_n * radius_n + 1e-9:
                    c += 1
    return c


def per_point(lat, values: np.ndarray) -> np.ndarray:
    """An orbit table of `lat` at every point of `lat.points()`, in that
    order."""
    return np.repeat(values, lat.size)


def traced_peak(fn, *args) -> int:
    """Peak bytes that fn(*args) allocates above what was allocated before
    it, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
