import tracemalloc

import numpy as np
import pytest

from bosegas.bogoliubov import build_tables
from bosegas.lattice_potential import (
    TWO_PI,
    Potential,
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
