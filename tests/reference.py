"""Slow, exact references the tests hold the package's fast paths to.

None of these is reached from a `bosegas` command; they live with the
tests so that the package ships the run path only.
"""

import numpy as np

from bosegas.bogoliubov import BogoliubovTables
from bosegas.lattice_potential import (
    LatticeBall,
    Potential,
    ScaledPotentialTable,
    scaled_table,
)
from bosegas.scattering import ScatteringSolution, _defect, make_convolver
from bosegas.sums import det_sum


def vhat_oracle(pot: Potential, rho: float) -> float:
    """Quadrature reference for the closed form (radial transform of the
    ball indicator, squared).  Slow; scipy is imported on first call."""
    from scipy.integrate import quad

    if rho == 0.0:
        return pot.vhat0
    ball, _ = quad(
        lambda r: 4.0 * np.pi * r * np.sin(rho * r) / rho,
        0.0,
        pot.R,
        epsabs=1e-15,
        epsrel=1e-13,
        limit=200,
    )
    return pot.kappa * ball * ball


def conv_direct(table: ScaledPotentialTable, values: np.ndarray) -> np.ndarray:
    """(vhat_N^beta * values)_p over q != p by explicit double loop, on
    values at every point of `lattice.points()` and in that order.

    The exact O(M^2) reference that the octant convolver is held to.
    """
    pts = table.lattice.points()
    out = np.empty(len(pts), dtype=float)
    for i in range(len(pts)):
        kern = table.value_at(pts[i] - pts)
        kern[i] = 0.0
        out[i] = det_sum(kern * values)
    return out


def residual(sol: ScatteringSolution) -> float:
    """Max-norm defect of the scattering equation, re-evaluated on a
    convolver of the solution's table."""
    conv = make_convolver(sol.table)(sol.eta)
    return float(np.max(np.abs(_defect(sol.table, sol.eta, conv))))


def dense_solve_eta(
    pot: Potential, lattice: LatticeBall, N: int, beta: float
) -> np.ndarray:
    """Direct dense linear solve of the same truncated equation (oracle).

    The coupling matrix vhat(p-q)/(2N) has its diagonal set to zero (the
    q = p term is excluded, as in the solver), leaving p^2 there.  The
    solution is per point, at `lattice.points()` and in that order.
    """
    table = scaled_table(pot, lattice, N, beta)
    pts = lattice.points()
    M = len(pts)
    A = np.zeros((M, M), dtype=float)
    for i in range(M):
        A[i, :] = table.value_at(pts[i] - pts) / (2.0 * N)
    A[np.diag_indices(M)] = np.repeat(lattice.psq, lattice.size)
    return np.linalg.solve(A, -0.5 * np.repeat(table.values, lattice.size))


def eta_tail(pot: Potential, N: int, beta: float, p) -> float:
    """First Born value, the closure used beyond the cutoff."""
    p = np.asarray(p, dtype=float)
    psq = float(np.dot(p, p))
    if psq == 0.0:
        raise ValueError("tail rule is defined only away from the zero mode")
    return -float(pot.vhat_radial(np.sqrt(psq) / N**beta)) / (2.0 * psq)


def a_coefficient(tables: BogoliubovTables) -> np.ndarray:
    """A_p = -(1/N) [2 vhat_p (vhat*cs)_p + (vhat*cs)_p^2 / N].

    Satisfies F_p^2 - G_p^2 = p^4 + 2 p^2 vhat_p + A_p exactly.
    """
    v = tables.table.values
    conv = tables.cs_conv
    N = tables.N
    return -(2.0 * v * conv + conv * conv / N) / N
