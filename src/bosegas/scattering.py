"""Momentum-space scattering equation on the truncated lattice.

For p in the ball the solved table satisfies

    p^2 eta_p + (1/2N) sum_{q != p} vhat((p-q)/N^beta) eta_q = -vhat(p/N^beta)/2 ,

with the q-sum over the ball excluding q = p, the r = p - q = 0 term.
This is the one convention of the package: every convolver built here
excludes that term, so the (vhat * cs) convolution of
`bogoliubov.build_tables`, and through it F, G and the constant C,
exclude it too.  On the N-particle space the r = 0 part of the
interaction is vhat(0)/(2N) * n(n-1) = (N-1) vhat(0)/2, a constant that
the macroscopic and leading terms already carry; eta must solve the
r != 0 equation to cancel the pairing term that G is built from.
Keeping the q = p term would leave vhat(0) eta_p / N uncancelled in G.

eta, like every table on the ball, is one value per cubic orbit
(`LatticeBall`): the kernel is radial, so the equation maps orbit-constant
tables to orbit-constant tables.  Every run convolves on one
cosine-transform convolver per potential table (`make_convolver`), the
solve's kept on its solution for the tables built from it; the
exact double loop `conv_direct` is kept as the reference the tests compare
it against, as `dense_solve_eta` is for the solver, both per point.
The solver iterates the fixed-point map from the first Born term; the
map contracts with a factor O(N^(beta-1)) in the targeted regime.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonConvergence
from .lattice_potential import (
    TWO_PI,
    LatticeBall,
    Potential,
    ScaledPotentialTable,
    scaled_table,
)
from .sums import det_sum

# the solver's target max-norm residual and iteration cap, read at call time
TOL = 1e-11
MAX_ITER = 200


def conv_direct(table: ScaledPotentialTable, values: np.ndarray) -> np.ndarray:
    """(vhat_N^beta * values)_p over q != p by explicit double loop, on
    values at every point of `lattice.points()` and in that order.

    The exact O(M^2) reference that tests hold the fast convolver to; no
    run path calls it.
    """
    pts = table.lattice.points()
    out = np.empty(len(pts), dtype=float)
    for i in range(len(pts)):
        kern = table.value_at(pts[i] - pts)
        kern[i] = 0.0
        out[i] = det_sum(kern * values)
    return out


def _apply(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Contract every axis of the 3-array x with the matrix m, in turn."""
    for _ in range(3):
        x = np.tensordot(x, m, axes=(0, 0))  # cycles the axes back in order
    return x


class _OctantConvolver:
    """Convolution over q != p by cosine transforms on the nonnegative octant.

    p - q spans [-2L, 2L] per axis for a ball inside [-L, L]^3.  Modulo 4L
    only +2L and -2L coincide, and the even kernel has one value there, so
    the period-4L circular convolution is the exact linear one.  Input is
    one value per cubic orbit and the kernel is radial, so both are even
    along every axis and the period-4L DFT reduces per axis to the DCT-I
    X_k = sum_{j=0}^{2L} w_j x_j cos(2 pi jk / 4L), w = (1, 2, ..., 2, 1),
    its own inverse up to 1/4L.  The input scatters onto (L+1)^3 through
    the ball's octant of orbit ids, the kernel is transformed once on
    (2L+1)^3 (`shape`), and the output is read back on (L+1)^3, each
    transform three products with one matrix.

    The transform includes q = p; vhat(0) * values_p is subtracted after.
    The output is orbit-constant up to rounding, so each orbit reads it at
    one octant cell, its sorted components (a, b, c) from `lattice.reps`,
    within its 1e-12 budget against `conv_direct`.
    """

    def __init__(self, table: ScaledPotentialTable):
        self.table = table
        lat = table.lattice
        L = lat.L
        self.shape = (2 * L + 1,) * 3
        j = np.arange(2 * L + 1)
        # the phase jk is reduced mod 4L first, so equal phases give
        # bitwise equal cosines
        W = np.cos(TWO_PI * ((j[:, None] * j[None, :]) % (4 * L)) / (4 * L))
        W[1:-1] *= 2.0
        self._fwd = W[: L + 1]
        self._inv = W[:, : L + 1]
        # the kernel at every integer |d|^2 up to 3 (2L)^2, once each
        nsq = np.arange(12 * L * L + 1, dtype=float)
        vals = table.pot.vhat_radial(TWO_PI * np.sqrt(nsq) / table.N**table.beta)
        d2 = j * j
        kern = vals[d2[:, None, None] + d2[None, :, None] + d2[None, None, :]]
        self._kern_hat = _apply(kern, W) / float(4 * L) ** 3
        self._octant = lat.grid.reshape(self.shape)[L:, L:, L:]
        # each orbit's flat octant cell (a, b, c)
        a, b, c = lat.reps.T
        self._cell = (a * (L + 1) + b) * (L + 1) + c

    def __call__(self, values: np.ndarray) -> np.ndarray:
        # the octant's -1 cells (outside the ball, the origin) read the 0
        sig = np.append(values, 0.0)[self._octant]
        spec = _apply(sig, self._fwd) * self._kern_hat
        out = _apply(spec, self._inv).reshape(-1)[self._cell]
        return out - self.table.at_zero * values


def make_convolver(table: ScaledPotentialTable) -> _OctantConvolver:
    """Return the convolver of `table`: the potential convolution over
    q != p by the octant cosine transforms of `_OctantConvolver`, on one
    value per cubic orbit.

    It is the only convolver of a run, at every ball size: the direct
    double loop `conv_direct` is slower at every size, and tests hold this
    one to it at 1e-12.
    """
    return _OctantConvolver(table)


class ScatteringSolution(NamedTuple):
    """Solved eta table on a lattice ball, one value per cubic orbit, with
    solver metadata.

    The zero mode is fixed to eta_0 = 0 by convention; beyond the cutoff
    the first Born term serves as the tail rule (see `eta_tail`).
    `convolve` is the convolver of `table` the solve ran on, which the
    tables built from the solution reuse.
    """

    table: ScaledPotentialTable
    eta: np.ndarray
    iterations: int
    residual_norm: float
    convolve: _OctantConvolver

    @property
    def lattice(self) -> LatticeBall:
        return self.table.lattice


def _defect(table: ScaledPotentialTable, eta: np.ndarray, conv: np.ndarray):
    psq = table.lattice.psq
    return psq * eta + conv / (2.0 * table.N) + 0.5 * table.values


def solve_eta(
    pot: Potential, lattice: LatticeBall, N: int, beta: float
) -> ScatteringSolution:
    """Damped fixed-point solution of the lattice scattering equation.

    Iterates to a max-norm residual of at most `TOL` within `MAX_ITER`
    iterations; otherwise, or at the first non-finite residual of a
    diverging solve, raises NonConvergence with the smallest residual met.
    """
    if len(lattice) == 0:
        raise ValueError("lattice is empty")
    table = scaled_table(pot, lattice, N, beta)
    convolve = make_convolver(table)
    psq = lattice.psq
    eta = -table.values / (2.0 * psq)
    damping = 1.0
    prev_res = np.inf
    # once inside tolerance, keep contracting to the rounding floor: the
    # downstream identities between the two energy routes are limited by
    # this residual, not by TOL
    floor = 64.0 * np.finfo(float).eps * max(table.at_zero, 1e-300)
    best_eta, best_res = eta, np.inf
    for it in range(1, MAX_ITER + 1):
        # a diverging solve overflows here; the finiteness check stops it
        with np.errstate(over="ignore", invalid="ignore"):
            defect = _defect(table, eta, convolve(eta))
        res = float(np.max(np.abs(defect)))
        if not np.isfinite(res):
            break
        if res < best_res:
            best_eta, best_res = eta, res
        if res <= TOL and (res <= floor or res > 0.25 * prev_res):
            break
        if res > prev_res:
            # residual oscillation: marginal contraction, damp the step
            damping = max(0.125, 0.5 * damping)
        prev_res = res
        eta = eta - damping * defect / psq
    if best_res > TOL:
        raise NonConvergence(it, best_res)
    return ScatteringSolution(
        table=table, eta=best_eta, iterations=it, residual_norm=best_res,
        convolve=convolve,
    )


def residual(sol: ScatteringSolution) -> float:
    """Max-norm defect of the scattering equation, re-evaluated on the
    solve's convolver."""
    return float(np.max(np.abs(_defect(sol.table, sol.eta, sol.convolve(sol.eta)))))


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


def scattering_length(sol: ScatteringSolution) -> float:
    """Box scattering length a: 8*pi*a = vhat(0) + (1/N) sum_p vhat_p eta_p.

    The zero mode contributes vhat(0) exactly under the eta_0 = 0
    convention.  The sum stops at the ball; the report bounds the
    truncated part from the `born2_sum` tail (`a_tail_bound`).
    """
    table = sol.table
    s = table.lattice.total(table.values * sol.eta) / table.N
    return (table.at_zero + s) / (8.0 * np.pi)
