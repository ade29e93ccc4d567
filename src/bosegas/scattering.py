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
cosine-transform convolver per potential table (`make_convolver`), owned
by its caller: `pipeline.run_tables` builds the K ball's, lends it to the
solve and to `bogoliubov.build_tables` and drops it on return, so its
kernel is freed before any energy term runs; each pair sum builds and
drops its K2 sub-table's.  A convolver keeps one cube, the kernel's
spectrum, built slab by slab, and a call transforms its input a few
output frequencies at a time, never forming a spectrum of its own.
The solver iterates the fixed-point map from the first Born term; the
map contracts with a factor O(N^(beta-1)) in the targeted regime.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonConvergence
from .lattice_potential import TWO_PI, LatticeBall, ScaledPotentialTable

# the solver's target max-norm residual and iteration cap, read at call time
TOL = 1e-11
MAX_ITER = 200


class _OctantConvolver:
    """Convolution over q != p by cosine transforms on the nonnegative octant.

    p - q spans [-2L, 2L] per axis for a ball inside [-L, L]^3.  Modulo 4L
    only +2L and -2L coincide, and the even kernel has one value there, so
    the period-4L circular convolution is the exact linear one.  Input is
    one value per cubic orbit and the kernel is radial, so both are even
    along every axis and the period-4L DFT reduces per axis to the DCT-I
    X_k = sum_{j=0}^{2L} w_j x_j cos(2 pi jk / 4L), w = (1, 2, ..., 2, 1),
    its own inverse up to 1/4L.  The kernel is transformed once, in the
    one (2L+1)^3 cube (`shape`) the convolver keeps: each j0 slab is
    gathered and transformed on its last two axes, then the first axis in
    place, a column at a time.  A call scatters the input onto (L+1)^3
    through the ball's octant of orbit ids.  Then, for a block of output
    frequencies k0 at a time, it transforms that signal's first axis to
    those k0 and its other two axes, multiplies the block's spectral
    planes by the kernel's, transforms them back to (L+1)^2 and adds the
    block's first-axis inverse into the one (L+1)^3 output.

    The transform includes q = p; vhat(0) * values_p is subtracted after.
    The output is orbit-constant up to rounding, so each orbit reads it at
    one octant cell, its sorted components (a, b, c) from `lattice.reps`,
    within its 1e-12 budget against an exact double loop.
    """

    def __init__(self, table: ScaledPotentialTable):
        self.table = table
        lat = table.lattice
        if len(lat) == 0:
            raise ValueError("lattice is empty")
        L = lat.L
        self.shape = (2 * L + 1,) * 3
        j = np.arange(2 * L + 1)
        # the phase jk is reduced mod 4L first, so equal phases give
        # bitwise equal cosines
        W = np.cos(TWO_PI * ((j[:, None] * j[None, :]) % (4 * L)) / (4 * L))
        W[1:-1] *= 2.0
        self._fwd = W[: L + 1]
        self._inv = W[:, : L + 1]
        # the kernel at every integer |d|^2 up to 3 (2L)^2, once each; each
        # j0 slab is gathered and transformed on its last two axes, then
        # the first axis in place, one j1 column of the cube at a time
        nsq = np.arange(12 * L * L + 1, dtype=float)
        vals = table.pot.vhat_radial(TWO_PI * np.sqrt(nsq) / table.N**table.beta)
        d2 = j * j
        self._kern_hat = np.empty(self.shape)
        for j0 in j:
            self._kern_hat[j0] = W.T @ vals[d2[j0] + d2[:, None] + d2] @ W
        for j1 in j:
            self._kern_hat[:, j1] = W.T @ self._kern_hat[:, j1]
        self._kern_hat /= float(4 * L) ** 3
        # output frequencies in near-equal blocks of at most 8, a few gemms each
        nblk = -(-(2 * L + 1) // 8)
        edges = (2 * L + 1) * np.arange(nblk + 1) // nblk
        self._blocks = [slice(*e) for e in zip(edges[:-1], edges[1:])]
        self._octant = lat.grid.reshape(self.shape)[L:, L:, L:]
        # each orbit's flat octant cell (a, b, c)
        a, b, c = lat.reps.T
        self._cell = (a * (L + 1) + b) * (L + 1) + c

    def __call__(self, values: np.ndarray) -> np.ndarray:
        fwd, inv = self._fwd, self._inv
        # the octant's -1 cells (outside the ball, the origin) read the 0
        x = np.append(values, 0.0)[self._octant]
        plane = x.shape[1:]
        x = x.reshape(len(x), -1)
        out = np.zeros_like(x)
        for k in self._blocks:
            spec = fwd.T @ (fwd[:, k].T @ x).reshape(-1, *plane) @ fwd
            spec *= self._kern_hat[k]
            # back on the last two axes; rebinding frees the block's spectrum
            spec = inv.T @ spec @ inv
            out += inv[k].T @ spec.reshape(len(spec), -1)
        return out.reshape(-1)[self._cell] - self.table.at_zero * values


def make_convolver(table: ScaledPotentialTable) -> _OctantConvolver:
    """Return the convolver of `table`: the potential convolution over
    q != p by the octant cosine transforms of `_OctantConvolver`, on one
    value per cubic orbit.

    It is the only convolver of a run, at every ball size: an exact
    double loop is slower at every size, and the tests hold this one to it
    at 1e-12.
    """
    return _OctantConvolver(table)


class ScatteringSolution(NamedTuple):
    """Solved eta table on a lattice ball, one value per cubic orbit, with
    solver metadata.

    The zero mode is fixed to eta_0 = 0 by convention; beyond the cutoff
    the first Born term -vhat(p/N^beta)/(2 p^2) serves as the tail rule.
    It refers to no convolver: the solve's belongs to its caller.
    """

    table: ScaledPotentialTable
    eta: np.ndarray
    iterations: int
    residual_norm: float

    @property
    def lattice(self) -> LatticeBall:
        return self.table.lattice


def _defect(table: ScaledPotentialTable, eta: np.ndarray, conv: np.ndarray):
    psq = table.lattice.psq
    return psq * eta + conv / (2.0 * table.N) + 0.5 * table.values


def solve_eta(convolve: _OctantConvolver) -> ScatteringSolution:
    """Damped fixed-point solution of the lattice scattering equation of
    `convolve.table`, convolving on `convolve`.

    Iterates to a max-norm residual of at most `TOL` within `MAX_ITER`
    iterations; otherwise, or at the first non-finite residual of a
    diverging solve, raises NonConvergence with the smallest residual met.
    """
    table = convolve.table
    psq = table.lattice.psq
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
        table=table, eta=best_eta, iterations=it, residual_norm=best_res
    )


def scattering_length(sol: ScatteringSolution) -> float:
    """Box scattering length a: 8*pi*a = vhat(0) + (1/N) sum_p vhat_p eta_p.

    The zero mode contributes vhat(0) exactly under the eta_0 = 0
    convention.  The sum stops at the ball; the report bounds the
    truncated part from the `born2_sum` tail (`a_tail_bound`).
    """
    table = sol.table
    s = table.lattice.total(table.values * sol.eta) / table.N
    return (table.at_zero + s) / (8.0 * np.pi)
