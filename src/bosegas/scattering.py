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
r != 0 equation to cancel the pairing term that G is built from.  Keeping the q = p term would leave vhat(0) eta_p / N uncancelled
in G.

Every run convolves on one cosine-transform convolver per potential table
(`make_convolver`); the exact double loop `conv_direct` is kept as the
reference the tests compare it against, as `dense_solve_eta` is for the
solver.  The solver iterates the fixed-point map from the first Born
term; the map contracts with a factor O(N^(beta-1)) in the targeted
regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonConvergence, NotCubicInvariant
from .lattice_potential import (
    TWO_PI,
    LatticeBall,
    Potential,
    ScaledPotentialTable,
    scaled_table,
)
from .sums import det_sum

DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 200


def conv_direct(table: ScaledPotentialTable, values: np.ndarray) -> np.ndarray:
    """(vhat_N^beta * values)_p over q != p by explicit double loop.

    The exact O(M^2) reference that tests hold the fast convolver to; no
    run path calls it.
    """
    lat = table.lattice
    pts = lat.points
    out = np.empty(len(lat), dtype=float)
    for i in range(len(lat)):
        diffs = pts[i] - pts
        kern = table.value_at(diffs)
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
    checked to be cubic-invariant (NotCubicInvariant otherwise) and the
    kernel is radial, so both are even along every axis and the period-4L
    DFT reduces per axis to the DCT-I  X_k = sum_{j=0}^{2L} w_j x_j
    cos(2 pi jk / 4L), w = (1, 2, ..., 2, 1), its own inverse up to 1/4L.
    The input scatters onto (L+1)^3 by |n_i|, the kernel is transformed
    once on (2L+1)^3 (`shape`), and the output is read back on (L+1)^3,
    each transform three products with one matrix.

    The transform includes q = p; vhat(0) * values_p is subtracted after.
    The output is replaced by its mean over each cubic orbit, which makes
    it bitwise cubic-invariant (a change below its 1e-12 budget against
    `conv_direct`), so every downstream table inherits the exact negation
    and cubic symmetry the orbit-reduced pair sums rely on.
    """

    def __init__(self, table: ScaledPotentialTable):
        self.table = table
        lat = table.lattice
        L = lat._L
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
        a = np.abs(lat.points)
        n = L + 1
        self._octant = (a[:, 0] * n + a[:, 1]) * n + a[:, 2]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        lat = self.table.lattice
        gap = lat.orbit_spread(values)
        if gap > 0.0:  # NaN passes: a diverging solve reports NonConvergence
            raise NotCubicInvariant(
                f"convolution input varies within a cubic orbit by {gap:.3e}"
            )
        n = self._fwd.shape[0]
        sig = np.zeros(n * n * n, dtype=float)
        sig[self._octant] = values
        spec = _apply(sig.reshape(n, n, n), self._fwd) * self._kern_hat
        out = _apply(spec, self._inv).reshape(-1)[self._octant]
        return lat.orbit_mean(out) - self.table.at_zero * values


def make_convolver(table: ScaledPotentialTable) -> _OctantConvolver:
    """Return the convolver of `table`: the potential convolution over
    q != p by the octant cosine transforms of `_OctantConvolver`, for
    cubic-invariant input.

    It is the only convolver of a run, at every ball size: the direct
    double loop `conv_direct` is slower at every size, and tests hold this
    one to it at 1e-12.
    """
    return _OctantConvolver(table)


@dataclass(frozen=True)
class ScatteringSolution:
    """Solved eta table on a lattice ball, with solver metadata.

    The zero mode is fixed to eta_0 = 0 by convention; beyond the cutoff
    the first Born term serves as the tail rule (see `eta_tail`).
    `convolve` is the solver's convolver on `table`, kept so the table
    build reuses it instead of setting up another.
    """

    table: ScaledPotentialTable
    eta: np.ndarray
    tol: float
    iterations: int
    residual_norm: float
    convolve: Callable = field(repr=False, compare=False)

    @property
    def lattice(self) -> LatticeBall:
        return self.table.lattice


def _defect(table: ScaledPotentialTable, eta: np.ndarray, conv: np.ndarray):
    psq = table.lattice.psq
    return psq * eta + conv / (2.0 * table.N) + 0.5 * table.values


def solve_eta(
    pot: Potential,
    lattice: LatticeBall,
    N: int,
    beta: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ScatteringSolution:
    """Damped fixed-point solution of the lattice scattering equation."""
    if tol <= 0:
        raise ValueError("tol must be positive")
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
    # this residual, not by tol
    floor = 64.0 * np.finfo(float).eps * max(table.at_zero, 1e-300)
    best_eta, best_res = eta, np.inf
    for it in range(1, max_iter + 1):
        defect = _defect(table, eta, convolve(eta))
        res = float(np.max(np.abs(defect)))
        if res < best_res:
            best_eta, best_res = eta, res
        if res <= tol and (res <= floor or res > 0.25 * prev_res):
            break
        if res > prev_res:
            # residual oscillation: marginal contraction, damp the step
            damping = max(0.125, 0.5 * damping)
        prev_res = res
        eta = eta - damping * defect / psq
    if best_res > tol:
        raise NonConvergence(max_iter, best_res)
    return ScatteringSolution(
        table=table,
        eta=best_eta,
        tol=tol,
        iterations=it,
        residual_norm=best_res,
        convolve=convolve,
    )


def residual(sol: ScatteringSolution) -> float:
    """Max-norm defect of the scattering equation, re-evaluated from scratch."""
    convolve = make_convolver(sol.table)
    return float(np.max(np.abs(_defect(sol.table, sol.eta, convolve(sol.eta)))))


def dense_solve_eta(
    pot: Potential, lattice: LatticeBall, N: int, beta: float
) -> np.ndarray:
    """Direct dense linear solve of the same truncated equation (oracle).

    The coupling matrix vhat(p-q)/(2N) has its diagonal set to zero (the
    q = p term is excluded, as in the solver), leaving p^2 there.
    """
    table = scaled_table(pot, lattice, N, beta)
    pts = lattice.points
    M = len(lattice)
    A = np.zeros((M, M), dtype=float)
    for i in range(M):
        A[i, :] = table.value_at(pts[i] - pts) / (2.0 * N)
    A[np.diag_indices(M)] = lattice.psq
    return np.linalg.solve(A, -0.5 * table.values)


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
    s = det_sum(table.values * sol.eta) / table.N
    return (table.at_zero + s) / (8.0 * np.pi)
