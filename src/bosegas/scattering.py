"""Momentum-space scattering equation on the truncated lattice.

For p in the ball the solved table satisfies

    p^2 eta_p + (1/2N) sum_{q != p} vhat((p-q)/N^beta) eta_q = -vhat(p/N^beta)/2 ,

with the q-sum over the ball excluding q = p, the r = p - q = 0 term.
This is the one convention of the package: every convolver built here
excludes that term, so `bogoliubov.cs_convolution`, and through it F, G
and the constant C, exclude it too.  On the N-particle space the r = 0
part of the interaction is vhat(0)/(2N) * n(n-1) = (N-1) vhat(0)/2, a
constant that the macroscopic and leading terms already carry; eta must
solve the r != 0 equation to cancel the pairing term that G is built
from.  Keeping the q = p term would leave vhat(0) eta_p / N uncancelled
in G.

The solver iterates the fixed-point map from the first Born term; the map
contracts with a factor O(N^(beta-1)) in the targeted regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonConvergence, NotCubicInvariant
from .lattice_potential import (
    TWO_PI,
    LatticeBall,
    Potential,
    ScaledPotentialTable,
    born2_sum,
    scaled_table,
)
from .sums import det_sum

# Direct O(M^2) convolution below this point count, periodic FFT
# convolution on a 4L+1-period grid above; the two paths agree to 1e-12
# (tested).
DIRECT_CONV_MAX_POINTS = 5000

DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 200


def conv_direct(table: ScaledPotentialTable, values: np.ndarray) -> np.ndarray:
    """(vhat_N^beta * values)_p over q != p by explicit double loop."""
    lat = table.lattice
    pts = lat.points
    out = np.empty(len(lat), dtype=float)
    for i in range(len(lat)):
        diffs = pts[i] - pts
        kern = table.value_at(diffs)
        kern[i] = 0.0
        out[i] = det_sum(kern * values)
    return out


def _next_five_smooth(n: int) -> int:
    """Smallest integer >= n with no prime factor above 5 (a fast FFT size)."""
    while True:
        m = n
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        if m == 1:
            return n
        n += 1


_AXES = (0, 1, 2)


class _FFTConvolver:
    """Periodic FFT convolution with a cached kernel transform.

    The ball lies in [-L, L]^3, so p - q only spans [-2L, 2L] per axis.
    On a periodic grid of period P >= 4L+1 those offsets are distinct mod
    P, so a kernel stored wrapped (offset d at index d mod P) gives the
    exact linear convolution on the [0, 2L]^3 output window: no wrapped
    term can reach it.  P is the smallest 5-smooth integer >= 4L+1.

    The transform covers q = p too; that term, vhat(0) * values_p, is
    subtracted after the transform.  Input must be invariant under the
    cubic group of the lattice (every physical input is: eta, c*s and the
    pair-sum weights are functions of |p| and of tables that are), and is
    checked in O(M); anything else raises NotCubicInvariant.  For such
    input the exact convolution is cubic-invariant too, but the raw
    transform output is not bitwise so: it is replaced by its mean over
    each cubic orbit (a change below the 1e-12 path-agreement budget).
    The orbits contain -p, so every downstream table inherits exact
    negation and cubic symmetry, which the orbit-reduced pair sums rely on.
    """

    def __init__(self, table: ScaledPotentialTable):
        self.table = table
        lat = table.lattice
        L = lat._L
        self.side = side = 2 * L + 1
        P = _next_five_smooth(4 * L + 1)
        self.shape = (P, P, P)
        # |d| for the offset stored at each index; indices between 2L and
        # P - 2L hold offsets beyond 2L, which never reach the window
        ax = np.minimum(np.arange(P), P - np.arange(P))
        d2 = (ax**2)[:, None, None] + (ax**2)[None, :, None] + (ax**2)[None, None, :]
        rho = TWO_PI * np.sqrt(d2.astype(float)) / table.N**table.beta
        self.kern_fft = np.fft.rfftn(table.pot.vhat_radial(rho), axes=_AXES)
        flat_idx = lat.points + L
        self._grid_idx = (
            (flat_idx[:, 0] * side + flat_idx[:, 1]) * side + flat_idx[:, 2]
        )

    def __call__(self, values: np.ndarray) -> np.ndarray:
        gap = self.table.lattice.orbit_spread(values)
        if gap > 0.0:  # NaN passes: a diverging solve reports NonConvergence
            raise NotCubicInvariant(
                f"convolution input varies within a cubic orbit by {gap:.3e}"
            )
        side = self.side
        sig = np.zeros(side * side * side, dtype=float)
        sig[self._grid_idx] = values
        sig_fft = np.fft.rfftn(sig.reshape(side, side, side), s=self.shape, axes=_AXES)
        full = np.fft.irfftn(self.kern_fft * sig_fft, s=self.shape, axes=_AXES)
        out = full[:side, :side, :side].reshape(-1)[self._grid_idx]
        return self.table.lattice.orbit_mean(out) - self.table.at_zero * values


def make_convolver(table: ScaledPotentialTable, method: str | None = None):
    """Return a callable computing the potential convolution over q != p.

    Without `method`, tables up to DIRECT_CONV_MAX_POINTS points use the
    exact O(M^2) `conv_direct` and larger ones the O(M log M) FFT path,
    which accepts cubic-invariant input only (see `_FFTConvolver`).
    """
    if method is None:
        method = "direct" if len(table.lattice) <= DIRECT_CONV_MAX_POINTS else "fft"
    if method == "direct":
        return lambda values: conv_direct(table, values)
    if method == "fft":
        return _FFTConvolver(table)
    raise ValueError(f"unknown convolution method {method!r}")


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
    N: int
    beta: float
    tol: float
    iterations: int
    residual_norm: float
    convolve: Callable = field(repr=False, compare=False)
    tail_rule: str = "first Born: -vhat(p/N^beta)/(2 p^2)"

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
    conv_method: str | None = None,
) -> ScatteringSolution:
    """Damped fixed-point solution of the lattice scattering equation."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if len(lattice) == 0:
        raise ValueError("lattice is empty")
    table = scaled_table(pot, lattice, N, beta)
    convolve = make_convolver(table, conv_method)
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
            return ScatteringSolution(
                table=table,
                eta=best_eta,
                N=int(N),
                beta=float(beta),
                tol=tol,
                iterations=it,
                residual_norm=best_res,
                convolve=convolve,
            )
        if res > prev_res:
            # residual oscillation: marginal contraction, damp the step
            damping = max(0.125, 0.5 * damping)
        prev_res = res
        eta = eta - damping * defect / psq
    if best_res <= tol:
        return ScatteringSolution(
            table=table, eta=best_eta, N=int(N), beta=float(beta), tol=tol,
            iterations=max_iter, residual_norm=best_res, convolve=convolve,
        )
    raise NonConvergence(max_iter, best_res)


def residual(sol: ScatteringSolution, conv_method: str | None = None) -> float:
    """Max-norm defect of the scattering equation, re-evaluated from scratch."""
    convolve = make_convolver(sol.table, conv_method)
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


class ScatteringLength(NamedTuple):
    value: float
    tail_bound: float


def scattering_length(sol: ScatteringSolution) -> ScatteringLength:
    """Box scattering length: 8*pi*a = vhat(0) + (1/N) sum_p vhat_p eta_p.

    The zero mode contributes vhat(0) exactly under the eta_0 = 0
    convention.  The returned tail bound covers the truncated part of the
    sum, estimated from the Born tail rule with a factor-2 margin.
    """
    table = sol.table
    s = det_sum(table.values * sol.eta) / sol.N
    _, tail = born2_sum(table)
    return ScatteringLength(
        value=(table.at_zero + s) / (8.0 * np.pi),
        tail_bound=2.0 * tail / sol.N / (8.0 * np.pi),
    )
