"""Coefficient tables and scalar constants of the quadratic diagonalization.

From a converged scattering solution this module builds the per-momentum
hyperbolic tables s_p, c_p, the convolution (vhat * cs)_p, the quadratic
coefficients F_p, G_p, the diagonalizing angles tau_p with their
hyperbolics, and the dispersion e_p = sqrt(F_p^2 - G_p^2), plus the scalar
constants: the extensive constant C, the quadratic ground energy, and the
order-one / order-N^(beta-1) vacuum-energy terms.

The interaction is radial, so every table, like the eta it is built from,
is one value per cubic orbit of the ball; a ball sum repeats each value by
its orbit size (`LatticeBall.total`), bitwise the sum over the points.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import DiagonalizationFailure
from .lattice_potential import LatticeBall, ScaledPotentialTable
from .scattering import ScatteringSolution, _OctantConvolver
from .sums import Term, det_sum

_SC_SERIES_RADIUS = 1e-3


def sc_minus_eta(eta: np.ndarray) -> np.ndarray:
    """sinh(x)cosh(x) - x, evaluated without cancellation.

    For |x| < 1e-3 the direct form loses ~10 digits; the series
    (2/3)x^3 + (2/15)x^5 + (4/315)x^7 is exact to double precision there.
    """
    eta = np.asarray(eta, dtype=float)
    x2 = eta * eta
    series = eta * x2 * (2.0 / 3.0 + x2 * (2.0 / 15.0 + x2 * (4.0 / 315.0)))
    direct = np.sinh(eta) * np.cosh(eta) - eta
    return np.where(np.abs(eta) < _SC_SERIES_RADIUS, series, direct)


def coefficients_FG(
    table: ScaledPotentialTable,
    s: np.ndarray,
    c: np.ndarray,
    cs_conv: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    psq = table.lattice.psq
    v = table.values
    N = table.N
    cs = c * s
    c2s2 = c * c + s * s
    cps2 = (c + s) ** 2
    F = c2s2 * psq + cps2 * v + (2.0 / N) * cs_conv * cs
    G = 2.0 * cs * psq + cps2 * v + (1.0 / N) * cs_conv * c2s2
    return F, G


def tau_table(
    F: np.ndarray, G: np.ndarray, lattice: LatticeBall, N: int, kappa: float
) -> np.ndarray:
    """Diagonalizing angles: tanh(2 tau_p) = -G_p/F_p.

    Computed as tau = (1/4) [log1p(-G/F) - log1p(G/F)].  Where |G| >= F
    it raises DiagonalizationFailure at the first such orbit's first
    member in canonical order, (-c, -b, -a) for its sorted |n| = (a, b, c).
    """
    g = G / F
    bad = ~(np.abs(g) < 1.0)  # NaN too: F and G have left the float range
    if np.any(bad):
        i = int(np.argmax(np.abs(g)))
        raise DiagonalizationFailure(
            -lattice.reps[i, ::-1], float(abs(g[i])), N, kappa
        )
    return 0.25 * (np.log1p(-g) - np.log1p(g))


def dispersion(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Quasiparticle energies sqrt(F^2 - G^2)."""
    return np.sqrt((F - G) * (F + G))


class BogoliubovTables(NamedTuple):
    """All per-momentum tables of one solution, one value per cubic orbit
    of its lattice (`LatticeBall`), aligned with `lattice.reps`.

    Read a table at a point through `lattice.lookup`; sum it over the
    ball with `total`.  No field refers to a convolver: `build_tables`
    borrows its caller's, so the K ball's kernel spectrum is freed once
    `pipeline.run_tables` returns.
    """

    sol: ScatteringSolution
    s: np.ndarray
    c: np.ndarray
    cs_conv: np.ndarray
    F: np.ndarray
    G: np.ndarray
    tau: np.ndarray
    st: np.ndarray          # sinh(tau)
    ct: np.ndarray          # cosh(tau)
    e: np.ndarray           # dispersion
    warnings: tuple = ()

    @property
    def lattice(self) -> LatticeBall:
        return self.sol.lattice

    @property
    def table(self) -> ScaledPotentialTable:
        return self.sol.table

    @property
    def N(self) -> int:
        return self.sol.table.N

    @property
    def beta(self) -> float:
        return self.sol.table.beta

    @property
    def eta(self) -> np.ndarray:
        return self.sol.eta

    def total(self, values: np.ndarray) -> float:
        """Exact sum of an orbit table over the points of the ball."""
        return self.sol.lattice.total(values)


def build_tables(
    sol: ScatteringSolution, convolve: Callable[[np.ndarray], np.ndarray]
) -> BogoliubovTables:
    """All tables from a solution and the convolver of its table, which
    they do not keep."""
    s, c = np.sinh(sol.eta), np.cosh(sol.eta)
    # (vhat_N^beta * cs)_p = sum_{q != p} vhat((p-q)/N^beta) c_q s_q.  The
    # q = p term is excluded, as in the scattering equation: its r = 0
    # interaction is the constant (N-1) vhat(0)/2 already carried by the
    # macroscopic term, so G's leading part is twice the solver defect.
    conv = convolve(c * s)
    F, G = coefficients_FG(sol.table, s, c, conv)
    tau = tau_table(F, G, sol.lattice, sol.table.N, sol.table.pot.kappa)
    e = dispersion(F, G)
    warnings = []
    psq = sol.lattice.psq
    if np.any(F < 0.5 * psq):
        warnings.append("F_p >= p^2/2 violated; coupling out of regime")
    ratio = np.max(np.abs(G / F))
    if ratio > 0.5:
        warnings.append(
            f"|G_p|/F_p <= 1/2 violated (max {ratio:.3g}); "
            "coupling out of regime"
        )
    return BogoliubovTables(
        sol=sol,
        s=s,
        c=c,
        cs_conv=conv,
        F=F,
        G=G,
        tau=tau,
        st=np.sinh(tau),
        ct=np.cosh(tau),
        e=e,
        warnings=tuple(warnings),
    )


class ScalarWithTail(NamedTuple):
    value: float
    tail_estimate: float


def bogoliubov_ground_energy(tables) -> float:
    """Ground energy of the quadratic form: (1/2) sum_p (-F_p + e_p).

    Summed in the cancellation-free form -G_p^2 / (2 (F_p + e_p)); the
    summand decays like |p|^-6 so the ball sum converges absolutely.
    Reads only F, G, e and `total`: it also runs on
    `fock.RestrictedTables`.
    """
    F, G, e = tables.F, tables.G, tables.e
    return tables.total(-G * G / (2.0 * (F + e)))


class ExtensiveConstant(NamedTuple):
    """The order-N constant C and its excess over the macroscopic term.

    `excess` is the value minus the macroscopic (N-1)/2 * vhat(0) term;
    route comparisons use it so that the O(N) piece cancels symbolically
    instead of numerically.
    """

    value: float
    excess: float


def constant_C(tables: BogoliubovTables) -> ExtensiveConstant:
    t = tables.table
    lat = tables.lattice
    N = tables.N
    s, c, conv = tables.s, tables.c, tables.cs_conv
    cs = c * s
    v = t.values
    excess = det_sum(
        [
            lat.total((lat.psq + v) * s * s),             # kinetic pairing
            lat.total(v * cs),                            # potential cs
            lat.total(conv * cs) / (2.0 * N),             # convolution cs
            -lat.total(v * (0.5 * cs + cs * s * s)) / N,  # cubic remainder
        ]
    )
    return ExtensiveConstant(value=0.5 * (N - 1) * t.at_zero + excess,
                             excess=excess)


def e00_summand(psq: np.ndarray, vhat0: float) -> np.ndarray:
    """-p^2 - vhat(0) + sqrt(p^4 + 2 p^2 vhat(0)) + vhat(0)^2/(2 p^2),

    rearranged so every addition is of positive terms (the direct form
    cancels to |p|^-4 smallness out of p^2-scale quantities).
    """
    S = np.sqrt(psq * (psq + 2.0 * vhat0))
    t = 2.0 * psq * vhat0 / (S + psq)
    return vhat0 * vhat0 * (t + vhat0) / (2.0 * psq * (S + psq + vhat0))


def e00(vhat0: float, lattice: LatticeBall) -> ScalarWithTail:
    """Order-one vacuum energy, ball sum plus |p|^-4 tail estimate."""
    value = 0.5 * lattice.total(e00_summand(lattice.psq, vhat0))
    tail = 1.5 * vhat0**3 / (8.0 * np.pi**2 * lattice.cutoff_K)
    return ScalarWithTail(value, tail)


def e01(tables: BogoliubovTables, convolve: _OctantConvolver,
        born2_tail: float) -> Term:
    """Order-N^(beta-1) vacuum-energy term.

    Two double sums over the K2-ball with the p = q diagonal excluded:

      -(1/2N) sum_{p!=q} vhat(p-q) (s_p c_p - eta_p) [s_q c_q + vhat_q/q^2]
      +(1/N)  sum_{p!=q} vhat_p^2 vhat(p-q) s_q c_q / (S_p (p^2 + S_p)) .

    Each q-sum is a convolution over q != p, evaluated for all p at once
    on `convolve`, the convolver of the K2 sub-table that
    `corrections.assemble_report` cuts and lends, whose transform grid
    fits K2 rather than the full cutoff; the p-sums are exact.  The
    result agrees with the explicit pair loop to a few ulps relative.

    The q-sums grow like N^beta through momenta beyond any practical ball;
    their continuum tails factor against the p-sums (Born closure for
    s_q c_q, nearest-argument closure for vhat(p-q)) and make the tail,
    with `born2_tail` the tail of `born2_sum` on the sub-table.
    """
    sub = convolve.table
    N = tables.N
    n2 = len(sub.values)
    lat = sub.lattice
    psq = lat.psq
    v = sub.values
    scm = sc_minus_eta(tables.eta[:n2])
    sc = (tables.s * tables.c)[:n2]
    S = np.sqrt(psq * (psq + 2.0 * v))
    w2 = v * v / (S * (psq + S))
    bracket = sc + v / psq

    ball = det_sum(
        [
            -lat.total(scm * convolve(bracket)) / (2.0 * N),
            lat.total(w2 * convolve(sc)) / N,
        ]
    )

    # factored q-tail: bracket -> vhat_q/(2 q^2), vhat(p-q) -> vhat(q)
    tail = (lat.total(scm) + 2.0 * lat.total(w2)) * (-born2_tail / (2.0 * N))
    return Term(ball, tail)
