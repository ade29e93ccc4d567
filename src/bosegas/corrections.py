"""Beyond-quadratic energy pieces and the assembled report.

Two independent routes to the total ground-state energy:

  route A:  4*pi*(N-1)*a  +  E00  +  E_corr
  route B:  C_const  +  E0  +  e_pert_tilde  +  g2_expect

Route A uses the closed constants of the energy expansion; route B adds the
second-order perturbative pieces to the extensive constant and the
quadratic ground energy.  Their difference shrinks with N inside the
targeted regime and is reported with the macroscopic (N-1)/2*vhat(0) part
cancelled symbolically, since at realistic couplings the physical
discrepancy sits far below the rounding floor of the O(N) totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .bogoliubov import (
    BogoliubovTables,
    bogoliubov_ground_energy,
    constant_C,
    e00,
    e01,
    sc_minus_eta,
)
from .errors import InconsistentLattice, NotCubicInvariant
from .lattice_potential import _nsq_max, born2_sum
from .scattering import make_convolver, scattering_length
from .sums import Term, det_rows, det_sum


def c1_resolvent_summand(psq, vhat0: float):
    """1 / (S (p^2 + S)) with S = sqrt(p^4 + 2 p^2 vhat(0))."""
    psq = np.asarray(psq, dtype=float)
    S = np.sqrt(psq * (psq + 2.0 * vhat0))
    return 1.0 / (S * (psq + S))


def pair_weight(tables: BogoliubovTables) -> np.ndarray:
    """Per-momentum weight 4 (c_q st_q + ct_q s_q)^2 of the cubic channel.

    This is the large-momentum collapse of the symmetrized vertex: for
    |p| >> |q| the vertex tends to (vhat_p + vhat_{p+q}) (c st + ct s)_q/6,
    and squaring through the pair sum yields the factor 4 (verified against
    the unreduced double sum and the Fock oracle; a variant with weight
    2 ct s fails both cross-checks).
    """
    w = tables.c * tables.st + tables.ct * tables.s
    return 4.0 * w * w


class CConstants(NamedTuple):
    C1: float
    C2: float
    value: float


def c_constant(tables: BogoliubovTables) -> CConstants:
    """The dimensionless constants multiplying the second Born sum.

    C1 = sum_p (s_p c_p - eta_p) + 2 vhat(0)^2 sum_p 1/(S_p (p^2 + S_p)) ,
    C2 = sum_p 4 (c_p st_p + ct_p s_p)^2 .

    Note on normalization: with the inner bracket fixed as
    -(1/2N) sum vhat^2/(2p^2), matching the defining double sums requires
    the C1 coefficients above; the halved variants that sometimes
    accompany the other bracket normalization sum_p vhat^2/p^2 fail the
    route-agreement diagnostics by a factor 2 (tested).
    """
    vhat0 = tables.table.at_zero
    c1 = det_sum(sc_minus_eta(tables.eta)) + 2.0 * vhat0 * vhat0 * det_sum(
        c1_resolvent_summand(tables.lattice.psq, vhat0)
    )
    c2 = det_sum(pair_weight(tables))
    return CConstants(C1=c1, C2=c2, value=c1 + c2)


class _PairContext:
    """The K2-ball of the cubic pair sum in cubic-orbit order, with each
    p + q read through the K ball's own grid.

    `sub` is the K2 sub-table (`ScaledPotentialTable.sub_table`, which
    rejects K2 beyond the tables' cutoff); its lattice gives the points and
    M2.  `order` lists them by cubic orbit (a stable argsort of `orbit`),
    so each orbit is one run that starts at its first member, and every
    array below is in that order: `fac` holds the rows (X, Y, P, Q, vX,
    vY) of `vertex_factors` and the dispersion e, `neg[i]` the position of
    -p_i.  For p, q in the K2-ball, |p + q|^2 <= 4 max |n|^2(K2) lies
    inside the K ball unless 2 K2 > K up to shells, which raises
    InconsistentLattice: the gather would read wrong entries, not fail.
    The K ball's dense grid `grid` maps p_i + q_j, at `base[i] + flat[j]`,
    to its index in the K ball's `tables`, and to -1 at j = neg[i]; -1
    reads their last entry, a real one, and the row zeroes that term.
    """

    def __init__(self, tables: BogoliubovTables, K2: float):
        lat = tables.lattice
        self.tables = tables
        self.sub = tables.table.sub_table(K2)
        sub_lat = self.sub.lattice
        self.M2 = len(sub_lat)
        if 4 * _nsq_max(K2) > _nsq_max(lat.cutoff_K):
            raise InconsistentLattice(
                f"pair sums at K2 = {K2} reach |p + q| = 2 K2 beyond the "
                f"cutoff {lat.cutoff_K}"
            )
        o = self.order = np.argsort(sub_lat.orbit, kind="stable")
        self.neg = np.argsort(o)[sub_lat.negation_index()[o]]
        # the K2 points are the K ball's first M2, so o indexes its tables
        self.fac = np.stack([
            *vertex_factors(tables.table.values[o], tables.c[o], tables.s[o],
                            tables.ct[o], tables.st[o]),
            tables.e[o],
        ])
        self.grid = lat._grid
        side = 2 * lat._L + 1
        self.flat = sub_lat.points[o] @ np.array([side * side, side, 1], dtype=np.int64)
        self.base = self.flat + len(self.grid) // 2  # the center is p + q = 0


def vertex_factors(v, c, s, ct, st):
    """Per-momentum factors (X, Y, P, Q, vX, vY) of the cubic vertex:
    X = c ct, Y = c st, P = c st + s ct, Q = c ct + s st."""
    X = c * ct
    Y = c * st
    return X, Y, Y + s * ct, X + s * st, v * X, v * Y


def symmetrized_vertex(fa, fb, fc):
    """Vertex f of the triple (a, b, c) = (p, q, -p-q) from each slot's
    `vertex_factors`.  Conjugating the cubic channel with the diagonalizing
    squeezing and collecting its pure-creation content on the vacuum gives,
    for one ordered assignment (a carries the potential, b annihilates),
    the raw amplitude

        g(a, b, c) = v_a c_a c_c (ct_a ct_c P_b + st_a st_c Q_b)
                   = vX_a X_c P_b + vY_a Y_c Q_b ;

    f is its mean over the six orderings, grouped by the middle slot (the
    tables are even, so negated slots reuse the same values).
    """
    Xa, Ya, Pa, Qa, vXa, vYa = fa
    Xb, Yb, Pb, Qb, vXb, vYb = fb
    Xc, Yc, Pc, Qc, vXc, vYc = fc
    return (
        (vXb * Xc + vXc * Xb) * Pa + (vYb * Yc + vYc * Yb) * Qa
        + (vXa * Xc + vXc * Xa) * Pb + (vYa * Yc + vYc * Ya) * Qb
        + (vXa * Xb + vXb * Xa) * Pc + (vYa * Yb + vYb * Ya) * Qc
    ) / 6.0


def _f_rows(ctx: _PairContext, i: int):
    """f(p, q) and e(p + q) for the point p at orbit-order position i and
    every q from position i on, f zero at q = -p.  The p + q slot gathers
    the K ball's tables and takes its `vertex_factors` on the gather."""
    idx = ctx.grid[ctx.base[i] + ctx.flat[i:]]
    tb = ctx.tables
    fpq = vertex_factors(tb.table.values[idx], tb.c[idx], tb.s[idx],
                         tb.ct[idx], tb.st[idx])
    f = symmetrized_vertex(ctx.fac[:6, i], ctx.fac[:6, i:], fpq)
    if ctx.neg[i] >= i:
        f[ctx.neg[i] - i] = 0.0
    return f, tb.e[idx]


def e_pert_tilde(tables: BogoliubovTables, K2: float) -> Term:
    """Second-order energy of the cubic channel:

        -(6/N) sum_{p,q, p+q != 0} f(p,q)^2 / (e(p+q) + e(p) + e(q)) .

    Pair sum over the K2-ball; each row reads its p+q from the K ball's
    tables through `_PairContext`, so the sum needs 2 K2 <= K.  The
    |p| > K2 continuum tail factors through the reduced pair weight C2
    (`c_constant`).

    The tables are constant on cubic orbits (checked) and the K2-ball is a
    union of whole orbits, so the q-sum of row p depends on p's orbit
    only, and the summand is symmetric in p <-> q.  So one row per orbit
    k, at its first member, runs over the q of orbits >= k only, the terms
    of orbits > k doubled (exactly); the rows, each summed exactly and
    repeated by its orbit size, are summed exactly again.  Every summand
    is bitwise a term of the full row sum, or twice one; the result is
    within a few ulps of that sum's exact value, as each row and the total
    are rounded once and the computed summand is symmetric only up to its
    own rounding.
    """
    ctx = _PairContext(tables, K2)
    lat = tables.lattice
    for name in ("c", "s", "ct", "st", "e"):
        gap = lat.orbit_spread(getattr(tables, name))
        if gap > 0.0:
            raise NotCubicInvariant(
                f"table {name} varies within a cubic orbit by {gap:.3e}"
            )
    sizes = ctx.sub.lattice.orbit_size
    starts = np.cumsum(sizes) - sizes
    e = ctx.fac[6]

    def row(k: int) -> float:
        i = int(starts[k])
        f, epq = _f_rows(ctx, i)
        t = f * f / (epq + e[i] + e[i:])
        t[sizes[k]:] *= 2.0
        return det_sum(t)

    rows = det_rows(row, len(sizes))
    ball = -(6.0 / tables.N) * det_sum(np.repeat(rows, sizes))
    t2x = born2_sum(ctx.sub).tail
    tail = det_sum(pair_weight(tables)) * (-t2x / (2.0 * tables.N))
    return Term(ball, tail)


def g2_expectation(tables: BogoliubovTables, K2: float) -> float:
    """Quartic-channel vacuum expectation:

        (1/2N) sum_{p, r, p+r != 0} vhat_r c_{p+r}^2 c_p^2 st_{p+r} st_p
                         * ( ct_{p+r} ct_p  +  st_{p+r} st_p ) ,

    evaluated over pairs (p, p+r) in the K2-ball (outside it the squeezed
    weight st vanishes under the tail policy, so the pair form is the
    whole sum).  With q = p+r it is (1/2N) sum_p [w_p (vhat * w)_p +
    w2_p (vhat * w2)_p], w = c^2 st ct and w2 = c^2 st^2, the
    convolutions over q != p running on the convolver of the K2
    sub-table (`ScaledPotentialTable.sub_table`; both weights are
    cubic-invariant) and the p-sums exactly.  The second Wick pairing,
    quartic in the squeezing, is negligible at physical couplings but
    kept for exactness against the Fock oracle.
    """
    sub = tables.table.sub_table(K2)
    convolve = make_convolver(sub)
    M2 = len(sub.values)
    c, st, ct = tables.c[:M2], tables.st[:M2], tables.ct[:M2]
    w = c * c * st * ct
    w2 = c * c * st * st
    return det_sum(
        [det_sum(w * convolve(w)), det_sum(w2 * convolve(w2))]
    ) / (2.0 * tables.N)


def depletion(tables) -> float:
    """Expected number of particles outside the condensate.

    The two same-mode squeezings compose additively in their parameters,
    so the occupation of mode p in the approximate ground state is
    sinh^2(eta_p + tau_p).  Reads only eta and tau: it also runs on
    `fock.RestrictedTables`.
    """
    x = np.sinh(tables.eta + tables.tau)
    return det_sum(x * x)


@dataclass(frozen=True)
class EnergyReport:
    """All assembled energy terms with truncation metadata.

    `E01`, `e_pert_tilde` and `born2` (the inner sum of `E_corr`) are
    Terms: their continuum tails are in their values.  `E00_tail` and
    `a_tail_bound` are estimates that are not.
    """

    N: int
    beta: float
    kappa: float
    R: float
    cutoff_K: float
    cutoff_K2: float
    a_box: float
    a_tail_bound: float
    leading: float
    E00: float
    E00_tail: float
    E01: Term
    C1: float
    C2: float
    C_NB: float
    E_corr: float
    born2: Term
    g2_expect: float
    e_pert_tilde: Term
    E0: float
    C_const: float
    total_route_A: float
    total_route_B: float
    route_discrepancy: float
    corr_minus_parts: float
    depletion: float
    depletion_fraction: float
    residual_norm: float
    iterations: int
    warnings: tuple = field(default_factory=tuple)
    # wall times: equal reports may differ in them
    t_scatter_ms: float = field(default=0.0, compare=False)
    t_sums_ms: float = field(default=0.0, compare=False)

    CSV_COLUMNS = (
        "N", "beta", "kappa", "a_box", "leading", "E00", "E01", "C1", "C2",
        "E_corr", "g2_expect", "e_pert_tilde", "E0", "C_const", "total_A",
        "total_B", "route_discrepancy", "depletion", "t_scatter_ms",
        "t_sums_ms",
    )

    def csv_values(self) -> tuple:
        return (
            self.N, self.beta, self.kappa, self.a_box, self.leading,
            self.E00, self.E01.value, self.C1, self.C2, self.E_corr,
            self.g2_expect, self.e_pert_tilde.value, self.E0, self.C_const,
            self.total_route_A, self.total_route_B, self.route_discrepancy,
            self.depletion, self.t_scatter_ms, self.t_sums_ms,
        )

    def flat(self) -> dict:
        """Every field under its report key; a Term `x` gives `x`, `x_ball`
        and `x_tail`."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, Term):
                out[f.name + "_ball"] = v.ball
                out[f.name + "_tail"] = v.tail
                v = v.value
            out[f.name] = v
        return out


def assemble_report(tables: BogoliubovTables, K2: float) -> EnergyReport:
    """Compute every report quantity on one consistent lattice pair (K, K2).

    The route discrepancy is evaluated with the common (N-1)/2*vhat(0)
    term cancelled symbolically: both routes are reduced to their excess
    over it before subtraction, keeping the comparison meaningful at
    absolute scales far below the rounding floor of the totals.
    """
    lat = tables.lattice
    sol = tables.sol
    N = tables.N
    pot = tables.table.pot

    a = scattering_length(sol)
    leading = 4.0 * np.pi * (N - 1) * a
    leading_excess = (N - 1) / (2.0 * N) * det_sum(
        tables.table.values * sol.eta
    )
    e00_res = e00(tables.table.at_zero, lat)
    e01_res = e01(tables, K2)
    cc = c_constant(tables)
    born2 = born2_sum(tables.table)
    # E_corr = C_{N,beta} * ( -(1/2N) sum_p vhat_p^2/(2p^2) )
    e_corr = cc.value * (-born2.value / (2.0 * N))
    g2 = g2_expectation(tables, K2)
    ept = e_pert_tilde(tables, K2)
    e0 = bogoliubov_ground_energy(tables)
    big_c = constant_C(tables)
    depl = depletion(tables)

    total_a = det_sum([leading, e00_res.value, e_corr])
    total_b = det_sum([big_c.value, e0, ept.value, g2])
    discrepancy = abs(
        det_sum(
            [
                leading_excess,
                e00_res.value,
                e_corr,
                -big_c.excess,
                -e0,
                -ept.value,
                -g2,
            ]
        )
    )
    corr_minus_parts = det_sum(
        [e_corr, -e01_res.value, -ept.value, -g2]
    )

    return EnergyReport(
        N=N,
        beta=tables.beta,
        kappa=pot.kappa,
        R=pot.R,
        cutoff_K=lat.cutoff_K,
        cutoff_K2=float(K2),
        a_box=a,
        # a_box's truncated sum, from the Born tail with a factor-2 margin
        a_tail_bound=2.0 * born2.tail / N / (8.0 * np.pi),
        leading=leading,
        E00=e00_res.value,
        E00_tail=e00_res.tail_estimate,
        E01=e01_res,
        C1=cc.C1,
        C2=cc.C2,
        C_NB=cc.value,
        E_corr=e_corr,
        born2=born2,
        g2_expect=g2,
        e_pert_tilde=ept,
        E0=e0,
        C_const=big_c.value,
        total_route_A=total_a,
        total_route_B=total_b,
        route_discrepancy=discrepancy,
        corr_minus_parts=corr_minus_parts,
        depletion=depl,
        depletion_fraction=depl / N,
        residual_norm=sol.residual_norm,
        iterations=sol.iterations,
        warnings=tables.warnings,
    )
