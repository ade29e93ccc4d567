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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bogoliubov import (
    BogoliubovTables,
    ball_prefix,
    bogoliubov_ground_energy,
    constant_C,
    e00,
    e01,
    sc_minus_eta,
    sub_ball_convolver,
)
from .errors import InconsistentLattice, NotCubicInvariant, ZeroMomentumArgument
from .lattice_potential import born2_sum
from .scattering import scattering_length
from .sums import det_rows, det_sum


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
    c1 = det_sum(sc_minus_eta(tables.sol.eta)) + 2.0 * vhat0 * vhat0 * det_sum(
        c1_resolvent_summand(tables.lattice.psq, vhat0)
    )
    c2 = det_sum(pair_weight(tables))
    return CConstants(C1=c1, C2=c2, value=c1 + c2)


class ECorr(NamedTuple):
    value: float
    inner_ball: float
    inner_tail: float


def e_corr(c_nb: float, tables: BogoliubovTables) -> ECorr:
    """E_corr = C_{N,beta} * ( -(1/2N) sum_p vhat_p^2/(2p^2) ).

    The inner sum is O(N^beta); its continuum tail beyond the ball is part
    of the defining value and is included (and reported separately).
    """
    ball, tail = born2_sum(tables.table)
    inner = -(ball + tail) / (2.0 * tables.N)
    return ECorr(value=c_nb * inner, inner_ball=ball, inner_tail=tail)


class _PairContext:
    """Shared per-momentum arrays for the K2-ball pair sums."""

    def __init__(self, tables: BogoliubovTables, K2: float):
        lat = tables.lattice
        if K2 > lat.cutoff_K * (1.0 + 1e-12):
            raise InconsistentLattice(
                f"pair-sum cutoff {K2} exceeds the table cutoff {lat.cutoff_K}"
            )
        self.tables = tables
        self.K2 = float(K2)
        self.M2 = ball_prefix(lat, K2)
        self.pts = lat.points[: self.M2]
        self.psq = lat.psq[: self.M2]
        self.v = tables.table.values[: self.M2]
        self.c = tables.c[: self.M2]
        self.s = tables.s[: self.M2]
        self.ct = tables.ct[: self.M2]
        self.st = tables.st[: self.M2]
        self.e = tables.e[: self.M2]

    def resolve(self, trips: np.ndarray):
        """Tables at arbitrary triples: ball lookup where possible, the
        first-Born closure (tau = 0) plus closed-form dispersion outside."""
        tb = self.tables
        lat = tb.lattice
        idx = lat.lookup(trips)
        inside = idx >= 0
        safe = np.where(inside, idx, 0)
        c = np.where(inside, tb.c[safe], 1.0)
        s = np.where(inside, tb.s[safe], 0.0)
        ct = np.where(inside, tb.ct[safe], 1.0)
        st = np.where(inside, tb.st[safe], 0.0)
        v = np.where(inside, tb.table.values[safe], 0.0)
        e = np.where(inside, tb.e[safe], 0.0)
        out = ~inside
        if np.any(out):
            t_out = trips[out]
            v_out = tb.table.value_at(t_out)
            nsq = np.sum(t_out * t_out, axis=-1).astype(float)
            psq_out = np.maximum((2.0 * np.pi) ** 2 * nsq, 1.0)  # zero rows masked by callers
            eta_b = -v_out / (2.0 * psq_out)
            c[out] = np.cosh(eta_b)
            s[out] = np.sinh(eta_b)
            v[out] = v_out
            e[out] = np.sqrt(psq_out * (psq_out + 2.0 * v_out))
        return c, s, ct, st, v, e


def _g_vertex(sp1, sp2, sp3):
    """Raw triple-creation amplitude of the cubic channel for one ordered
    slot assignment: slot 1 = p (carries the potential), slot 2 = q
    (the annihilator slot), slot 3 = p + q.

    Obtained by conjugating the cubic channel with the diagonalizing
    squeezing and collecting the pure-creation content on
    the vacuum.
    """
    v1, c1, s1, ct1, st1 = sp1
    _, c2, s2, ct2, st2 = sp2
    _, c3, s3, ct3, st3 = sp3
    return (
        v1
        * c3
        * c1
        * (
            c2 * (ct3 * ct1 * st2 + ct2 * st1 * st3)
            + s2 * (ct3 * ct1 * ct2 + st3 * st1 * st2)
        )
    )


def symmetrized_vertex(slot_p, slot_q, slot_pq):
    """Vertex f(p, q): average of the raw amplitude over the six ordered
    representatives of the triple (p, q, -p-q); the tables are even, so
    negated slots reuse the same values."""
    return (
        _g_vertex(slot_p, slot_q, slot_pq)
        + _g_vertex(slot_q, slot_p, slot_pq)
        + _g_vertex(slot_pq, slot_q, slot_p)
        + _g_vertex(slot_q, slot_pq, slot_p)
        + _g_vertex(slot_pq, slot_p, slot_q)
        + _g_vertex(slot_p, slot_pq, slot_q)
    ) / 6.0


def _f_rows(ctx: _PairContext, i: int):
    """f(p_i, q) for all q in the K2-ball, plus the p+q = 0 mask."""
    trips = ctx.pts[i] + ctx.pts
    zero = np.all(trips == 0, axis=1)
    cpq, spq, ctpq, stpq, vpq, epq = ctx.resolve(trips)
    slot_p = (ctx.v[i], ctx.c[i], ctx.s[i], ctx.ct[i], ctx.st[i])
    slot_q = (ctx.v, ctx.c, ctx.s, ctx.ct, ctx.st)
    slot_pq = (vpq, cpq, spq, ctpq, stpq)
    f = symmetrized_vertex(slot_p, slot_q, slot_pq)
    f[zero] = 0.0
    return f, zero, epq


def f_pq(tables: BogoliubovTables, K2: float, p, q) -> float:
    """Symmetrized cubic vertex f(p, q) for lattice vectors p, q.

    Symmetric under all relabelings of the triple (p, q, -p-q).
    """
    p = np.asarray(p, dtype=np.int64)
    q = np.asarray(q, dtype=np.int64)
    if not p.any() or not q.any() or not (p + q).any():
        raise ZeroMomentumArgument(f"p={p.tolist()}, q={q.tolist()}")
    ctx = _PairContext(tables, K2)
    iq = tables.lattice.lookup(q[None, :])[0]
    ip = tables.lattice.lookup(p[None, :])[0]
    if ip < 0 or iq < 0 or ip >= ctx.M2 or iq >= ctx.M2:
        raise ValueError("p and q must lie inside the K2-ball")
    f, _, _ = _f_rows(ctx, ip)
    return float(f[iq])


class EPertTilde(NamedTuple):
    value: float
    ball: float
    tail: float


def e_pert_tilde(
    tables: BogoliubovTables, K2: float, c2: float | None = None
) -> EPertTilde:
    """Second-order energy of the cubic channel:

        -(6/N) sum_{p,q, p+q != 0} f(p,q)^2 / (e(p+q) + e(p) + e(q)) .

    Pair sum over the K2-ball; p+q resolves through the tables inside the
    ball and through the first-Born closure with closed-form dispersion
    outside (tail policy).  The |p| > K2 continuum tail factors through
    the reduced pair weight C2 (`c_constant`; pass `c2` to reuse a value
    already computed) and is included in the value.

    The tables are constant on cubic orbits (checked) and the K2-ball is a
    union of whole orbits, so the q-sum of row p depends on p's orbit
    only: its terms are those of any other member, permuted.  One row per
    orbit is summed exactly, and the rows, each repeated by its orbit
    size, are summed exactly again: the result is bitwise the full row
    sum.
    """
    ctx = _PairContext(tables, K2)
    lat = tables.lattice
    for name in ("c", "s", "ct", "st", "e"):
        gap = lat.orbit_spread(getattr(tables, name))
        if gap > 0.0:
            raise NotCubicInvariant(
                f"table {name} varies within a cubic orbit by {gap:.3e}"
            )
    # orbits are numbered by first appearance, so the prefix holds 0..n-1
    n_orbits = int(np.searchsorted(lat.orbit_first, ctx.M2))
    reps = lat.orbit_first[:n_orbits]
    sizes = lat.orbit_size[:n_orbits]

    def row(k: int):
        i = int(reps[k])
        f, zero, epq = _f_rows(ctx, i)
        denom = epq + ctx.e[i] + ctx.e
        denom[zero] = 1.0
        return (det_sum(f * f / denom),)

    rows = det_rows(row, n_orbits, 1)
    ball = -(6.0 / tables.N) * det_sum(np.repeat(rows[:, 0], sizes))
    _, t2x = born2_sum(tables.table, K2)
    if c2 is None:
        c2 = c_constant(tables).C2
    tail = c2 * (-t2x / (2.0 * tables.N))
    return EPertTilde(value=ball + tail, ball=ball, tail=tail)


class G2Expectation(NamedTuple):
    value: float
    tail_estimate: float


def g2_expectation(
    tables: BogoliubovTables, K2: float, convolve=None
) -> G2Expectation:
    """Quartic-channel vacuum expectation:

        (1/2N) sum_{p, r, p+r != 0} vhat_r c_{p+r}^2 c_p^2 st_{p+r} st_p
                         * ( ct_{p+r} ct_p  +  st_{p+r} st_p ) ,

    evaluated over pairs (p, p+r) in the K2-ball (outside it the squeezed
    weight st vanishes under the tail policy, so the pair form is the
    whole sum).  With q = p+r it is (1/2N) sum_p [w_p (vhat * w)_p +
    w2_p (vhat * w2)_p], w = c^2 st ct and w2 = c^2 st^2, the
    convolutions over q != p running on the FFT convolver of the K2
    sub-ball (`bogoliubov.sub_ball_convolver`, or `convolve` if passed;
    both weights are cubic-invariant) and the p-sums exactly.  The second
    Wick pairing, quartic in the squeezing, is negligible at physical
    couplings but kept for exactness against the Fock oracle.
    """
    ctx = _PairContext(tables, K2)
    if convolve is None:
        convolve = sub_ball_convolver(tables, K2)
    w = ctx.c * ctx.c * ctx.st * ctx.ct
    w2 = ctx.c * ctx.c * ctx.st * ctx.st
    value = det_sum(
        [det_sum(w * convolve(w)), det_sum(w2 * convolve(w2))]
    ) / (2.0 * tables.N)
    lat = tables.lattice
    last_sl = lat.shells[-1][1]
    psq_last = lat.psq[last_sl]
    c_t = float(np.max(np.abs(tables.st[last_sl]) * psq_last * psq_last))
    s1 = det_sum(np.abs(w))
    tail_est = (
        tables.table.at_zero
        * s1
        * 1.2
        * c_t
        / (2.0 * np.pi**2 * ctx.K2)
        / (2.0 * tables.N)
    )
    return G2Expectation(value=value, tail_estimate=tail_est)


def depletion(tables: BogoliubovTables) -> float:
    """Expected number of particles outside the condensate.

    The two same-mode squeezings compose additively in their parameters,
    so the occupation of mode p in the approximate ground state is
    sinh^2(eta_p + tau_p).
    """
    x = np.sinh(tables.sol.eta + tables.tau)
    return det_sum(x * x)


@dataclass(frozen=True)
class EnergyReport:
    """All assembled energy terms with truncation metadata."""

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
    E01: float
    E01_ball: float
    E01_tail: float
    C1: float
    C2: float
    C_NB: float
    E_corr: float
    born2_ball: float
    born2_tail: float
    g2_expect: float
    e_pert_tilde: float
    e_pert_tilde_ball: float
    e_pert_tilde_tail: float
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
    t_scatter_ms: float = 0.0
    t_sums_ms: float = 0.0

    CSV_COLUMNS = (
        "N", "beta", "kappa", "a_box", "leading", "E00", "E01", "C1", "C2",
        "E_corr", "g2_expect", "e_pert_tilde", "E0", "C_const", "total_A",
        "total_B", "route_discrepancy", "depletion", "t_scatter_ms",
        "t_sums_ms",
    )

    def csv_values(self) -> tuple:
        return (
            self.N, self.beta, self.kappa, self.a_box, self.leading,
            self.E00, self.E01, self.C1, self.C2, self.E_corr,
            self.g2_expect, self.e_pert_tilde, self.E0, self.C_const,
            self.total_route_A, self.total_route_B, self.route_discrepancy,
            self.depletion, self.t_scatter_ms, self.t_sums_ms,
        )


def assemble_report(
    tables: BogoliubovTables,
    K2: float,
    t_scatter_ms: float = 0.0,
    t_sums_ms: float = 0.0,
) -> EnergyReport:
    """Compute every report quantity on one consistent lattice pair (K, K2).

    The route discrepancy is evaluated with the common (N-1)/2*vhat(0)
    term cancelled symbolically: both routes are reduced to their excess
    over it before subtraction, keeping the comparison meaningful at
    absolute scales far below the rounding floor of the totals.
    """
    lat = tables.lattice
    if K2 > lat.cutoff_K * (1.0 + 1e-12):
        raise InconsistentLattice(
            f"K2 = {K2} exceeds the lattice cutoff {lat.cutoff_K}"
        )
    sol = tables.sol
    N = tables.N
    pot = tables.table.pot

    a = scattering_length(sol)
    leading = 4.0 * np.pi * (N - 1) * a.value
    leading_excess = (N - 1) / (2.0 * N) * det_sum(
        tables.table.values * sol.eta
    )
    e00_res = e00(tables.table.at_zero, lat)
    sub_conv = sub_ball_convolver(tables, K2)
    e01_res = e01(tables, K2, convolve=sub_conv)
    cc = c_constant(tables)
    ec = e_corr(cc.value, tables)
    g2 = g2_expectation(tables, K2, convolve=sub_conv)
    ept = e_pert_tilde(tables, K2, c2=cc.C2)
    e0 = bogoliubov_ground_energy(tables)
    big_c = constant_C(tables)
    depl = depletion(tables)

    total_a = det_sum([leading, e00_res.value, ec.value])
    total_b = det_sum([big_c.value, e0.value, ept.value, g2.value])
    discrepancy = abs(
        det_sum(
            [
                leading_excess,
                e00_res.value,
                ec.value,
                -big_c.excess,
                -e0.value,
                -ept.value,
                -g2.value,
            ]
        )
    )
    corr_minus_parts = det_sum(
        [ec.value, -e01_res.value, -ept.value, -g2.value]
    )

    return EnergyReport(
        N=N,
        beta=tables.beta,
        kappa=pot.kappa,
        R=pot.R,
        cutoff_K=lat.cutoff_K,
        cutoff_K2=float(K2),
        a_box=a.value,
        a_tail_bound=a.tail_bound,
        leading=leading,
        E00=e00_res.value,
        E00_tail=e00_res.tail_estimate,
        E01=e01_res.value,
        E01_ball=e01_res.ball,
        E01_tail=e01_res.tail,
        C1=cc.C1,
        C2=cc.C2,
        C_NB=cc.value,
        E_corr=ec.value,
        born2_ball=ec.inner_ball,
        born2_tail=ec.inner_tail,
        g2_expect=g2.value,
        e_pert_tilde=ept.value,
        e_pert_tilde_ball=ept.ball,
        e_pert_tilde_tail=ept.tail,
        E0=e0.value,
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
        t_scatter_ms=t_scatter_ms,
        t_sums_ms=t_sums_ms,
    )
