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
    dispersion_closed_form,
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
    """The K2-ball tables of the cubic pair sum and its pair table.

    For p, q in a K2-ball inside [-L2, L2]^3, p + q spans the cube
    [-2 L2, 2 L2]^3.  `pair` holds the rows (vhat, c, s, ct, st, e) at
    every point of that cube, filled once: the tables inside the K ball,
    the first-Born closure (tau = 0, eta = -vhat/(2 p^2)) with the
    closed-form dispersion outside it.  The cube is flattened so that
    p_i + q_j sits at `base[i] + flat[j]`, and a row of the pair sum reads
    all its p + q with one gather.  The zero mode holds vhat = s = st =
    e = 0 and c = ct = 1; the row zeroes its term, q = -p_i (`neg[i]`).
    """

    def __init__(self, tables: BogoliubovTables, K2: float):
        lat = tables.lattice
        if K2 > lat.cutoff_K * (1.0 + 1e-12):
            raise InconsistentLattice(
                f"pair-sum cutoff {K2} exceeds the table cutoff {lat.cutoff_K}"
            )
        t = tables.table
        self.M2 = M2 = ball_prefix(lat, K2)
        pts = lat.points[:M2]
        ball = np.stack([t.values, tables.c, tables.s, tables.ct, tables.st, tables.e])
        self.v, self.c, self.s, self.ct, self.st, self.e = ball[:, :M2]
        self.neg = lat.lookup(-pts)

        L2 = int(np.max(np.abs(pts))) if M2 else 0
        side = 4 * L2 + 1
        axis = np.arange(-2 * L2, 2 * L2 + 1, dtype=np.int64)
        cube = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        cube = cube.reshape(-1, 3)
        center = len(cube) // 2  # p + q = 0
        idx = lat.lookup(cube)
        inside = idx >= 0
        far = ~inside
        far[center] = False
        self.pair = np.zeros((6, len(cube)))  # rows v, c, s, ct, st, e
        self.pair[[1, 3]] = 1.0  # c = ct = 1 at the zero mode
        self.pair[:, inside] = ball[:, idx[inside]]
        t_far = cube[far]
        v_far = t.value_at(t_far)
        psq_far = (2.0 * np.pi) ** 2 * np.sum(t_far * t_far, axis=-1).astype(float)
        eta_b = -v_far / (2.0 * psq_far)
        self.pair[0, far] = v_far
        self.pair[1, far] = np.cosh(eta_b)
        self.pair[2, far] = np.sinh(eta_b)
        self.pair[5, far] = dispersion_closed_form(t, t_far)
        self.flat = pts @ np.array([side * side, side, 1], dtype=np.int64)
        self.base = self.flat + center


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
    """f(p_i, q) for all q in the K2-ball, zero at q = -p_i, and e(p_i + q)."""
    vpq, cpq, spq, ctpq, stpq, epq = ctx.pair[:, ctx.base[i] + ctx.flat]
    slot_p = (ctx.v[i], ctx.c[i], ctx.s[i], ctx.ct[i], ctx.st[i])
    slot_q = (ctx.v, ctx.c, ctx.s, ctx.ct, ctx.st)
    f = symmetrized_vertex(slot_p, slot_q, (vpq, cpq, spq, ctpq, stpq))
    f[ctx.neg[i]] = 0.0
    return f, epq


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
    f, _ = _f_rows(ctx, ip)
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

    Pair sum over the K2-ball; each row reads its p+q from the pair table
    of `_PairContext` with one gather: the tables inside the K ball, the
    first-Born closure with closed-form dispersion outside it (tail
    policy).  The |p| > K2 continuum tail factors through the reduced
    pair weight C2 (`c_constant`; pass `c2` to reuse a value already
    computed) and is included in the value.

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

    def row(k: int) -> float:
        i = int(reps[k])
        f, epq = _f_rows(ctx, i)
        return det_sum(f * f / (epq + ctx.e[i] + ctx.e))

    rows = det_rows(row, n_orbits)
    ball = -(6.0 / tables.N) * det_sum(np.repeat(rows, sizes))
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
    if convolve is None:
        convolve = sub_ball_convolver(tables, K2)
    M2 = ball_prefix(tables.lattice, K2)
    c, st, ct = tables.c[:M2], tables.st[:M2], tables.ct[:M2]
    w = c * c * st * ct
    w2 = c * c * st * st
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
        / (2.0 * np.pi**2 * K2)
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
