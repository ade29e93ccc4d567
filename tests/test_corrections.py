import math

import numpy as np
import pytest

from bosegas.bogoliubov import build_tables, dispersion_closed_form, e01
from bosegas.corrections import (
    _f_rows,
    _PairContext,
    assemble_report,
    c1_resolvent_summand,
    c_constant,
    depletion,
    e_corr,
    e_pert_tilde,
    f_pq,
    g2_expectation,
    pair_weight,
    symmetrized_vertex,
    vertex_factors,
)
from bosegas.errors import (
    CutoffTooSmall,
    InconsistentLattice,
    NotCubicInvariant,
    ZeroMomentumArgument,
)
from bosegas.lattice_potential import TWO_PI, Potential, born2_sum, enumerate_lattice
from bosegas.scattering import eta_tail, solve_eta
from bosegas.sums import det_sum

# convolution pair sums against their explicit row loops: a few ulps of
# FFT rounding, relative to the sum
CONV_RTOL = 1e-13


@pytest.fixture(scope="module")
def zero_tables(lat3):
    sol = solve_eta(Potential(kappa=0.0, R=0.2), lat3, 100, 0.6)
    return build_tables(sol)


# (tables fixture, K2 in units of 2 pi): sqrt(17) > 6/2 lets p + q leave
# the ball and ends on a shell of two cubic orbits, (4,1,0) and (3,2,2);
# the first-shell tables run at K2 = K = 3, again two orbits in the last
# shell, (3,0,0) and (2,2,1)
PAIR_CASES = [
    ("tables_small", math.sqrt(17.0)),
    ("tables_first_shell", 3.0),
]


def e_pert_tilde_row_loop(tb, K2):
    """Reference: the ball part of e_pert_tilde with one row per point."""
    ctx = _PairContext(tb, K2)
    e = ctx.fac[6]
    rows = []
    for i in range(ctx.M2):
        f, epq = _f_rows(ctx, i)
        rows.append(det_sum(f * f / (epq + e[i] + e)))
    return -(6.0 / tb.N) * det_sum(rows)


def _g_vertex(sp1, sp2, sp3):
    """Reference: raw triple-creation amplitude of the cubic channel for one
    ordered slot assignment, each slot (v, c, s, ct, st): slot 1 = p
    (carries the potential), slot 2 = q (the annihilator slot), slot 3 =
    p + q, as the squeezing conjugation yields it before factoring."""
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


def raw_symmetrized_vertex(slot_p, slot_q, slot_pq):
    """Reference: the mean of `_g_vertex` over the six ordered
    representatives of the triple (p, q, -p-q)."""
    return (
        _g_vertex(slot_p, slot_q, slot_pq)
        + _g_vertex(slot_q, slot_p, slot_pq)
        + _g_vertex(slot_pq, slot_q, slot_p)
        + _g_vertex(slot_q, slot_pq, slot_p)
        + _g_vertex(slot_pq, slot_p, slot_q)
        + _g_vertex(slot_p, slot_pq, slot_q)
    ) / 6.0


def factored_vertex(slot_p, slot_q, slot_pq):
    """`symmetrized_vertex` on raw (v, c, s, ct, st) slots."""
    return symmetrized_vertex(
        vertex_factors(*slot_p), vertex_factors(*slot_q), vertex_factors(*slot_pq)
    )


class TestPairTable:
    def test_fill_is_ball_tables_inside_and_closure_outside(self, tables_small):
        # K2 = sqrt(17) * 2 pi on the radius-6 ball: the pair cube spans
        # [-8, 8]^3, and p + q reaches beyond the ball up to |n|^2 = 68
        tb = tables_small
        lat = tb.lattice
        t = tb.table
        ctx = _PairContext(tb, TWO_PI * math.sqrt(17.0))
        side = 17
        axis = np.arange(-8, 9)
        cube = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        cube = cube.reshape(-1, 3)
        assert ctx.pair.shape == (7, side**3)
        idx = lat.lookup(cube)
        inside = idx >= 0
        ball = np.stack([*vertex_factors(t.values, tb.c, tb.s, tb.ct, tb.st), tb.e])
        assert np.array_equal(ctx.fac, ball[:, : ctx.M2])
        assert np.array_equal(ctx.pair[:, inside], ball[:, idx[inside]])
        nsq = np.sum(cube * cube, axis=1)
        far = ~inside & (nsq > 0) & (nsq <= 68)
        assert far.sum() > 0
        X, Y, P, Q, vX, vY, e = ctx.pair[:, far]
        v = t.value_at(cube[far])
        psq = TWO_PI**2 * nsq[far].astype(float)
        eta = -v / (2.0 * psq)
        c, s = np.cosh(eta), np.sinh(eta)
        assert np.array_equal(X, c) and np.array_equal(Q, c)
        assert np.array_equal(P, s) and np.array_equal(vX, v * c)
        assert np.all(Y == 0.0) and np.all(vY == 0.0)
        assert np.array_equal(e, dispersion_closed_form(t, cube[far]))
        # eta_tail forms p^2 from the momentum vector, one ulp away; the
        # shape factor's direct form, 3 eps / r^2 relative error, squared
        # into vhat, turns that into at most 1.6e-13 at the smallest far
        # r = 0.09
        tail = np.array([
            eta_tail(t.pot, tb.N, tb.beta, TWO_PI * n.astype(float))
            for n in cube[far]
        ])
        assert np.max(np.abs(eta - tail) / np.abs(tail)) <= 2e-13
        # p_i + q_j sits at base[i] + flat[j], and every pair reads a
        # filled point: the ball or the reachable closure
        M2 = ctx.M2
        for i in (0, 7, M2 - 1):
            tgt = lat.points[i] + lat.points[:M2] + 8
            at = (tgt[:, 0] * side + tgt[:, 1]) * side + tgt[:, 2]
            assert np.array_equal(ctx.base[i] + ctx.flat, at)
        read = (ctx.base[:, None] + ctx.flat[None, :]).ravel()
        assert np.all((inside | far)[read] | (read == len(cube) // 2))

    def test_no_closure_when_no_pair_leaves_the_ball(self, tables_small):
        # K2 = K/2, as at the reference point: |p + q| <= K for every pair
        ctx = _PairContext(tables_small, TWO_PI * 3.0)
        axis = np.arange(-6, 7)
        cube = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        outside = tables_small.lattice.lookup(cube.reshape(-1, 3)) < 0
        assert np.all(ctx.pair[:, outside] == 0.0)


class TestVertex:
    def test_zero_coupling(self, zero_tables):
        assert f_pq(zero_tables, TWO_PI * 2, (1, 0, 0), (0, 1, 0)) == 0.0

    def test_zero_momentum_rejected(self, tables_small):
        K2 = TWO_PI * 2
        with pytest.raises(ZeroMomentumArgument):
            f_pq(tables_small, K2, (0, 0, 0), (0, 1, 0))
        with pytest.raises(ZeroMomentumArgument):
            f_pq(tables_small, K2, (1, 0, 0), (-1, 0, 0))

    def test_symmetry_random_pairs(self, tables_small):
        K2 = TWO_PI * 2.5
        lat = tables_small.lattice
        M2 = len(lat.sub_ball(K2))
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            i, j = rng.integers(0, M2, size=2)
            p = lat.points[i]
            q = lat.points[j]
            s = p + q
            if not s.any():
                continue
            if lat.lookup(s[None, :])[0] >= M2 or lat.lookup(s[None, :])[0] < 0:
                continue
            base = f_pq(tables_small, K2, p, q)
            variants = [
                f_pq(tables_small, K2, q, p),
                f_pq(tables_small, K2, -s, q),
                f_pq(tables_small, K2, p, -s),
            ]
            for v in variants:
                assert abs(v - base) <= 1e-13 * max(abs(base), 1e-300)
            checked += 1

    def test_tau_free_collapse(self, tables_small):
        # with all tau = 0 only the plain-hyperbolic group survives; the
        # orbit average then reduces to (1/6) of the three-term bracket
        tb = tables_small
        lat = tb.lattice
        i = int(lat.lookup((1, 0, 0)))
        j = int(lat.lookup((0, 1, 0)))
        k = int(lat.lookup((1, 1, 0)))
        v, c, s = tb.table.values, tb.c, tb.s
        one, zero = 1.0, 0.0
        got = factored_vertex(
            (v[i], c[i], s[i], one, zero),
            (v[j], c[j], s[j], one, zero),
            (v[k], c[k], s[k], one, zero),
        )
        bracket = (
            v[i] * c[i] * (c[k] * s[j] + c[j] * s[k])
            + v[j] * c[j] * (c[k] * s[i] + c[i] * s[k])
            + v[k] * c[k] * (c[i] * s[j] + c[j] * s[i])
        )
        assert got == pytest.approx(bracket / 6.0, rel=1e-14)

    def test_factored_matches_six_term_reference(self, tables_small):
        # random slots with physical signs (c, ct >= 1, v >= 0, s and st of
        # either sign), and the tau = 0 collapse on the tables' own slots;
        # the bound is relative to the vertex of the absolute slot values,
        # which bounds the sum of the magnitudes of its terms
        rng = np.random.default_rng(17)

        def slot(eta, tau):
            v = rng.uniform(0.0, 2.0)
            return (v, math.cosh(eta), math.sinh(eta), math.cosh(tau), math.sinh(tau))

        cases = [
            tuple(slot(*rng.uniform(-0.8, 0.8, size=2)) for _ in range(3))
            for _ in range(200)
        ]
        tb = tables_small
        lat = tb.lattice
        for trip in ([1, 0, 0], [0, 1, 0], [1, 1, 0]), ([2, 1, 0], [-1, 1, 1], [1, 2, 1]):
            i, j, k = lat.lookup(np.array(trip))
            cases.append(tuple(
                (tb.table.values[m], tb.c[m], tb.s[m], 1.0, 0.0) for m in (i, j, k)
            ))
        for sp, sq, spq in cases:
            ref = raw_symmetrized_vertex(sp, sq, spq)
            scale = raw_symmetrized_vertex(*(tuple(map(abs, x)) for x in (sp, sq, spq)))
            assert abs(factored_vertex(sp, sq, spq) - ref) <= 1e-14 * scale


class TestEPertTilde:
    def test_zero_coupling(self, zero_tables):
        res = e_pert_tilde(zero_tables, zero_tables.lattice.cutoff_K)
        assert res.value == 0.0

    def test_nonpositive(self, tables_small):
        res = e_pert_tilde(tables_small, TWO_PI * 3)
        assert res.value < 0.0 and res.ball < 0.0 and res.tail < 0.0

    def test_first_shell_brute_loop(self, tables_first_shell):
        tb = tables_first_shell
        K2 = TWO_PI * 1.0
        lat = tb.lattice
        M2 = len(lat.sub_ball(K2))
        acc = 0.0
        for i in range(M2):
            for j in range(M2):
                p = lat.points[i]
                q = lat.points[j]
                s = p + q
                if not s.any():
                    continue
                f = f_pq(tb, K2, p, q)
                k = lat.lookup(s[None, :])[0]
                if k >= 0:
                    epq = tb.e[k]
                else:
                    psq = TWO_PI**2 * float(s @ s)
                    vs = float(tb.table.value_at(s[None, :])[0])
                    epq = math.sqrt(psq * (psq + 2 * vs))
                acc += f * f / (epq + tb.e[i] + tb.e[j])
        expected = -6.0 / tb.N * acc
        res = e_pert_tilde(tb, K2)
        assert res.ball == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fixture, k2_units", PAIR_CASES)
    def test_orbit_rows_equal_full_row_loop(self, request, fixture, k2_units):
        tb = request.getfixturevalue(fixture)
        K2 = TWO_PI * k2_units
        assert e_pert_tilde(tb, K2).ball == e_pert_tilde_row_loop(tb, K2)

    def test_tables_not_cubic_invariant_rejected(self, tables_small):
        from dataclasses import replace

        e = tables_small.e.copy()
        e[int(tables_small.lattice.lookup((1, 0, 0)))] *= 1.0 + 1e-15
        with pytest.raises(NotCubicInvariant):
            e_pert_tilde(replace(tables_small, e=e), TWO_PI * 2)

    def test_out_of_ball_policy_uses_born_closure(self, tables_first_shell):
        # p + q outside the ball: hyperbolics from the tail rule, squeezing
        # absent; verified through the scalar vertex path
        tb = tables_first_shell
        K2 = TWO_PI
        p = np.array([1, 0, 0])
        q = np.array([0, 1, 0])
        got = f_pq(tb, K2, p, q)
        lat = tb.lattice
        i, j = lat.lookup([[1, 0, 0], [0, 1, 0]])
        s = p + q
        psq = TWO_PI**2 * 2.0
        vs = float(tb.table.value_at(s[None, :])[0])
        eta_b = eta_tail(tb.table.pot, tb.N, tb.beta, TWO_PI * s.astype(float))
        manual = factored_vertex(
            (tb.table.values[i], tb.c[i], tb.s[i], tb.ct[i], tb.st[i]),
            (tb.table.values[j], tb.c[j], tb.s[j], tb.ct[j], tb.st[j]),
            (vs, math.cosh(eta_b), math.sinh(eta_b), 1.0, 0.0),
        )
        assert got == pytest.approx(manual, rel=1e-13)


class TestG2Expectation:
    def test_zero_squeezing(self, zero_tables):
        assert g2_expectation(zero_tables, zero_tables.lattice.cutoff_K) == 0.0

    def test_brute_loop(self, tables_first_shell):
        tb = tables_first_shell
        K2 = TWO_PI
        lat = tb.lattice
        M2 = len(lat.sub_ball(K2))
        acc = 0.0
        for i in range(M2):
            for j in range(M2):
                if i == j:
                    continue
                r = lat.points[j] - lat.points[i]
                vr = float(tb.table.value_at(r[None, :])[0])
                w = tb.c[i] ** 2 * tb.c[j] ** 2
                acc += vr * w * (
                    tb.st[i] * tb.st[j] * tb.ct[i] * tb.ct[j]
                    + tb.st[i] ** 2 * tb.st[j] ** 2
                )
        expected = acc / (2.0 * tb.N)
        got = g2_expectation(tb, K2)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fixture, k2_units", PAIR_CASES)
    def test_convolution_matches_row_loop(self, request, fixture, k2_units):
        tb = request.getfixturevalue(fixture)
        K2 = TWO_PI * k2_units
        M2 = len(tb.lattice.sub_ball(K2))
        pts = tb.lattice.points[:M2]
        c, st, ct = tb.c[:M2], tb.st[:M2], tb.ct[:M2]
        w = c * c * st * ct
        w2 = c * c * st * st
        rows = []
        for i in range(M2):
            vr = tb.table.value_at(pts - pts[i])
            vr[i] = 0.0
            rows.append(w[i] * det_sum(vr * w) + w2[i] * det_sum(vr * w2))
        expected = det_sum(rows) / (2.0 * tb.N)
        got = g2_expectation(tb, K2)
        assert abs(got - expected) <= CONV_RTOL * abs(expected)

    def test_n_scaling_certificate(self, pot_coupled, lat3):
        vals = []
        for N in (10**3, 10**5):
            sol = solve_eta(pot_coupled, lat3, N, 0.75)
            tb = build_tables(sol)
            vals.append(abs(g2_expectation(tb, TWO_PI * 3)) * N)
        assert max(vals) <= 5.0 * max(min(vals), 1e-300)


class TestCConstants:
    def test_zero_coupling(self, zero_tables):
        c = c_constant(zero_tables)
        assert c.C1 == 0.0 and c.C2 == 0.0 and c.value == 0.0

    def test_resolvent_summand_pinned(self):
        # vhat(0) = 1 at |p| = 2 pi
        psq = TWO_PI**2
        S = math.sqrt(psq * psq + 2 * psq)
        direct = 1.0 / (S * (psq + S))
        assert float(c1_resolvent_summand(np.array([psq]), 1.0)[0]) == pytest.approx(
            direct, rel=1e-14
        )
        assert direct == pytest.approx(0.00030911533738848325, abs=1e-16)

    def test_c2_matches_vertex_extraction(self, tables_small):
        # the pair weight is the large-momentum collapse of the vertex:
        # w_q = 12 f(P, q) / (vhat_P + vhat_{P+q}) for |P| >> |q|
        tb = tables_small
        lat = tb.lattice
        K2 = lat.cutoff_K
        w = np.sqrt(pair_weight(tb)) / 2.0
        big = (5, 3, 1)  # |n|^2 = 35, well separated from the first shell
        ib = int(lat.lookup(big))
        for q in ((1, 0, 0), (0, 1, 0), (0, 0, -1)):
            iq = int(lat.lookup(q))
            s = np.array(big) + np.array(q)
            vs = float(tb.table.value_at(s[None, :])[0])
            f = f_pq(tb, K2, big, q)
            extracted = abs(6.0 * f / (tb.table.values[ib] + vs))
            # O(|q|/|P|) corrections remain at this separation; any of the
            # rejected weight normalizations would be off by 2x or more
            assert extracted == pytest.approx(w[iq], rel=0.1)

    def test_positive_with_coupling(self, tables_small):
        c = c_constant(tables_small)
        assert c.C1 > 0.0 and c.C2 > 0.0


class TestECorr:
    def test_zero_coupling(self, zero_tables):
        assert e_corr(0.0, zero_tables).value == 0.0

    def test_inner_sum_brute(self, tables_first_shell):
        tb = tables_first_shell
        lat = tb.lattice
        acc = 0.0
        for i in range(len(lat)):
            acc += tb.table.values[i] ** 2 / (2.0 * lat.psq[i])
        ball, _ = born2_sum(tb.table)
        assert ball == pytest.approx(acc, rel=1e-13)

    def test_negative(self, tables_small):
        c = c_constant(tables_small)
        assert e_corr(c.value, tables_small).value < 0.0


class TestDepletion:
    def test_zero(self, zero_tables):
        assert depletion(zero_tables) == 0.0

    def test_matches_definition(self, tables_small):
        tb = tables_small
        x = np.sinh(tb.sol.eta + tb.tau)
        assert depletion(tb) == pytest.approx(float(np.sum(x * x)), rel=1e-12)

    def test_fraction_shrinks_with_n(self, pot_coupled, lat3):
        fr = []
        for N in (10**2, 10**4):
            sol = solve_eta(pot_coupled, lat3, N, 0.75)
            tb = build_tables(sol)
            fr.append(depletion(tb) / N)
        assert fr[1] < fr[0]


class TestReport:
    def test_zero_coupling_all_zero(self, zero_tables):
        rep = assemble_report(zero_tables, TWO_PI * 2)
        for name in ("a_box", "leading", "E00", "E01", "C1", "C2", "E_corr",
                     "g2_expect", "e_pert_tilde", "E0", "C_const",
                     "total_route_A", "total_route_B", "route_discrepancy",
                     "depletion"):
            assert getattr(rep, name) == 0.0, name

    @pytest.mark.parametrize("pair_sum", [
        assemble_report,
        e01,
        g2_expectation,
        e_pert_tilde,
        lambda tb, K2: f_pq(tb, K2, (1, 0, 0), (0, 1, 0)),
    ], ids=["assemble_report", "e01", "g2_expectation", "e_pert_tilde", "f_pq"])
    def test_inconsistent_lattice(self, tables_small, pair_sum):
        # every K2 sum cuts its sub-table through the one sub_ball check,
        # which also rejects a K2 below the first shell
        with pytest.raises(InconsistentLattice, match="sub-ball"):
            pair_sum(tables_small, tables_small.lattice.cutoff_K * 2.0)
        with pytest.raises(CutoffTooSmall):
            pair_sum(tables_small, 0.5 * TWO_PI)

    def test_cutoff_between_shells(self, tables_small):
        # no point has |n|^2 = 7, so K2 = 2 pi sqrt 7 holds the same sub-ball
        # as 2 pi sqrt 6 and every ball part is bitwise the same; the
        # continuum tails start at K2 itself
        tb = tables_small
        lo, hi = TWO_PI * math.sqrt(6.0), TWO_PI * math.sqrt(7.0)
        e01_lo, e01_hi = e01(tb, lo), e01(tb, hi)
        assert e01_hi.ball == e01_lo.ball
        assert g2_expectation(tb, hi) == g2_expectation(tb, lo)
        assert e_pert_tilde(tb, hi).ball == e_pert_tilde(tb, lo).ball
        tail_ratio = born2_sum(tb.table.sub_table(hi))[1] / born2_sum(
            tb.table.sub_table(lo)
        )[1]
        assert tail_ratio < 1.0
        assert e01_hi.tail == pytest.approx(e01_lo.tail * tail_ratio, rel=1e-14)

    def test_component_order_invariance(self, tables_small):
        # components are pure; reassembly reproduces the report bitwise
        K2 = TWO_PI * 3
        rep1 = assemble_report(tables_small, K2)
        g2 = g2_expectation(tables_small, K2)
        ept = e_pert_tilde(tables_small, K2)
        cc = c_constant(tables_small)
        rep2 = assemble_report(tables_small, K2)
        assert rep1.g2_expect == g2
        assert rep1.e_pert_tilde == ept.value
        assert rep1.C_NB == cc.value
        for name in ("total_route_A", "total_route_B", "route_discrepancy"):
            assert getattr(rep1, name) == getattr(rep2, name)

    def test_route_totals_structure(self, tables_small):
        rep = assemble_report(tables_small, TWO_PI * 3)
        assert rep.total_route_A == pytest.approx(
            rep.leading + rep.E00 + rep.E_corr, rel=1e-15
        )
        assert rep.total_route_B == pytest.approx(
            rep.C_const + rep.E0 + rep.e_pert_tilde + rep.g2_expect, rel=1e-15
        )

    def test_corr_vs_parts_improves_with_n(self, pot_ref):
        lat = enumerate_lattice(TWO_PI * 6)
        rel = []
        for N in (10**3, 10**5):
            sol = solve_eta(pot_ref, lat, N, 0.8)
            rep = assemble_report(build_tables(sol), TWO_PI * 6)
            rel.append(abs(rep.corr_minus_parts / rep.E_corr))
        assert rel[1] < rel[0]
