import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bosegas import corrections
from bosegas.bogoliubov import e01, sc_minus_eta
from bosegas.config import parse_config
from bosegas.corrections import (
    _f_rows,
    _PairContext,
    assemble_report,
    c1_resolvent_summand,
    c_constant,
    depletion,
    e_pert_tilde,
    g2_expectation,
    pair_weight,
    symmetrized_vertex,
    vertex_factors,
)
from bosegas.errors import CutoffTooSmall, InconsistentLattice
from bosegas.lattice_potential import TWO_PI, Potential, born2_sum, enumerate_lattice
from bosegas.pipeline import run_pipeline, run_tables
from bosegas.sums import det_sum

from conftest import per_point, solve, tables_of, traced_peak

# convolution pair sums against their explicit row loops: a few ulps of
# FFT rounding, relative to the sum
CONV_RTOL = 1e-13
# unit roundoff of a double
U = 2.0**-53


@pytest.fixture(scope="module")
def zero_tables(lat3):
    sol = solve(Potential(kappa=0.0, R=0.2), lat3, 100, 0.6)
    return tables_of(sol)


# (tables fixture, K2 in units of 2 pi), each at K2 = K/2, the largest
# the cubic pair sum admits: the radius-6 ball's K2 ends on a shell of two
# cubic orbits, (3,0,0) and (2,2,1); the first-shell tables' on the one
# orbit (1,1,0)
PAIR_CASES = [
    ("tables_small", 3.0),
    ("tables_first_shell", 1.5),
]
# the quartic sum has no p + q and runs at any K2 <= K: sqrt(17) > 6/2
# ends on a shell of two cubic orbits, (4,1,0) and (3,2,2), and K2 = K = 3
# on two, (3,0,0) and (2,2,1)
G2_CASES = [
    ("tables_small", math.sqrt(17.0)),
    ("tables_first_shell", 3.0),
]


def pair_terms(tb, K2):
    """Reference: the M2 x M2 summands f(p, q)^2 / (e(p+q) + e(p) + e(q))
    of e_pert_tilde's ball part, row p and column q in point order, zero
    at q = -p; every slot's factors are read by lattice lookup."""
    lat = tb.lattice
    M2 = len(lat.sub_ball(K2))
    pts = lat.points()[:M2]
    o = lat.lookup(pts)
    fac = np.stack(vertex_factors(tb.table.values, tb.c, tb.s, tb.ct, tb.st))
    terms = np.empty((M2, M2))
    for i in range(M2):
        k = lat.lookup(pts[i] + pts)
        f = symmetrized_vertex(fac[:, o[i]], fac[:, o], fac[:, k])
        terms[i] = f * f / (tb.e[k] + tb.e[o[i]] + tb.e[o])
        terms[i, k < 0] = 0.0
    return terms


def f_pq(tb, K2, p, q):
    """The vertex f(p, q) for p, q in the K2-ball, read from a `_f_rows`
    row, the code that e_pert_tilde runs.  A row holds the q from its own
    position on, so a q before p is read in the row of q, as f(q, p)."""
    ctx = _PairContext(tb, K2)
    pts = ctx.sub.lattice.points()
    ip, iq = (int(np.flatnonzero(np.all(pts == x, axis=1))[0]) for x in (p, q))
    ip, iq = min(ip, iq), max(ip, iq)
    f, _ = _f_rows(ctx, int(ip))
    return float(f[iq - ip])


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


class TestPairContext:
    @pytest.mark.parametrize("k2_units", [3.0, 2.0])
    def test_rows_read_p_plus_q_through_the_ball_grid(self, tables_small, k2_units):
        # the K2 points run by cubic orbit, each orbit one run from its
        # first member; every p + q lies in the radius-6 ball (all of it
        # at K2 = K/2, as at the reference point) and reads its orbit
        # there, -1 only at q = -p_i; a row gathers the ball's own orbit
        # factors at those ids, and the -1 reads the zero column past them
        tb = tables_small
        lat = tb.lattice
        K2 = TWO_PI * k2_units
        ctx = _PairContext(tb, K2)
        sub = lat.sub_ball(K2)
        pts = sub.points()
        o = lat.lookup(pts)
        assert np.array_equal(o, np.repeat(np.arange(len(sub.nsq)), sub.size))
        assert np.array_equal(pts[ctx.starts], -sub.reps[:, ::-1])
        fac = np.stack([
            *vertex_factors(tb.table.values, tb.c, tb.s, tb.ct, tb.st), tb.e
        ])
        assert np.array_equal(ctx.orbit_fac[:, :-1], fac)
        assert np.array_equal(ctx.orbit_fac[:, -1], np.zeros(7))
        assert np.array_equal(ctx.fac, fac[:, o])
        for i in range(ctx.M2):
            idx = ctx.grid[ctx.base[i] + ctx.flat]
            assert np.array_equal(idx, lat.lookup(pts[i] + pts))
            neg = np.flatnonzero(idx < 0)
            assert len(neg) == 1
            assert np.array_equal(pts[neg[0]], -pts[i])
            k = idx[i:]
            f, epq = _f_rows(ctx, i)
            ref = symmetrized_vertex(fac[:6, o[i]], fac[:6, o[i:]], fac[:6, k])
            ref[k < 0] = 0.0
            assert np.array_equal(f, ref)
            assert np.array_equal(epq, np.where(k < 0, 0.0, tb.e[k]))


class TestVertex:
    def test_zero_coupling(self, zero_tables):
        assert f_pq(zero_tables, TWO_PI * 1.5, (1, 0, 0), (0, 1, 0)) == 0.0

    def test_symmetry_random_pairs(self, tables_small):
        K2 = TWO_PI * 2.5
        lat = tables_small.lattice
        sub = lat.sub_ball(K2)
        M2, n2 = len(sub), len(sub.nsq)
        pts = sub.points()
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            i, j = rng.integers(0, M2, size=2)
            p = pts[i]
            q = pts[j]
            s = p + q
            if not s.any():
                continue
            if lat.lookup(s[None, :])[0] >= n2 or lat.lookup(s[None, :])[0] < 0:
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
        res = e_pert_tilde(zero_tables, zero_tables.lattice.cutoff_K / 2.0)
        assert res.value == 0.0

    def test_nonpositive(self, tables_small):
        res = e_pert_tilde(tables_small, TWO_PI * 3)
        assert res.value < 0.0 and res.ball < 0.0 and res.tail < 0.0

    def test_first_shell_brute_loop(self, tables_first_shell):
        tb = tables_first_shell
        K2 = TWO_PI * 1.0
        lat = tb.lattice
        M2 = len(lat.sub_ball(K2))
        pts = lat.points()
        e = per_point(lat, tb.e)
        acc = 0.0
        for i in range(M2):
            for j in range(M2):
                p = pts[i]
                q = pts[j]
                s = p + q
                if not s.any():
                    continue
                f = f_pq(tb, K2, p, q)
                epq = tb.e[lat.lookup(s)]
                acc += f * f / (epq + e[i] + e[j])
        expected = -6.0 / tb.N * acc
        res = e_pert_tilde(tb, K2)
        assert res.ball == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fixture, k2_units", PAIR_CASES)
    def test_orbit_rows_within_rounding_of_exact_sum(self, request, fixture, k2_units):
        # The reference is the exactly rounded sum E of all M2^2 row-loop
        # terms S, scaled by -6/N.  Every term e_pert_tilde adds is one of
        # those S, bitwise, or twice one.  The fold takes the block of
        # orbit pair (l, k), l > k, as that of (k, l); the two differ by
        # the rounding asymmetry of S(p, q) against S(q, p) alone, at most
        # A = sum_{p,q} |S(p, q) - S(q, p)| / 2 in all.  The rows (sums of
        # nonnegative terms) are rounded once each and their weighted sum
        # once (2u (E + A)); E and both scalings are rounded once each
        # (3u (E + A)).  So |ball - exact| <= (6/N) (5u (E + A) + A) to
        # first order in u = 2^-53; a sixth u covers the second order.
        # The per-point row loop, unfolded, is within the same bound.
        tb = request.getfixturevalue(fixture)
        K2 = TWO_PI * k2_units
        terms = pair_terms(tb, K2)
        scale = -(6.0 / tb.N)
        total = math.fsum(terms.ravel())
        asym = math.fsum(np.abs(terms - terms.T).ravel()) / 2.0
        bound = abs(scale) * (6.0 * U * (total + asym) + asym)
        exact = scale * total
        assert abs(e_pert_tilde(tb, K2).ball - exact) <= bound
        row_loop = scale * det_sum([det_sum(row) for row in terms])
        assert abs(row_loop - exact) <= bound


class TestEPertTildeMemory:
    """The cubic pair sum keeps the K2 ball's factors in point order, the
    K ball's per orbit, and per-row temporaries; it allocates no per-point
    table of the K-ball factors and nothing of the size of the
    (4 L2 + 1)^3 offset cube."""

    @pytest.fixture(scope="class")
    def energy_ref_tables(self):
        # the benchmark's energy-ref point: K = 40 pi, K2 = 20 pi
        cfg = parse_config({"N": 10**4, "beta": 0.75, "kappa": 0.1, "R": 0.25,
                            "cutoff_K_over_2pi": 20, "cutoff_K2_over_2pi": 10})
        return run_tables(cfg, cfg.N)[0], cfg.cutoff_K2

    def test_peak_below_table_bound(self, energy_ref_tables):
        # the ceiling of the K-ball factor table that rows once gathered:
        # table T = 7 (M4 + 1) doubles (M4 = M = 33,400 here: 1.87 MB);
        # while it is filled, the six factor rows and one product in
        # flight are at most another T; a row holds its index, its 7-row
        # gather and the vertex's temporaries, under 24 M2 doubles
        # (M2 = 4,168: 0.80 MB).  So the peak stays below 2 T + 24 M2
        # doubles, 4.54 MB; the cube-filled table peaked at 10.4 MB.
        tables, K2 = energy_ref_tables
        M4 = len(tables.lattice)
        M2 = len(tables.lattice.sub_ball(K2))
        bound = 8 * (2 * 7 * (M4 + 1) + 24 * M2)
        assert traced_peak(e_pert_tilde, tables, K2) < bound

    def test_peak_below_row_bound(self, energy_ref_tables):
        # what stays allocated is the pair context: `fac` (7 rows), `flat`
        # and `base`, 9 M2 values, the K ball's orbit factors (7 rows of
        # one value per orbit and a zero, under M) and the sub-ball's
        # dense grid, (2 L2 + 1)^3 ids.  On top of it runs one transient at
        # a time: the pair weight's K-ball temporaries (under 2 M), or a
        # row's index, gather, factors and vertex temporaries, or the
        # context's own build, its point expansion included (each under
        # 24 M2).  So the peak stays below 12 M2 + (2 L2 + 1)^3 +
        # max(2 M, 24 M2) values: 1.27 MB at M = 33,400, M2 = 4,168 and
        # L2 = 10.
        tables, K2 = energy_ref_tables
        M = len(tables.lattice)
        sub = tables.lattice.sub_ball(K2)
        M2 = len(sub)
        bound = 8 * (12 * M2 + (2 * sub.L + 1) ** 3 + max(2 * M, 24 * M2))
        assert traced_peak(e_pert_tilde, tables, K2) < bound


class TestPipelineMemory:
    """The benchmark's energy-ref point: K = 40 pi (L = 20, side = 41,
    M = 33,400 points in 900 orbits), K2 = 20 pi."""

    CFG = {"N": 10**4, "beta": 0.75, "kappa": 0.1, "R": 0.25,
           "cutoff_K_over_2pi": 20, "cutoff_K2_over_2pi": 10}

    def test_energy_ref_peak_below_orbit_bound(self):
        # What a run holds throughout is the ball (its int16 grid, under
        # side^3 / 4 values) and one value per orbit for each table (under
        # M / 2 in all).  The K ball's convolver lives only inside
        # run_tables, adding its kernel spectrum (side^3) and, on top, one
        # call's working set (under 3 (L+1)^3 + 16 side^2, as
        # TestConvolution bounds it) or its build's smaller one.  The pair
        # sums run after it is freed; their working set, 0.74 MB here
        # (TestEPertTildeMemory), stays below the convolver's 0.99 MB.  So
        # the peak stays below side^3 / 4 + M / 2 + side^3 + 3 (L+1)^3 +
        # 16 side^2 values, 1.26 MB; the pair sums run on top of a kept
        # kernel read 1.58 MB.
        cfg = parse_config(self.CFG)
        L, M = 20, 33_400
        side = 2 * L + 1
        bound = 8 * (side**3 // 4 + M // 2 + side**3 + 3 * (L + 1) ** 3
                     + 16 * side**2)
        assert traced_peak(run_pipeline, cfg) < bound

    def test_run_tables_result_holds_no_kernel(self):
        # what run_tables returns is the ball (its int16 grid, under
        # side^3 / 4 values; reps, nsq and size, 5 values per orbit), the
        # scaled table and the eleven tables of the solution (one value per
        # orbit each): with the records themselves, under side^3 / 4 + 32
        # values per orbit, 0.37 MB.  The K ball's kernel spectrum alone is
        # side^3 values (0.55 MB), so a result that reaches the convolver
        # crosses the bound.
        cfg = parse_config(self.CFG)
        side, orbits = 41, 900
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tables, _ = run_tables(cfg, cfg.N)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tables.eta) == orbits
        assert held < 8 * (side**3 // 4 + 32 * orbits)

    def test_stage_memory_tool(self):
        # `tools/stage_memory.py` at K = 8 pi: one row per stage in the
        # order of first call, every pair sum among them, the whole run
        # last with the largest peak, and every stage function unwrapped
        # again afterwards
        path = Path(__file__).resolve().parents[1] / "tools" / "stage_memory.py"
        spec = importlib.util.spec_from_file_location("stage_memory", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        staged = [getattr(mod, name) for mod, name in tool._stage_functions()]
        cfg = parse_config(dict(self.CFG, cutoff_K_over_2pi=4,
                                cutoff_K2_over_2pi=2))
        rows = tool.stage_rows(cfg)
        names = [row[0] for row in rows]
        assert names[:5] == ["enumerate_lattice", "scaled_table",
                             "make_convolver", "solve_eta", "build_tables"]
        assert {"e01", "g2_expectation", "e_pert_tilde"} <= set(names)
        assert names[-1] == "run_pipeline"
        assert rows[-1][2] == max(row[2] for row in rows)
        for _, calls, peak, held, hwm, _, _ in rows:
            assert calls >= 1 and peak >= held >= 0.0 and hwm >= 0.0
        assert staged == [getattr(mod, name)
                          for mod, name in tool._stage_functions()]
        assert corrections.e_pert_tilde is e_pert_tilde


class TestG2Expectation:
    def test_zero_squeezing(self, zero_tables):
        assert g2_expectation(zero_tables, zero_tables.lattice.cutoff_K) == 0.0

    def test_brute_loop(self, tables_first_shell):
        tb = tables_first_shell
        K2 = TWO_PI
        lat = tb.lattice
        M2 = len(lat.sub_ball(K2))
        pts = lat.points()
        c, st, ct = (per_point(lat, x) for x in (tb.c, tb.st, tb.ct))
        acc = 0.0
        for i in range(M2):
            for j in range(M2):
                if i == j:
                    continue
                r = pts[j] - pts[i]
                vr = float(tb.table.value_at(r[None, :])[0])
                w = c[i] ** 2 * c[j] ** 2
                acc += vr * w * (
                    st[i] * st[j] * ct[i] * ct[j]
                    + st[i] ** 2 * st[j] ** 2
                )
        expected = acc / (2.0 * tb.N)
        got = g2_expectation(tb, K2)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fixture, k2_units", G2_CASES)
    def test_convolution_matches_row_loop(self, request, fixture, k2_units):
        tb = request.getfixturevalue(fixture)
        K2 = TWO_PI * k2_units
        lat = tb.lattice
        M2 = len(lat.sub_ball(K2))
        pts = lat.points()[:M2]
        c, st, ct = (per_point(lat, x)[:M2] for x in (tb.c, tb.st, tb.ct))
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
            sol = solve(pot_coupled, lat3, N, 0.75)
            tb = tables_of(sol)
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

    def test_c2_matches_vertex_extraction(self, pot_coupled):
        # the pair weight is the large-momentum collapse of the vertex:
        # w_q = 12 f(P, q) / (vhat_P + vhat_{P+q}) for |P| >> |q|; the
        # tables_small coupling on a ball of twice its radius, so that a
        # K2 = 6 ball holding P has every P + q in the tables
        tb = tables_of(solve(pot_coupled, enumerate_lattice(TWO_PI * 12),
                             N=500, beta=0.75))
        lat = tb.lattice
        K2 = TWO_PI * 6
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
    def test_inner_sum_brute(self, tables_first_shell):
        tb = tables_first_shell
        lat = tb.lattice
        values, psq = per_point(lat, tb.table.values), per_point(lat, lat.psq)
        acc = 0.0
        for i in range(len(lat)):
            acc += values[i] ** 2 / (2.0 * psq[i])
        ball, _ = born2_sum(tb.table)
        assert ball == pytest.approx(acc, rel=1e-13)

    def test_negative(self, tables_small):
        assert assemble_report(tables_small, TWO_PI * 3).E_corr < 0.0


class TestDepletion:
    def test_zero(self, zero_tables):
        assert depletion(zero_tables) == 0.0

    def test_matches_definition(self, tables_small):
        tb = tables_small
        x = per_point(tb.lattice, np.sinh(tb.sol.eta + tb.tau))
        assert depletion(tb) == pytest.approx(float(np.sum(x * x)), rel=1e-12)

    def test_fraction_shrinks_with_n(self, pot_coupled, lat3):
        fr = []
        for N in (10**2, 10**4):
            sol = solve(pot_coupled, lat3, N, 0.75)
            tb = tables_of(sol)
            fr.append(depletion(tb) / N)
        assert fr[1] < fr[0]


class TestReport:
    def test_zero_coupling_all_zero(self, zero_tables):
        rep = assemble_report(zero_tables, TWO_PI * 1.5)
        for name in ("a_box", "leading", "E00", "C1", "C2", "E_corr",
                     "g2_expect", "E0", "C_const", "total_route_A",
                     "total_route_B", "route_discrepancy", "depletion"):
            assert getattr(rep, name) == 0.0, name
        assert rep.E01.value == 0.0 and rep.e_pert_tilde.value == 0.0

    @pytest.mark.parametrize("pair_sum, k2_over_k, match", [
        (assemble_report, 2.0, "sub-ball"),
        (e01, 2.0, "sub-ball"),
        (g2_expectation, 2.0, "sub-ball"),
        (e_pert_tilde, 2.0, "sub-ball"),
        # the cubic pair sum reads every p + q, up to |n|^2 = 4 * 10 > 36,
        # in the tables of the radius-6 ball
        (e_pert_tilde, math.sqrt(10.0) / 6.0, "2 K2"),
    ], ids=["assemble_report", "e01", "g2_expectation", "e_pert_tilde",
            "e_pert_tilde_2K2_above_K"])
    def test_inconsistent_lattice(self, tables_small, pair_sum, k2_over_k, match):
        # every K2 sum cuts its sub-table through the one sub_ball check,
        # which also rejects a K2 below the first shell
        with pytest.raises(InconsistentLattice, match=match):
            pair_sum(tables_small, tables_small.lattice.cutoff_K * k2_over_k)
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
        tail_ratio = (born2_sum(tb.table.sub_table(hi)).tail
                      / born2_sum(tb.table.sub_table(lo)).tail)
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
        assert rep1.e_pert_tilde.value == ept.value
        assert rep1.C_NB == cc.value
        for name in ("total_route_A", "total_route_B", "route_discrepancy"):
            assert getattr(rep1, name) == getattr(rep2, name)

    def test_route_totals_structure(self, tables_small):
        rep = assemble_report(tables_small, TWO_PI * 3)
        assert rep.total_route_A == pytest.approx(
            rep.leading + rep.E00 + rep.E_corr, rel=1e-15
        )
        assert rep.total_route_B == pytest.approx(
            rep.C_const + rep.E0 + rep.e_pert_tilde.value + rep.g2_expect,
            rel=1e-15
        )

    def test_corr_vs_parts_improves_with_n(self, pot_ref):
        # at K2 = K/2 the parts miss, at every N, C1's shell K2 < |p| <= K
        # times the inner sum: E01's p-sums stop at K2, C_NB runs to K.
        # What is left must shrink with N.
        lat = enumerate_lattice(TWO_PI * 6)
        K2 = TWO_PI * 3
        M2 = len(lat.sub_ball(K2))
        rel = []
        for N in (10**3, 10**5):
            tb = tables_of(solve(pot_ref, lat, N, 0.8))
            rep = assemble_report(tb, K2)
            v0 = tb.table.at_zero
            c1_shell = det_sum(per_point(lat, sc_minus_eta(tb.eta))[M2:]) + (
                2.0 * v0 * v0
                * det_sum(per_point(lat, c1_resolvent_summand(lat.psq, v0))[M2:])
            )
            shell = c1_shell * (-rep.born2.value / (2.0 * N))
            rel.append(abs((rep.corr_minus_parts - shell) / rep.E_corr))
        assert rel[1] < rel[0]


class TestClosureTruth:
    """The continuum tails of `E01` and `e_pert_tilde` against a
    lattice-converged truth: at N = 100, beta = 0.3 (kappa = 0.1,
    R = 0.25, K = 40 pi) the squeezing scale N^beta / R = 15.9 lies well
    inside K2 = 20 pi, so that run's tail is a small part of its value
    and the value is the truth for the runs at K2 = 5 pi and 10 pi.
    Each bound was fixed before the first run and is not to be widened;
    a corrected tail must shrink its row's error.  The reference point
    (N = 1e4, beta = 0.75) has K2 / (N^beta / R) = 0.016, beyond any
    lattice, so this truth does not reach it."""

    # K2 / pi -> (lowest, highest) signed error against the K2 = 20 pi value
    EPT_ERROR = {5: (-0.115, 0.0), 10: (-0.030, 0.0)}
    E01_ERROR = {5: (-0.0030, 0.0030), 10: (-0.0040, 0.0040)}

    @pytest.fixture(scope="class")
    def terms(self):
        cfg = parse_config({"N": 100, "beta": 0.3, "kappa": 0.1, "R": 0.25,
                            "cutoff_K_over_2pi": 20})
        tables, _ = run_tables(cfg, cfg.N)
        return {k: (e_pert_tilde(tables, k * math.pi), e01(tables, k * math.pi))
                for k in (5, 10, 20)}

    def test_tail_is_small_at_the_truth(self, terms):
        for term in terms[20]:
            assert abs(term.tail) <= 1e-4 * abs(term.value)

    @pytest.mark.parametrize("k2", [5, 10])
    def test_e_pert_tilde_error(self, terms, k2):
        truth = terms[20][0].value
        err = (terms[k2][0].value - truth) / truth
        lo, hi = self.EPT_ERROR[k2]
        assert lo <= err < hi

    @pytest.mark.parametrize("k2", [5, 10])
    def test_e01_error(self, terms, k2):
        truth = terms[20][1].value
        err = (terms[k2][1].value - truth) / truth
        lo, hi = self.E01_ERROR[k2]
        assert lo <= err <= hi
