import math

import numpy as np
import pytest

from bosegas import pipeline, scattering
from bosegas.bogoliubov import (
    bogoliubov_ground_energy,
    constant_C,
    e00,
    e00_summand,
    sc_minus_eta,
    tau_table,
)
from bosegas.config import parse_config
from bosegas.errors import DiagonalizationFailure
from bosegas.lattice_potential import TWO_PI, Potential, enumerate_lattice
from bosegas.pipeline import run_tables
from bosegas.scattering import make_convolver
from bosegas.sums import det_sum

from conftest import e01_at, per_point, solve, tables_of
from reference import a_coefficient


@pytest.fixture(scope="module")
def zero_tables(lat3):
    sol = solve(Potential(kappa=0.0, R=0.2), lat3, 100, 0.6)
    return tables_of(sol)


class TestHyperbolics:
    def test_zero_eta(self, zero_tables):
        assert np.all(zero_tables.s == 0.0)
        assert np.all(zero_tables.c == 1.0)

    def test_identity(self, tables_small):
        assert np.max(np.abs(tables_small.c**2 - tables_small.s**2 - 1)) <= 1e-12
        assert np.max(np.abs(tables_small.ct**2 - tables_small.st**2 - 1)) <= 1e-12

    def test_s_decay_certificate(self, tables_small):
        psq = tables_small.lattice.psq
        c_eta = np.max(np.abs(psq * tables_small.sol.eta))
        assert np.all(np.abs(tables_small.s) * psq <= math.sinh(c_eta) * (1 + 1e-12))

    def test_cs_minus_eta_spot_shells(self, tables_small):
        # |c s - eta| <= C'/|p|^6 on three shells
        lat = tables_small.lattice
        eta = tables_small.sol.eta
        c_eta = np.max(np.abs(lat.psq * eta))
        cprime = (2.0 / 3.0) * c_eta**3 * 1.1
        cs_m = tables_small.c * tables_small.s - eta
        for nsq in np.unique(lat.nsq)[:3]:
            p6 = (TWO_PI**2 * nsq) ** 3
            assert np.max(np.abs(cs_m[lat.nsq == nsq])) <= cprime / p6

    def test_sc_minus_eta_series_consistency(self):
        # series and direct forms agree where both are reliable
        x = np.array([5e-4, 9.9e-4, 1.1e-3, 0.01, 0.3])
        direct = np.sinh(x) * np.cosh(x) - x
        assert np.max(np.abs(sc_minus_eta(x) - direct) / direct) <= 1e-9
        # odd function
        assert np.all(sc_minus_eta(-x) == -sc_minus_eta(x))


class TestConvolutionCS:
    def test_zero_coupling(self, zero_tables):
        assert np.all(zero_tables.cs_conv == 0.0)

    def test_brute_force_small(self, tables_first_shell):
        tb = tables_first_shell
        lat = tb.lattice
        pts = lat.points()
        cs = per_point(lat, tb.c * tb.s)
        cs_conv = per_point(lat, tb.cs_conv)
        table = tb.table
        for i in range(len(lat)):
            acc = 0.0
            for j in range(len(lat)):
                if j == i:
                    continue
                acc += float(table.value_at(pts[i] - pts[j])) * cs[j]
            assert cs_conv[i] == pytest.approx(acc, rel=1e-12, abs=1e-300)

    def test_run_tables_builds_one_convolver(self, monkeypatch):
        # run_tables builds the K ball's convolver once, for the solve and
        # for the tables' c s convolution
        real = scattering.make_convolver
        built = []

        def counting(table):
            built.append(table)
            return real(table)

        monkeypatch.setattr(scattering, "make_convolver", counting)
        monkeypatch.setattr(pipeline, "make_convolver", counting)
        cfg = parse_config({"N": 500, "beta": 0.75, "kappa": 0.5, "R": 0.25,
                            "cutoff_K_over_2pi": 6, "cutoff_K2_over_2pi": 3})
        tables, _ = run_tables(cfg, cfg.N)
        assert len(built) == 1
        assert built[0] is tables.table

    def test_sup_bound_certificate(self, tables_small):
        tb = tables_small
        bound = np.max(np.abs(tb.cs_conv)) / tb.N**tb.beta
        assert np.isfinite(bound)
        # loose per-run certificate: the constant is O(vhat(0)^2) here
        assert bound <= 10.0 * tb.table.at_zero


class TestCoefficients:
    def test_zero_coupling_collapse(self, zero_tables):
        psq = zero_tables.lattice.psq
        assert np.all(zero_tables.F == psq)
        assert np.all(zero_tables.G == 0.0)
        assert np.all(zero_tables.tau == 0.0)
        assert np.all(zero_tables.e == psq)

    def test_fg_identity_with_a_coefficient(self, tables_small):
        # F^2 - G^2 = p^4 + 2 p^2 vhat + A exactly
        tb = tables_small
        psq = tb.lattice.psq
        lhs = (tb.F - tb.G) * (tb.F + tb.G)
        rhs = psq * psq + 2.0 * psq * tb.table.values + a_coefficient(tb)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))

    def test_g_decomposition_ties_to_scattering_tol(self, tables_small):
        # G = 2 p^2 eta + vhat + (vhat * eta)/N + G_rem with the first
        # three terms equal to twice the solver defect; both convolutions
        # exclude q = p
        tb = tables_small
        lat = tb.lattice
        psq = lat.psq
        eta = tb.sol.eta
        c2s2 = tb.c**2 + tb.s**2
        conv_eta = make_convolver(tb.table)(eta)
        main = 2.0 * psq * eta + tb.table.values + conv_eta / tb.N
        g_rem = (
            2.0 * psq * sc_minus_eta(eta)
            + ((tb.c + tb.s) ** 2 - 1.0) * tb.table.values
            + (tb.cs_conv * c2s2 - conv_eta) / tb.N
        )
        resid = np.max(np.abs(tb.G - main - g_rem))
        assert resid <= 1e-13 * max(1.0, float(np.max(np.abs(tb.G))))
        assert np.max(np.abs(main)) <= 10.0 * scattering.TOL

    def test_g_psq_certificate(self, tables_small):
        c = np.max(np.abs(tables_small.G) * tables_small.lattice.psq)
        assert np.isfinite(c)

    def test_ratio_within_regime(self, tables_small):
        assert np.max(np.abs(tables_small.G / tables_small.F)) <= 0.5


class TestTau:
    def test_zero_pairing(self, lat3):
        F = lat3.psq.copy()
        tau = tau_table(F, np.zeros_like(F), lat3, 100, 0.0)
        assert np.all(tau == 0.0)

    def test_closed_form_value(self, lat3):
        # G/F = -3/5 gives tau = artanh(3/5)/2 = ln(4)/4
        F = np.full(len(lat3.nsq), 5.0)
        G = np.full(len(lat3.nsq), -3.0)
        tau = tau_table(F, G, lat3, 100, 0.0)
        assert np.max(np.abs(tau - math.log(4.0) / 4.0)) <= 1e-15

    def test_identity(self, tables_small):
        tb = tables_small
        gap = np.max(np.abs(np.tanh(2.0 * tb.tau) + tb.G / tb.F))
        assert gap <= 1e-12

    def test_failure_raises_with_point(self, lat3):
        F = lat3.psq.copy()
        G = F.copy()
        G[3] = 1.5 * F[3]
        with pytest.raises(DiagonalizationFailure) as exc:
            tau_table(F, G, lat3, 100, 9.9)
        assert exc.value.ratio == pytest.approx(1.5)
        # orbit 3's first member in canonical order
        assert exc.value.point == tuple(lat3.points()[np.sum(lat3.size[:3])])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowed_coefficients_raise(self, lat3):
        # F and G both infinite: G/F is NaN, not a ratio below 1
        F = lat3.psq.copy()
        G = np.zeros_like(F)
        F[3] = G[3] = np.inf
        with pytest.raises(DiagonalizationFailure) as exc:
            tau_table(F, G, lat3, 100, 9.9)
        assert exc.value.point == tuple(-lat3.reps[3, ::-1])

    def test_p4_certificate(self, tables_small):
        tb = tables_small
        c = np.max(np.abs(tb.tau) * tb.lattice.psq**2)
        assert np.isfinite(c)
        assert np.max(np.abs(tb.tau)) <= np.max(np.abs(tb.G / tb.F)) * (1 + 1e-9)


class TestGroundEnergy:
    def test_zero_pairing(self, zero_tables):
        assert bogoliubov_ground_energy(zero_tables) == 0.0

    def test_single_mode_arithmetic(self):
        # per member of a +-p pair: (1/2)(-F + sqrt(F^2 - G^2))
        F, G = 5.0, 3.0
        val = -G * G / (2.0 * (F + math.sqrt(F * F - G * G)))
        assert val == pytest.approx(0.5 * (-F + 4.0))

    def test_negative_in_coupled_regime(self, tables_small):
        assert bogoliubov_ground_energy(tables_small) < 0.0


class TestConstantC:
    def test_zero_coupling(self, zero_tables):
        c = constant_C(zero_tables)
        assert c.value == 0.0 and c.excess == 0.0

    def test_macroscopic_share(self, pot_ref, lat3):
        sol = solve(pot_ref, lat3, 10**6, 0.75)
        tb = tables_of(sol)
        c = constant_C(tb)
        assert abs(c.value / 10**6 - 0.5 * pot_ref.vhat0) <= 0.01 * 0.5 * pot_ref.vhat0

    def test_excess_is_value_minus_macroscopic(self, tables_small):
        tb = tables_small
        c = constant_C(tb)
        assert c.value == 0.5 * (tb.N - 1) * tb.table.at_zero + c.excess


class TestE00:
    def test_zero_potential(self, lat3):
        assert e00(0.0, lat3).value == 0.0

    def test_single_shell_pinned_arithmetic(self):
        # vhat(0) = 1 at |p| = 2 pi: the displayed summand evaluated directly
        psq = TWO_PI**2
        direct = -psq - 1.0 + math.sqrt(psq * psq + 2.0 * psq) + 1.0 / (2.0 * psq)
        stable = float(e00_summand(np.array([psq]), 1.0)[0])
        assert stable == pytest.approx(direct, rel=1e-12)
        # frozen value of the expression itself
        assert direct == pytest.approx(0.00031100117616095213, abs=1e-15)

    def test_positive(self, tables_small):
        assert e00(tables_small.table.at_zero, tables_small.lattice).value > 0.0

    def test_convergence_within_tail_estimate(self, pot_coupled):
        lat_a = enumerate_lattice(TWO_PI * 5)
        lat_b = enumerate_lattice(TWO_PI * 10)
        a = e00(pot_coupled.vhat0, lat_a)
        b = e00(pot_coupled.vhat0, lat_b)
        assert abs(b.value - a.value) <= a.tail_estimate

    def test_order_reversal(self, tables_small):
        lat = tables_small.lattice
        v0 = tables_small.table.at_zero
        fwd = e00(v0, lat).value
        rev = 0.5 * det_sum(per_point(lat, e00_summand(lat.psq, v0))[::-1].copy())
        assert abs(fwd - rev) <= 1e-12 * abs(fwd)


class TestE01:
    def test_zero_coupling(self, zero_tables):
        res = e01_at(zero_tables, zero_tables.lattice.cutoff_K)
        assert res.value == 0.0

    def test_first_shell_brute_loop(self, tables_first_shell):
        tb = tables_first_shell
        lat = tb.lattice
        K2 = TWO_PI * 1.0
        M2 = len(lat.sub_ball(K2))
        pts = lat.points()[:M2]
        psq = per_point(lat, lat.psq)[:M2]
        v = per_point(lat, tb.table.values)[:M2]
        eta = per_point(lat, tb.sol.eta)[:M2]
        sc = per_point(lat, tb.c * tb.s)[:M2]
        scm = sc_minus_eta(eta)
        S = np.sqrt(psq * (psq + 2 * v))
        acc1 = acc2 = 0.0
        for i in range(M2):
            for j in range(M2):
                if i == j:
                    continue
                vij = float(tb.table.value_at(pts[i] - pts[j]))
                acc1 += vij * scm[i] * (sc[j] + v[j] / psq[j])
                acc2 += v[i] ** 2 * vij * sc[j] / (S[i] * (psq[i] + S[i]))
        expected_ball = -acc1 / (2 * tb.N) + acc2 / tb.N
        res = e01_at(tb, K2)
        assert res.ball == pytest.approx(expected_ball, rel=1e-12)

    @pytest.mark.parametrize("fixture, k2_units", [
        ("tables_small", 3.0),
        ("tables_small", math.sqrt(17.0)),
        ("tables_first_shell", 3.0),
    ])
    def test_convolution_matches_row_loop(self, request, fixture, k2_units):
        # the row loop e01 ran before its q-sums became convolutions; a
        # few ulps of FFT rounding apart, relative to the sum
        tb = request.getfixturevalue(fixture)
        K2 = TWO_PI * k2_units
        lat = tb.lattice
        M2 = len(lat.sub_ball(K2))
        pts = lat.points()[:M2]
        psq = per_point(lat, lat.psq)[:M2]
        v = per_point(lat, tb.table.values)[:M2]
        scm = sc_minus_eta(per_point(lat, tb.sol.eta)[:M2])
        sc = per_point(lat, tb.s * tb.c)[:M2]
        S = np.sqrt(psq * (psq + 2.0 * v))
        w2 = v * v / (S * (psq + S))
        bracket = sc + v / psq
        rows1, rows2 = [], []
        for i in range(M2):
            kern = tb.table.value_at(pts[i] - pts)
            kern[i] = 0.0
            rows1.append(scm[i] * det_sum(kern * bracket))
            rows2.append(w2[i] * det_sum(kern * sc))
        expected = det_sum([-det_sum(rows1) / (2.0 * tb.N), det_sum(rows2) / tb.N])
        got = e01_at(tb, K2).ball
        assert abs(got - expected) <= 1e-13 * abs(expected)

