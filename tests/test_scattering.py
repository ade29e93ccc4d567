import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bosegas import scattering
from bosegas.errors import NonConvergence
from bosegas.lattice_potential import (
    TWO_PI,
    Potential,
    born2_sum,
    enumerate_lattice,
    scaled_table,
)
from bosegas.scattering import (
    _defect,
    _OctantConvolver,
    conv_direct,
    dense_solve_eta,
    eta_tail,
    make_convolver,
    residual,
    scattering_length,
    solve_eta,
)

from conftest import per_point


def orbit_starts(lat):
    """Position of every orbit's first member in `lat.points()`."""
    return np.cumsum(lat.size) - lat.size


class TestSolver:
    def test_zero_coupling_one_iteration(self, lat3):
        sol = solve_eta(Potential(kappa=0.0, R=0.2), lat3, 100, 0.6)
        assert sol.iterations == 1
        assert np.all(sol.eta == 0.0)
        assert sol.residual_norm == 0.0

    def test_six_by_six_dense_oracle(self):
        pot = Potential(kappa=0.5, R=0.2)
        lat = enumerate_lattice(TWO_PI)
        sol = solve_eta(pot, lat, N=100, beta=0.6)
        dense = dense_solve_eta(pot, lat, 100, 0.6)
        assert np.max(np.abs(per_point(lat, sol.eta) - dense)) <= 1e-12

    @pytest.mark.parametrize("n_over", [1.0, math.sqrt(2), math.sqrt(3), 2.0,
                                        math.sqrt(5), 3.0, math.sqrt(12)])
    def test_dense_equivalence_small_lattices(self, n_over):
        # every lattice with <= 200 points
        pot = Potential(kappa=0.1, R=0.25)
        lat = enumerate_lattice(TWO_PI * n_over)
        assert len(lat) <= 200
        sol = solve_eta(pot, lat, N=10**4, beta=0.75)
        dense = dense_solve_eta(pot, lat, 10**4, 0.75)
        assert np.max(np.abs(per_point(lat, sol.eta) - dense)) <= 10.0 * scattering.TOL

    def test_converged_residual_within_tol(self, sol_small):
        assert residual(sol_small) <= scattering.TOL

    def test_symmetry_exact(self, sol_small):
        # one value per cubic orbit: every point and its negation read it
        lat = sol_small.lattice
        pts = lat.points()
        assert sol_small.eta.shape == lat.nsq.shape
        assert np.array_equal(lat.lookup(-pts), lat.lookup(pts))

    def test_nonconvergence_reports(self, lat3, monkeypatch):
        monkeypatch.setattr(scattering, "TOL", 1e-30)
        monkeypatch.setattr(scattering, "MAX_ITER", 3)
        pot = Potential(kappa=0.5, R=0.2)
        with pytest.raises(NonConvergence) as exc:
            solve_eta(pot, lat3, N=100, beta=0.6)
        assert exc.value.iterations == 3
        assert exc.value.best_residual > 0

    def test_divergence_stops_at_first_non_finite_residual(self):
        # far outside the contractive regime the iterates overflow; the
        # solve stops there, before any numpy warning, not at MAX_ITER
        lat = enumerate_lattice(8.0 * math.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonConvergence) as exc:
                solve_eta(Potential(kappa=1e8, R=0.25), lat, N=10, beta=0.5)
        assert exc.value.iterations < scattering.MAX_ITER
        assert math.isfinite(exc.value.best_residual)


class TestResidual:
    def test_zero_eta_zero_coupling(self, lat3):
        sol = solve_eta(Potential(kappa=0.0, R=0.2), lat3, 50, 0.6)
        assert residual(sol) == 0.0

    def test_born_defect_matches_double_loop(self, pot_coupled, lat3):
        # residual of the bare Born term equals an independent O(M^2) loop
        # over q != p
        N, beta = 300, 0.7
        table = scaled_table(pot_coupled, lat3, N, beta)
        born = -table.values / (2.0 * lat3.psq)
        psq = per_point(lat3, lat3.psq)
        values = per_point(lat3, table.values)
        born_pt = per_point(lat3, born)
        pts = lat3.points()
        M = len(lat3)
        defect = np.empty(M)
        for i in range(M):
            acc = 0.0
            for j in range(M):
                if j != i:
                    acc += float(table.value_at(pts[i] - pts[j])) * born_pt[j]
            defect[i] = psq[i] * born_pt[i] + acc / (2 * N) + 0.5 * values[i]
        expected = float(np.max(np.abs(defect)))
        conv = conv_direct(table, born_pt)[orbit_starts(lat3)]
        got = float(np.max(np.abs(_defect(table, born, conv))))
        assert got == pytest.approx(expected, rel=1e-12)


class TestConvolution:
    def test_fft_matches_direct(self, pot_coupled):
        lat = enumerate_lattice(TWO_PI * 5)
        table = scaled_table(pot_coupled, lat, 1000, 0.75)
        rng = np.random.default_rng(11)
        vals = rng.normal(size=len(lat.nsq))  # one value per orbit
        a = conv_direct(table, per_point(lat, vals))
        b = per_point(lat, _OctantConvolver(table)(vals))
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale
        # the direct path is exactly cubic-invariant, as the orbit tables are
        assert np.array_equal(a, per_point(lat, a[orbit_starts(lat)]))

    # period 4L is the shortest exact one: offsets of +-2L along an axis
    # share its index 2L, and the kernel is transformed on the (2L+1)^3
    # octant of that period
    @pytest.mark.parametrize("L", [2, 6, 10])
    def test_minimal_period_matches_direct(self, pot_coupled, L):
        lat = enumerate_lattice(TWO_PI * L)
        table = scaled_table(pot_coupled, lat, 1000, 0.75)
        conv = _OctantConvolver(table)
        assert conv.shape == (2 * L + 1,) * 3
        rng = np.random.default_rng(L)
        vals = rng.normal(size=len(lat.nsq))
        a = conv_direct(table, per_point(lat, vals))
        b = per_point(lat, conv(vals))
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))

    def test_kept_memory_at_reference_k(self, pot_ref):
        # at K = 40 pi (L = 20, M = 33,400 points in 900 orbits) the
        # convolver keeps the kernel spectrum, 41^3 doubles (0.55 MB), the
        # 41 x 41 transform matrix and one octant cell per orbit; an array
        # of one entry per point (0.27 MB each) would cross the bound
        lat = enumerate_lattice(TWO_PI * 20)
        table = scaled_table(pot_ref, lat, 10**4, 0.75)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            conv = make_convolver(table)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert conv.shape == (41, 41, 41)
        assert kept < 0.8e6

    def test_fft_solve_satisfies_exact_equation(self, pot_coupled, lat3):
        # the solve runs on the octant convolver; its eta must solve the
        # equation with the exact convolution as well
        sol = solve_eta(pot_coupled, lat3, 400, 0.7)
        exact = conv_direct(sol.table, per_point(lat3, sol.eta))[orbit_starts(lat3)]
        assert np.max(np.abs(_defect(sol.table, sol.eta, exact))) <= scattering.TOL


class TestTailRule:
    def test_zero_coupling(self):
        assert eta_tail(Potential(kappa=0.0, R=0.2), 100, 0.6, [TWO_PI, 0, 0]) == 0.0

    def test_large_momentum_bound(self, pot_ref):
        for n in (5, 20, 100):
            p = np.array([TWO_PI * n, 0.0, 0.0])
            val = eta_tail(pot_ref, 10**4, 0.75, p)
            assert abs(val) <= pot_ref.vhat0 / (2.0 * float(p @ p))

    def test_boundary_shell_agreement(self, pot_ref):
        # solved table vs tail rule at the outermost shell
        N, beta = 10**4, 0.75
        lat = enumerate_lattice(TWO_PI * 6)
        sol = solve_eta(pot_ref, lat, N, beta)
        start = int(np.searchsorted(lat.nsq, lat.nsq[-1]))
        for i in range(start, len(lat.nsq)):
            p = TWO_PI * lat.reps[i].astype(float)
            tail = eta_tail(pot_ref, N, beta, p)
            bound = 5.0 * N ** (beta - 1) * pot_ref.vhat0 / float(p @ p)
            assert abs(sol.eta[i] - tail) <= bound


class TestScatteringLength:
    def test_zero_coupling(self, lat3):
        sol = solve_eta(Potential(kappa=0.0, R=0.2), lat3, 100, 0.6)
        assert scattering_length(sol) == 0.0

    def test_below_zeroth_born(self, sol_small):
        a = scattering_length(sol_small)
        assert 8.0 * math.pi * a < sol_small.table.at_zero

    def test_born2_coefficient_stable_in_kappa(self, lat6):
        # (vhat(0) - 8 pi a)/kappa^2 approaches the second Born sum
        N, beta = 10**4, 0.75
        coefs = {}
        for kappa in (1e-2, 1e-3):
            pot = Potential(kappa=kappa, R=0.25)
            sol = solve_eta(pot, lat6, N, beta)
            a = scattering_length(sol)
            born2 = sol.lattice.total(sol.table.values**2 / sol.lattice.psq) / (2.0 * N)
            coefs[kappa] = (
                (pot.vhat0 - 8.0 * math.pi * a) / kappa**2,
                born2 / kappa**2,
            )
        x1, b1 = coefs[1e-2]
        x2, b2 = coefs[1e-3]
        assert abs(x1 - x2) <= 0.01 * abs(x2)
        assert abs(x1 - b1) <= 0.01 * abs(b1)
        assert abs(x2 - b2) <= 0.01 * abs(b2)

    def test_monotone_truncation(self, pot_ref):
        N, beta = 500, 0.75
        small = solve_eta(pot_ref, enumerate_lattice(TWO_PI * 4), N, beta)
        big = solve_eta(pot_ref, enumerate_lattice(TWO_PI * 8), N, beta)
        # the report's a_tail_bound, formed on the small ball
        tail_bound = 2.0 * born2_sum(small.table).tail / N / (8.0 * math.pi)
        assert abs(scattering_length(big) - scattering_length(small)) <= tail_bound
