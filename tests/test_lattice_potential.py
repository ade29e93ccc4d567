import itertools
import math

import numpy as np
import pytest

from bosegas.errors import (
    BetaOutOfRange,
    CutoffTooSmall,
    InconsistentLattice,
    NonFiniteSum,
)
from bosegas.lattice_potential import (
    _GL_NODES,
    _GL_WEIGHTS,
    TWO_PI,
    Potential,
    _shape_factor,
    born2_sum,
    enumerate_lattice,
    quartic_shape_tail,
    scaled_table,
)
from bosegas.sums import det_sum, weighted_sum

from conftest import brute_count, per_point, traced_peak
from reference import vhat_oracle


class TestEnumerate:
    def test_first_shell(self):
        lat = enumerate_lattice(TWO_PI)
        assert len(lat) == 6
        assert set(map(tuple, lat.points().tolist())) == {
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
        }

    def test_sqrt2_shell(self):
        assert len(enumerate_lattice(TWO_PI * math.sqrt(2))) == 18

    def test_radius_ten_count_vs_brute(self):
        lat = enumerate_lattice(TWO_PI * 10)
        assert len(lat) == 4168
        assert len(lat) == brute_count(10.0)

    def test_peak_below_orbit_arrays_bound(self):
        # at K = 40 pi (L = 20, side = 41, n = 900 orbits of M = 33,400
        # points) nothing of size M is built.  Live at once are at most:
        # the octant's |n|^2 cube (int64) and up to three boolean masks of
        # it, under 2 (L+1)^3 int64; the orbits' components, keys, sort
        # order, stacked and sorted copies, sizes and a permuted copy, under
        # 24 n int64; the octant table of ids (under (L+1)^3 int64) and the
        # ball's grid (side^3 int16).  So the peak stays below
        # 2 side^3 + 8 (3 (L+1)^3 + 24 n) bytes, 0.53 MB.
        L = 20
        n = sum(1 for a, b, c in itertools.combinations_with_replacement(range(L + 1), 3)
                if 0 < a * a + b * b + c * c <= L * L)
        assert n == 900
        bound = 2 * (2 * L + 1) ** 3 + 8 * (3 * (L + 1) ** 3 + 24 * n)
        assert traced_peak(enumerate_lattice, TWO_PI * L) < bound

    def test_too_small(self):
        with pytest.raises(CutoffTooSmall):
            enumerate_lattice(0.9 * TWO_PI)

    def test_negation_closed(self, lat6):
        # -p is a point of p's own orbit, and the mirror of p in the
        # orbit's lexicographic run
        pts = lat6.points()
        assert np.array_equal(lat6.lookup(-pts), lat6.lookup(pts))
        starts = np.cumsum(lat6.size) - lat6.size
        mirror = np.repeat(2 * starts + lat6.size - 1, lat6.size) - np.arange(len(pts))
        assert np.array_equal(pts[mirror], -pts)

    def test_canonical_order(self, lat6):
        # orbits by |n|^2, then by first member (-c, -b, -a); each orbit's
        # points in lexicographic order from that member
        nsq = lat6.nsq
        assert np.all(np.diff(nsq) >= 0)
        assert np.all(np.diff(lat6.reps, axis=1) >= 0)
        assert np.array_equal(np.sum(lat6.reps**2, axis=1), nsq)
        first = -lat6.reps[:, ::-1]
        for shell in np.unique(nsq):
            assert first[nsq == shell].tolist() == sorted(first[nsq == shell].tolist())
        pts = lat6.points()
        starts = np.cumsum(lat6.size) - lat6.size
        assert np.array_equal(pts[starts], first)
        for k, s in enumerate(starts):
            run = pts[s:s + lat6.size[k]].tolist()
            assert run == sorted(run)

    @pytest.mark.parametrize("radius", [1.0, math.sqrt(2), 3.0, math.sqrt(7.5),
                                        6.0, 10.0, 20.0])
    def test_shells_match_point_loop(self, radius):
        # a loop over the integer cube collects the points in canonical
        # order (shell by ascending |n|^2, each shell lexicographic) and
        # numbers each by the first appearance of its sorted |n|
        # components; the ball's points are that list regrouped stably by
        # orbit
        L = int(radius)
        canon = sorted(
            (n[0] ** 2 + n[1] ** 2 + n[2] ** 2, n)
            for n in itertools.product(range(-L, L + 1), repeat=3)
            if 0 < n[0] ** 2 + n[1] ** 2 + n[2] ** 2 <= radius**2 + 1e-9
        )
        pts = np.array([n for _, n in canon])
        first_seen = {}
        ids = np.array([
            first_seen.setdefault(tuple(sorted(map(abs, n))), len(first_seen))
            for n in pts.tolist()
        ])
        lat = enumerate_lattice(TWO_PI * radius)
        assert np.array_equal(lat.lookup(pts), ids)
        assert int(lat.size.sum()) == len(lat) == len(pts)
        assert np.array_equal(lat.points(), pts[np.argsort(ids, kind="stable")])
        # an inner ball is the orbit prefix
        inner_radius = max(1.0, radius / 2.0)
        sub = lat.sub_ball(TWO_PI * inner_radius)
        n2 = len(sub.nsq)
        assert n2 == int(np.sum(lat.nsq <= inner_radius**2 + 1e-9))
        for name in ("reps", "nsq", "size"):
            assert np.array_equal(getattr(sub, name), getattr(lat, name)[:n2]), name
        assert np.array_equal(sub.points(), lat.points()[:len(sub)])
        inner = pts[np.max(np.abs(pts), axis=1) <= sub.L]
        ref = lat.lookup(inner)
        assert np.array_equal(sub.lookup(inner), np.where(ref < n2, ref, -1))

    # sqrt(7) and sqrt(7.5) end below a |n|^2 that no point has
    @pytest.mark.parametrize("radius", [1.0, math.sqrt(7), math.sqrt(7.5), 3.0, 6.0])
    def test_sub_ball_equals_fresh_enumeration(self, lat6, radius):
        sub = lat6.sub_ball(TWO_PI * radius)
        ref = enumerate_lattice(TWO_PI * radius)
        assert sub.cutoff_K == ref.cutoff_K and sub.L == ref.L
        for name in ("reps", "nsq", "size", "grid"):
            assert np.array_equal(getattr(sub, name), getattr(ref, name)), name
        assert sub.grid.dtype == ref.grid.dtype

    def test_sub_ball_beyond_the_cutoff_rejected(self, lat6):
        with pytest.raises(InconsistentLattice):
            lat6.sub_ball(TWO_PI * 6.5)
        with pytest.raises(CutoffTooSmall):
            lat6.sub_ball(0.9 * TWO_PI)

    def test_deterministic(self):
        a = enumerate_lattice(TWO_PI * 4)
        b = enumerate_lattice(TWO_PI * 4)
        assert np.array_equal(a.points(), b.points())
        assert np.array_equal(a.grid, b.grid)

    def test_lookup(self, lat6):
        idx = lat6.lookup(lat6.points())
        assert np.array_equal(idx, np.repeat(np.arange(len(lat6.nsq)), lat6.size))
        assert lat6.lookup(np.array([[99, 0, 0]]))[0] == -1


class TestVhat:
    def test_zero_momentum_ball_volume(self):
        pot = Potential(kappa=1.0, R=1.0)
        v0 = float(pot.vhat_radial(0.0))
        assert v0 == pytest.approx((4 * math.pi / 3) ** 2, rel=1e-14)
        assert abs(v0 - 17.5460) < 5e-4

    def test_zero_coupling(self):
        pot = Potential(kappa=0.0, R=0.2)
        assert pot.vhat_radial(TWO_PI) == 0.0

    def test_quadrature_oracle(self):
        pot = Potential(kappa=1.0, R=0.4)
        closed = float(pot.vhat_radial(TWO_PI))
        ref = vhat_oracle(pot, TWO_PI)
        assert abs(closed - ref) / ref <= 1e-10

    @pytest.mark.parametrize("rho", [0.3, 2.0, 17.5, 60.0])
    def test_quadrature_oracle_other_radii(self, rho):
        pot = Potential(kappa=0.7, R=0.25)
        ref = vhat_oracle(pot, rho)
        assert abs(float(pot.vhat_radial(rho)) - ref) <= 1e-10 * max(ref, pot.vhat0)

    def test_nonnegative_and_radial(self):
        pot = Potential(kappa=0.3, R=0.25)
        rng = np.random.default_rng(7)
        rho = np.linalg.norm(rng.normal(size=(50, 3)) * 30, axis=1)
        assert np.all(pot.vhat_radial(rho) >= 0.0)
        # momenta are evaluated through |n|^2: a permuted, negated triple
        # gets the same value bit for bit
        table = scaled_table(pot, enumerate_lattice(2 * TWO_PI), 100, 0.75)
        t = rng.integers(-9, 10, size=(50, 3))
        v = table.value_at(t)
        assert np.all(v >= 0.0)
        assert np.array_equal(table.value_at(-t[:, ::-1]), v)

    def test_series_matches_direct_branch(self):
        # the four-term series extends well beyond its switch radius; at
        # r = 0.02 both it and the direct form are reliable
        r = 0.02
        direct = (math.sin(r) - r * math.cos(r)) / r**3
        series = 1 / 3 - r**2 / 30 + r**4 / 840 - r**6 / 45360
        assert abs(series - direct) <= 5e-12 * direct

    def test_branches_agree_at_switch_radius(self):
        from bosegas.lattice_potential import _SERIES_RADIUS

        r = _SERIES_RADIUS
        direct = (math.sin(r) - r * math.cos(r)) / r**3
        series = 1 / 3 - r**2 / 30 + r**4 / 840 - r**6 / 45360
        assert abs(series - direct) <= 5e-13 * direct


class TestScaledTable:
    def test_beta_out_of_range(self, pot_ref, lat3):
        with pytest.raises(BetaOutOfRange):
            scaled_table(pot_ref, lat3, 100, 1.0)

    @pytest.mark.parametrize("R", [0.0, -0.1, math.nan])
    def test_radius_not_positive_rejected(self, lat3, R):
        with pytest.raises(ValueError, match="support radius"):
            scaled_table(Potential(kappa=1.0, R=R), lat3, 100, 0.5)

    def test_large_N_limit(self, pot_ref, lat3):
        t = scaled_table(pot_ref, lat3, 10**8, 0.9)
        i = int(lat3.lookup((1, 0, 0)))
        assert abs(t.values[i] - t.at_zero) <= 1e-6 * t.at_zero

    def test_zero_coupling(self, lat3):
        t = scaled_table(Potential(kappa=0.0, R=0.2), lat3, 100, 0.5)
        assert np.all(t.values == 0.0)

    def test_scaling_path(self, pot_ref, lat3):
        t = scaled_table(pot_ref, lat3, 1000, 0.5)
        i = int(lat3.lookup((1, 0, 0)))
        direct = float(pot_ref.vhat_radial(TWO_PI / math.sqrt(1000)))
        assert t.values[i] == direct

    def test_negation_symmetry_exact(self, pot_ref, lat6):
        # the orbit value is the transform at every member and its negation
        t = scaled_table(pot_ref, lat6, 777, 0.7)
        pts = lat6.points()
        assert np.array_equal(t.value_at(pts), per_point(lat6, t.values))
        assert np.array_equal(t.value_at(-pts), per_point(lat6, t.values))

    def test_all_nonnegative(self, pot_coupled, lat6):
        t = scaled_table(pot_coupled, lat6, 300, 0.8)
        assert np.all(t.values >= 0.0)


class TestBorn2Sum:
    def test_gauss_legendre_literals_are_numpys_rule(self):
        nodes, weights = np.polynomial.legendre.leggauss(20)
        assert _GL_NODES.tobytes() == nodes.tobytes()
        assert _GL_WEIGHTS.tobytes() == weights.tobytes()
    def test_l1_bound_stays_within_factor_three(self, pot_ref, lat6):
        # sum vhat^2/p^2 (= 2x the tabulated half-weight sum) over the
        # full lattice grows like N^beta; ball + analytic tail must track it
        beta = 0.75
        ratios = []
        for N in (10**3, 10**4, 10**5):
            t = scaled_table(pot_ref, lat6, N, beta)
            ball, tail = born2_sum(t)
            ratios.append(2.0 * (ball + tail) / N**beta)
        assert max(ratios) <= 3.0 * min(ratios)

    def test_tail_consistency_across_cutoffs(self, pot_ref):
        # moving the split point must not move the total by more than a
        # few percent of the tail
        beta = 0.75
        N = 10**4
        big = enumerate_lattice(TWO_PI * 12)
        t = scaled_table(pot_ref, big, N, beta)
        ball_a, tail_a = born2_sum(t.sub_table(TWO_PI * 6))
        ball_b, tail_b = born2_sum(t.sub_table(TWO_PI * 12))
        tot_a, tot_b = ball_a + tail_a, ball_b + tail_b
        assert abs(tot_a - tot_b) <= 0.05 * tail_a

    def test_zero_coupling(self, lat3):
        t = scaled_table(Potential(kappa=0.0, R=0.25), lat3, 100, 0.75)
        ball, tail = born2_sum(t)
        assert ball == 0.0 and tail == 0.0

    # 0.0314 is R*K/N^beta at the reference point (K = 40 pi, N = 1e4).
    # The reference is the integral over [x, infinity): adaptive quadrature
    # on chunks of width max(1, w/50) up to 100 max(x, 2), beyond which
    # lies at most about 1e-14 of the value.  Up to x = 12.5 the rule stops
    # at 200 and drops at most 1e-13 of the value at these x; beyond, it
    # stops at 16x and drops up to 16^-7 = 3.7e-9 of it (measured 3.7e-9 at
    # x = 30, where the rule that stopped at max(200, 2x) dropped 1.7e-6).
    @pytest.mark.parametrize("x", [1e-4, 0.0314, 0.5, 3.0, 30.0, 100.0])
    def test_tail_rule_matches_adaptive_quadrature(self, x):
        from scipy.integrate import quad

        got = quartic_shape_tail(x)
        top = 100.0 * max(x, 2.0)
        edges = [x]
        while edges[-1] < top:
            edges.append(min(top, edges[-1] + max(1.0, edges[-1] / 50.0)))
        # absolute target per chunk: 1e-16 of the value, over all chunks
        eps = 1e-16 * got / len(edges)

        def g4(w):
            # from w = 1 on the direct form is accurate, and much faster
            # than the array function on scalars
            if w < 1.0:
                return float(_shape_factor(w)) ** 4
            return ((math.sin(w) - w * math.cos(w)) / w**3) ** 4

        ref = math.fsum(
            quad(g4, a, b, epsabs=eps, epsrel=1e-13, limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )
        rtol = 1e-12 if x <= 12.5 else 1e-8
        assert abs(got - ref) <= rtol * ref


@pytest.mark.parametrize("values", [[math.inf, -math.inf], [1e308, 1e308]])
def test_det_sum_non_finite_raises(values):
    with pytest.raises(NonFiniteSum):
        det_sum(np.array(values))


def test_det_sum_matches_fsum():
    rng = np.random.default_rng(3)
    x = rng.normal(size=1000) * 10.0**rng.integers(-8, 8, size=1000)
    assert det_sum(x) == math.fsum(x.tolist())


@pytest.mark.parametrize("x", [
    np.array([]),
    np.array([-0.0]),
    np.array([-0.0, 0.0, -0.0]),
    np.array([-0.0, -0.0]),
    np.array([1.0, math.inf]),
    np.array([1.0, math.nan]),
    (np.arange(10.0) * 0.1)[::-3],
    np.array([2**60 + 1, -(2**60), 3], dtype=np.int64),
], ids=["empty", "neg_zero", "mixed_zeros", "neg_zeros", "inf", "nan",
        "strided", "int64"])
def test_det_sum_bitwise_fsum_of_list(x):
    # the same floats reach fsum as from tolist, signs of zero included
    assert det_sum(x).hex() == math.fsum(x.tolist()).hex()


def _outcome(fn, *args):
    """fn(*args) bitwise as float.hex, or the NonFiniteSum it raises."""
    try:
        return fn(*args).hex()
    except NonFiniteSum as exc:
        return ("NonFiniteSum", str(exc))


def _weighted_cases():
    rng = np.random.default_rng(48)
    n = 400
    signs = rng.choice([-1.0, 1.0], size=n)
    counts = rng.integers(1, 49, size=n)
    full = rng.uniform(1.0, 2.0, size=n) * 2.0 ** rng.integers(-1074, 1000, size=n)
    sub = rng.integers(1, 2**52, size=n) * 2.0**-1074
    tiny = rng.uniform(1.0, 2.0, size=n) * 2.0 ** rng.integers(-1074, -1000, size=n)
    huge = rng.uniform(-1.0, 1.0, size=n) * 1e306
    return {
        "all_counts": (rng.normal(size=48) * 1e3, np.arange(1, 49)),
        "wide_exponents": (signs * full, counts),
        "cancelling": (np.concatenate([full, -full * (1 + 2**-52)]),
                       np.concatenate([counts, counts])),
        "subnormal": (signs * sub, counts),
        "subnormal_and_tiny": (np.concatenate([sub, -sub[::-1] * 3.0, signs * tiny]),
                               np.concatenate([counts, counts, counts])),
        "huge": (huge[:40], counts[:40]),
        "overflowing": (np.array([1e307, 2.0]), np.array([48, 3])),
        "overflow_cancelling": (np.array([1e308, -1e308]), np.array([2, 2])),
        "overflow_one_each": (np.array([1e308, 1e308, -1e308]), np.ones(3, dtype=np.int64)),
        "inf": (np.array([1.0, math.inf]), np.array([3, 2])),
        "inf_minus_inf": (np.array([math.inf, 5.0, -math.inf]), np.array([1, 2, 3])),
        "nan": (np.array([math.nan, 1.0]), np.array([4, 1])),
        "neg_zeros": (np.array([-0.0, -0.0]), np.array([3, 48])),
        "mixed_zeros": (np.array([-0.0, 0.0]), np.array([3, 1])),
        "empty": (np.zeros(0), np.zeros(0, dtype=np.int64)),
    }


@pytest.mark.parametrize("case", list(_weighted_cases()))
def test_weighted_sum_bitwise_repeated_sum(case):
    # the exact per-orbit sum is bitwise det_sum of the values repeated
    # by their counts, and raises where that raises, with its message
    values, counts = _weighted_cases()[case]
    expected = _outcome(lambda: det_sum(np.repeat(values, counts)))
    assert _outcome(weighted_sum, values, counts) == expected

