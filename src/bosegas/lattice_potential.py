"""Momentum lattice and the pair-interaction Fourier transform.

The torus is the unit box, so the dual lattice is 2*pi*Z^3.  The built-in
interaction family is the self-convolution of a ball indicator scaled by a
coupling constant: it is bounded, compactly supported, radial, and has the
closed-form, everywhere nonnegative Fourier transform

    vhat(p) = kappa * (4*pi*(sin(R|p|) - R|p|*cos(R|p|)) / |p|^3)^2 ,

continuously extended at p = 0 where it equals kappa*(4*pi*R^3/3)^2.
Evaluations are keyed on |p|^2 so that opposite momenta receive bitwise
identical values.

The transform is radial, so the momentum ball (`LatticeBall`) and every
table on it hold one entry per cubic orbit and no per-point array (at
K = 40 pi, 900 orbits hold the 33,400 points).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import BetaOutOfRange, CutoffTooSmall, InconsistentLattice
from .sums import Term, det_sum

TWO_PI = 2.0 * np.pi

# (sin r - r cos r)/r^3 = 1/3 - r^2/30 + r^4/840 - r^6/45360 + O(r^8).
# The direct form cancels catastrophically near r = 0 (relative error
# ~3 eps/r^2), so the four-term series takes over below this radius, where
# its truncation error is under 2e-15 relative.
_SERIES_RADIUS = 0.08


def _shape_factor(r: np.ndarray) -> np.ndarray:
    """(sin r - r cos r)/r^3, stable at the origin."""
    r = np.asarray(r, dtype=float)
    small = r < _SERIES_RADIUS
    rs = np.where(small, 1.0, r)
    direct = (np.sin(rs) - rs * np.cos(rs)) / rs**3
    r2 = r * r
    series = 1.0 / 3.0 - r2 / 30.0 + r2 * r2 / 840.0 - r2 * r2 * r2 / 45360.0
    return np.where(small, series, direct)


class Potential(NamedTuple):
    """Radial positive-type pair potential: coupling * ball self-convolution.

    R is the radius of the generating ball.  Runs on the unit torus require
    0 < R < 1/4 (support radius 2R below half the box); that bound is
    enforced at configuration level, and R > 0 by `scaled_table`, not
    here, so the transform stays a total function usable at any radius.
    """

    kappa: float
    R: float

    def vhat_radial(self, rho) -> np.ndarray:
        """Fourier transform at radius rho (scalar or array)."""
        rho = np.asarray(rho, dtype=float)
        amp = 4.0 * np.pi * self.R**3 * _shape_factor(self.R * rho)
        return self.kappa * amp * amp

    @property
    def vhat0(self) -> float:
        """Transform at the origin, kappa*(4*pi*R^3/3)^2."""
        return self.kappa * (4.0 * np.pi * self.R**3 / 3.0) ** 2


def vhat_oracle(pot: Potential, rho: float) -> float:
    """Quadrature reference for the closed form (radial transform of the
    ball indicator, squared).  Slow; used only by tests."""
    from scipy.integrate import quad

    if rho == 0.0:
        return pot.vhat0
    ball, _ = quad(
        lambda r: 4.0 * np.pi * r * np.sin(rho * r) / rho,
        0.0,
        pot.R,
        epsabs=1e-15,
        epsrel=1e-13,
        limit=200,
    )
    return pot.kappa * ball * ball


class LatticeBall(NamedTuple):
    """Momenta p = 2*pi*n with 0 < |p| <= cutoff_K, one entry per cubic
    orbit.

    The ball excludes the zero mode and is closed under the 48-element
    cubic group (coordinate permutations and sign flips).  Two points share
    an orbit exactly when their sorted |n| components a <= b <= c agree,
    and every table on the ball is radial, so it is stored as one value per
    orbit, aligned with `reps`.  The orbits run by ascending |n|^2, then
    lexicographically by their first member (-c, -b, -a): the order in
    which they first appear among the points in canonical order (ascending
    |n|^2, lexicographic tie-break), so every prefix of whole shells holds
    exactly the orbits 0..k-1.  A sum over the ball repeats each orbit's
    value by its size (`total`).

    `grid` maps n + L, flattened over the (2L+1)^3 cube, to n's orbit and
    to -1 outside the ball, in the smallest signed integer type that holds
    the orbit ids; `points` expands the members from it.
    """

    cutoff_K: float
    reps: np.ndarray            # (n_orbits, 3) sorted |n| components
    nsq: np.ndarray             # (n_orbits,) int64, |n|^2 per orbit
    size: np.ndarray            # (n_orbits,) member count
    grid: np.ndarray            # flat (2L+1)^3 orbit ids, -1 outside
    L: int

    def __len__(self) -> int:
        """The number of points M."""
        return int(self.size.sum())

    @property
    def norms(self) -> np.ndarray:
        """|p| per orbit."""
        return TWO_PI * np.sqrt(self.nsq.astype(float))

    @property
    def psq(self) -> np.ndarray:
        """|p|^2 per orbit."""
        return TWO_PI * TWO_PI * self.nsq.astype(float)

    def total(self, values: np.ndarray) -> float:
        """Exact sum over the points of an orbit table: each value repeated
        by its orbit size, so bitwise the sum over every point (`det_sum`
        is correctly rounded; a sum of size * value is not)."""
        return det_sum(np.repeat(values, self.size))

    def points(self) -> np.ndarray:
        """(M, 3) points by orbit, each orbit's members in lexicographic
        order, expanded from the grid on every call."""
        flat = np.flatnonzero(self.grid >= 0)
        # sorted as intp: numpy's stable sort of 8- and 16-bit integers is a
        # radix sort that maps another 64 KB of its code into the process
        flat = flat[np.argsort(self.grid[flat].astype(np.intp), kind="stable")]
        side = 2 * self.L + 1
        return np.stack(np.unravel_index(flat, (side, side, side)), axis=1) - self.L

    def lookup(self, triples: np.ndarray) -> np.ndarray:
        """Vectorized point -> orbit id map; -1 where outside the ball."""
        t = np.asarray(triples)
        flat = t.reshape(-1, 3)
        inside = np.all(np.abs(flat) <= self.L, axis=1)
        out = np.full(flat.shape[0], -1, dtype=np.int64)
        if np.any(inside):
            sel = flat[inside] + self.L
            side = 2 * self.L + 1
            out[inside] = self.grid[
                (sel[:, 0] * side + sel[:, 1]) * side + sel[:, 2]
            ]
        return out.reshape(t.shape[:-1])

    def sub_ball(self, K: float) -> "LatticeBall":
        """The ball |p| <= K <= cutoff_K, an orbit prefix of this one:
        equal to `enumerate_lattice(K)` without enumerating again.

        The one rule from an inner cutoff to its prefix, and the one check
        that it lies inside this ball (InconsistentLattice beyond it,
        CutoffTooSmall below the first shell)."""
        if K > self.cutoff_K * (1.0 + 1e-12):
            raise InconsistentLattice(f"sub-ball {K} exceeds cutoff {self.cutoff_K}")
        nsq_max = _nsq_max(K)
        n = int(np.searchsorted(self.nsq, nsq_max, side="right"))
        return _ball(K, self.reps[:n], self.nsq[:n], self.size[:n],
                     math.isqrt(nsq_max))


def _nsq_max(K: float) -> int:
    """Largest |n|^2 with |2 pi n| <= K; CutoffTooSmall below the first
    shell.  |n|^2 is an integer, so the radius comparison is exact once
    the squared bound is snapped to the nearest representable integer."""
    nsq_max = int(np.floor((K / TWO_PI) ** 2 + 1e-9))
    if K < TWO_PI or nsq_max < 1:
        raise CutoffTooSmall(f"cutoff {K} is below the first shell 2*pi")
    return nsq_max


def enumerate_lattice(K: float) -> LatticeBall:
    """All p = 2*pi*n, n in Z^3 without the origin, |p| <= K, by orbit.

    The orbits are the sorted triples a <= b <= c of the (L+1)^3 octant
    with 0 < |n|^2 <= nsq_max; an orbit of e equal adjacent components and
    z zero ones has 6, 3 or 1 (e = 0, 1, 2) orderings times 2^(3-z) sign
    patterns as members."""
    nsq_max = _nsq_max(K)
    L = math.isqrt(nsq_max)
    i = np.arange(L + 1)
    sq = i * i
    nsq = sq[:, None, None] + sq[:, None] + sq
    a, b, c = np.nonzero(
        (i[:, None, None] <= i[:, None]) & (i[:, None] <= i)
        & (nsq > 0) & (nsq <= nsq_max)
    )
    nsq = nsq[a, b, c]
    order = np.lexsort((-a, -b, -c, nsq))
    reps = np.stack([a, b, c], axis=1)[order]
    equal = (reps[:, 0] == reps[:, 1]).astype(int) + (reps[:, 1] == reps[:, 2])
    size = np.array([6, 3, 1])[equal] << np.count_nonzero(reps, axis=1)
    return _ball(K, reps, nsq[order], size, L)


def _fold_axis(L: int) -> np.ndarray:
    """|k| for k = -L, ..., L, the octant index of each position on an axis
    of the grid; built without np.abs, whose loop for three elements (L = 1)
    maps another 64 KB of numpy's code into the process."""
    i = np.arange(L + 1)
    return np.concatenate((i[:0:-1], i))


def _ball(K: float, reps: np.ndarray, nsq: np.ndarray, size: np.ndarray,
          L: int) -> LatticeBall:
    """The LatticeBall of the ordered orbits `reps` inside [-L, L]^3: its
    grid is the octant table of orbit ids at every ordering of each
    (a, b, c), read at |n| by broadcast indexing."""
    ids = np.arange(len(reps), dtype=np.min_scalar_type(-len(reps)))
    octant = np.full((L + 1,) * 3, -1, dtype=ids.dtype)
    for perm in itertools.permutations(range(3)):
        octant[tuple(reps[:, list(perm)].T)] = ids
    ab = _fold_axis(L)
    return LatticeBall(
        cutoff_K=float(K),
        reps=reps,
        nsq=nsq,
        size=size,
        grid=octant[ab[:, None, None], ab[:, None], ab].ravel(),
        L=L,
    )


class ScaledPotentialTable(NamedTuple):
    """vhat(p / N^beta) tabulated on a lattice ball plus the zero mode."""

    pot: Potential
    lattice: LatticeBall
    N: int
    beta: float
    values: np.ndarray      # one per orbit, aligned with lattice.reps
    at_zero: float

    def value_at(self, triples: np.ndarray) -> np.ndarray:
        """Evaluate vhat(p/N^beta) at arbitrary integer triples (total
        function; not restricted to the ball)."""
        t = np.asarray(triples, dtype=np.int64)
        nsq = np.sum(t * t, axis=-1).astype(float)
        rho = TWO_PI * np.sqrt(nsq) / self.N**self.beta
        return self.pot.vhat_radial(rho)

    def sub_table(self, K: float) -> "ScaledPotentialTable":
        """This table on the sub-ball |p| <= K (`LatticeBall.sub_ball`):
        the same values, cut to its prefix."""
        sub = self.lattice.sub_ball(K)
        return self._replace(lattice=sub, values=self.values[: len(sub.nsq)])


def scaled_table(
    pot: Potential, lattice: LatticeBall, N: int, beta: float
) -> ScaledPotentialTable:
    if not 0.0 < beta < 1.0:
        raise BetaOutOfRange(f"beta must lie in (0, 1), got {beta}")
    if N < 2:
        raise ValueError(f"particle number must be >= 2, got {N}")
    if not pot.R > 0:
        raise ValueError(f"support radius must be positive, got {pot.R}")
    rho = lattice.norms / N**beta
    return ScaledPotentialTable(
        pot=pot,
        lattice=lattice,
        N=int(N),
        beta=float(beta),
        values=pot.vhat_radial(rho),
        at_zero=pot.vhat0,
    )


# 20-point Gauss-Legendre rule per unit-width panel of `quartic_shape_tail`.
# The integrand's frequencies are at most 4; 10 nodes already agree with 40
# to rounding, and 20 leave a margin (tested against adaptive quadrature).
# The rule is symmetric: (node, weight) at its 10 positive nodes, mirrored,
# equal numpy's legendre `leggauss(20)` bit for bit (tested).
_GL_HALF = np.array([
    (0.07652652113349734, 0.15275338713072628),
    (0.22778585114164507, 0.14917298647260424),
    (0.37370608871541955, 0.1420961093183824),
    (0.5108670019508271, 0.1316886384491769),
    (0.636053680726515, 0.1181945319615186),
    (0.7463319064601508, 0.1019301198172407),
    (0.8391169718222188, 0.08327674157670471),
    (0.912234428251326, 0.06267204833410879),
    (0.9639719272779138, 0.040601429800386446),
    (0.993128599185095, 0.017614007139150893),
])
_GL_NODES = np.concatenate([-_GL_HALF[::-1, 0], _GL_HALF[:, 0]])
_GL_WEIGHTS = np.concatenate([_GL_HALF[::-1, 1], _GL_HALF[:, 1]])


def quartic_shape_tail(x: float) -> float:
    """Integral of ((sin w - w cos w)/w^3)^4 over [x, infinity).

    Composite Gauss-Legendre on unit-width panels over [x, max(200, 16x)].
    """
    upper = max(200.0, 16.0 * x)
    edges = np.append(np.arange(x, upper, 1.0), upper)
    half = 0.5 * np.diff(edges)[:, None]
    w = edges[:-1, None] + half * (_GL_NODES + 1.0)
    # |g(w)| <= (1+w)/w^3 <= 2/w^2 for w >= 1, so the remainder beyond
    # `upper` is below 16/(7*upper^7), 1.8e-16 at upper = 200.  For large x
    # the integrand falls like w^-8, so the remainder is about (x/upper)^7
    # of the value: at most 16^-7 = 3.7e-9.
    return det_sum((half * _GL_WEIGHTS * _shape_factor(w) ** 4).ravel())


def born2_sum(table: ScaledPotentialTable) -> Term:
    """The scaled-potential sum  sum_p vhat(p/N^beta)^2 / (2 p^2).

    The ball part truncates at the table's cutoff K; pass
    `table.sub_table(K2)` for an inner cutoff.  The summand grows with N
    like N^beta through momenta of order N^beta, far beyond any practical
    ball, so the tail is the continuum integral over |p| > K.
    """
    lat = table.lattice
    ball = lat.total(table.values**2 / (2.0 * lat.psq))
    nbeta = table.N**table.beta
    pot = table.pot
    prefac = (pot.kappa * (4.0 * np.pi * pot.R**3) ** 2) ** 2 / pot.R
    x = pot.R * lat.cutoff_K / nbeta
    tail = nbeta / (4.0 * np.pi**2) * prefac * quartic_shape_tail(x)
    return Term(ball, tail)
