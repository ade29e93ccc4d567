"""Momentum lattice and the pair-interaction Fourier transform.

The torus is the unit box, so the dual lattice is 2*pi*Z^3.  The built-in
interaction family is the self-convolution of a ball indicator scaled by a
coupling constant: it is bounded, compactly supported, radial, and has the
closed-form, everywhere nonnegative Fourier transform

    vhat(p) = kappa * (4*pi*(sin(R|p|) - R|p|*cos(R|p|)) / |p|^3)^2 ,

continuously extended at p = 0 where it equals kappa*(4*pi*R^3/3)^2.
Evaluations are keyed on |p|^2 so that opposite momenta receive bitwise
identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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


@dataclass(frozen=True)
class Potential:
    """Radial positive-type pair potential: coupling * ball self-convolution.

    R is the radius of the generating ball.  Runs on the unit torus require
    0 < R < 1/4 (support radius 2R below half the box); that bound is
    enforced at configuration level, not here, so the transform stays a
    total function usable at any radius.
    """

    kappa: float
    R: float

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError(f"support radius must be positive, got {self.R}")

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


@dataclass(frozen=True)
class LatticeBall:
    """Momenta p = 2*pi*n with 0 < |p| <= cutoff_K, canonically ordered.

    Ordering is ascending |n|^2 with lexicographic tie-break on n; the set
    is closed under negation and excludes the zero mode.

    The ball is also closed under the 48-element cubic group (coordinate
    permutations and sign flips).  Two points share an orbit exactly when
    their sorted |n| components agree; `orbit` numbers the orbits in order
    of first appearance, so every prefix of whole shells holds exactly the
    orbits 0..k-1.
    """

    cutoff_K: float
    points: np.ndarray          # (M, 3) int64, canonical order
    nsq: np.ndarray             # (M,) int64, |n|^2 per point
    orbit: np.ndarray = field(repr=False)        # (M,) cubic-orbit id per point
    orbit_first: np.ndarray = field(repr=False)  # (n_orbits,) first member
    orbit_size: np.ndarray = field(repr=False)   # (n_orbits,) member count
    _grid: np.ndarray = field(repr=False)   # dense (2L+1)^3 index lookup
    _L: int = field(repr=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def norms(self) -> np.ndarray:
        """|p| per point."""
        return TWO_PI * np.sqrt(self.nsq.astype(float))

    @property
    def psq(self) -> np.ndarray:
        """|p|^2 per point."""
        return TWO_PI * TWO_PI * self.nsq.astype(float)

    def lookup(self, triples: np.ndarray) -> np.ndarray:
        """Vectorized point -> index map; -1 where outside the ball."""
        t = np.asarray(triples)
        flat = t.reshape(-1, 3)
        inside = np.all(np.abs(flat) <= self._L, axis=1)
        out = np.full(flat.shape[0], -1, dtype=np.int64)
        if np.any(inside):
            sel = flat[inside] + self._L
            side = 2 * self._L + 1
            out[inside] = self._grid[
                (sel[:, 0] * side + sel[:, 1]) * side + sel[:, 2]
            ]
        return out.reshape(t.shape[:-1])

    def sub_ball(self, K: float) -> "LatticeBall":
        """The ball |p| <= K <= cutoff_K, a prefix of this one: equal to
        `enumerate_lattice(K)` without enumerating again.

        The one rule from an inner cutoff to its prefix, and the one check
        that it lies inside this ball (InconsistentLattice beyond it,
        CutoffTooSmall below the first shell)."""
        if K > self.cutoff_K * (1.0 + 1e-12):
            raise InconsistentLattice(f"sub-ball {K} exceeds cutoff {self.cutoff_K}")
        nsq_max = _nsq_max(K)
        M = int(np.searchsorted(self.nsq, nsq_max, side="right"))
        return _ball(K, self.points[:M], self.nsq[:M], math.isqrt(nsq_max))

    def negation_index(self) -> np.ndarray:
        """Index of -p for every p (always valid)."""
        return self.lookup(-self.points)

    def orbit_spread(self, values: np.ndarray) -> float:
        """Largest |values_p - values_rep(p)| over the ball, rep(p) being
        the first member of p's cubic orbit; 0 for cubic-invariant input."""
        values = np.asarray(values)
        return float(np.max(np.abs(values - values[self.orbit_first[self.orbit]])))

    def orbit_mean(self, values: np.ndarray) -> np.ndarray:
        """Replace every entry by the mean over its cubic orbit.

        Each orbit's mean is accumulated once, over its members in
        canonical order, and written to every member, so the result is
        bitwise constant on orbits.
        """
        sums = np.bincount(self.orbit, weights=values, minlength=len(self.orbit_size))
        return (sums / self.orbit_size)[self.orbit]


def _cubic_orbits(pts: np.ndarray, L: int):
    """Orbit id (numbered by first appearance), first member and size of
    every cubic orbit of the canonically ordered points."""
    a = np.sort(np.abs(pts), axis=1)
    base = L + 1
    key = (a[:, 0] * base + a[:, 1]) * base + a[:, 2]
    _, first, inverse, size = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order], size[order]


def _nsq_max(K: float) -> int:
    """Largest |n|^2 with |2 pi n| <= K; CutoffTooSmall below the first
    shell.  |n|^2 is an integer, so the radius comparison is exact once
    the squared bound is snapped to the nearest representable integer."""
    nsq_max = int(np.floor((K / TWO_PI) ** 2 + 1e-9))
    if K < TWO_PI or nsq_max < 1:
        raise CutoffTooSmall(f"cutoff {K} is below the first shell 2*pi")
    return nsq_max


def enumerate_lattice(K: float) -> LatticeBall:
    """All p = 2*pi*n, n in Z^3 without the origin, |p| <= K."""
    nsq_max = _nsq_max(K)
    L = math.isqrt(nsq_max)
    axis = np.arange(-L, L + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    pts = grid.reshape(-1, 3)
    nsq = np.sum(pts * pts, axis=1)
    keep = (nsq > 0) & (nsq <= nsq_max)
    pts, nsq = pts[keep], nsq[keep]
    # the meshgrid rows are in lexicographic order already, so a stable
    # sort on |n|^2 gives the canonical order
    order = np.argsort(nsq, kind="stable")
    return _ball(K, pts[order], nsq[order], L)


def _ball(K: float, pts: np.ndarray, nsq: np.ndarray, L: int) -> LatticeBall:
    """The LatticeBall of canonically ordered points inside [-L, L]^3."""
    side = 2 * L + 1
    dense = np.full(side * side * side, -1, dtype=np.int64)
    shifted = pts + L
    dense[(shifted[:, 0] * side + shifted[:, 1]) * side + shifted[:, 2]] = (
        np.arange(len(pts), dtype=np.int64)
    )
    orbit, orbit_first, orbit_size = _cubic_orbits(pts, L)
    return LatticeBall(
        cutoff_K=float(K),
        points=pts,
        nsq=nsq,
        orbit=orbit,
        orbit_first=orbit_first,
        orbit_size=orbit_size,
        _grid=dense,
        _L=L,
    )


@dataclass(frozen=True)
class ScaledPotentialTable:
    """vhat(p / N^beta) tabulated on a lattice ball plus the zero mode."""

    pot: Potential
    lattice: LatticeBall
    N: int
    beta: float
    values: np.ndarray      # aligned with lattice.points
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
        return replace(self, lattice=sub, values=self.values[: len(sub)])


def scaled_table(
    pot: Potential, lattice: LatticeBall, N: int, beta: float
) -> ScaledPotentialTable:
    if not 0.0 < beta < 1.0:
        raise BetaOutOfRange(f"beta must lie in (0, 1), got {beta}")
    if N < 2:
        raise ValueError(f"particle number must be >= 2, got {N}")
    rho = lattice.norms / N**beta
    return ScaledPotentialTable(
        pot=pot,
        lattice=lattice,
        N=int(N),
        beta=float(beta),
        values=pot.vhat_radial(rho),
        at_zero=pot.vhat0,
    )


# Gauss-Legendre rule per unit-width panel of `quartic_shape_tail`.  The
# integrand's frequencies are at most 4; 10 nodes already agree with 40 to
# rounding, and 20 leave a margin (tested against adaptive quadrature).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


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
    ball = det_sum(table.values**2 / (2.0 * lat.psq))
    nbeta = table.N**table.beta
    pot = table.pot
    prefac = (pot.kappa * (4.0 * np.pi * pot.R**3) ** 2) ** 2 / pot.R
    x = pot.R * lat.cutoff_K / nbeta
    tail = nbeta / (4.0 * np.pi**2) * prefac * quartic_shape_tail(x)
    return Term(ball, tail)
