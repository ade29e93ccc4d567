"""Brute-force truth source on a truncated excitation Fock space.

A small momentum mode set (closed under negation) and an occupancy cap
define a finite zero-total-momentum sector, enumerated on integers: each
half of the modes lists its occupations with one int64 momentum code
each, the halves join on opposite codes, and each state's int64
lexicographic rank (`_ranks`) orders and looks it up.  Each of
the quadratic, cubic and quartic channels is one `_assemble` call on its
term list, which returns an explicit sparse symmetric matrix (row-major
coordinate arrays) built with standard bosonic ladder rules.  The terms
of one monomial class (its slot permutations) are merged first, so each
class is applied once; one boolean screen per block of classes marks
the (class, state) pairs that hold every lowered mode and stay within
the cap, and only those pairs meet the ladder operators.  On the whole
basis the entries agree with a term-by-term loop to within the
summation-rounding bound the tests keep.

The tables hold one value per cubic orbit, so every signed axis
permutation that maps the mode set onto itself (48 on a shell set)
permutes the basis and commutes with each operator.  Each basis state
carries its orbit under these maps (`FockBasis.orbit`), labelled from a
generating subset of them.  Every operator is built on the trivial
sector, one state per orbit, where the oracle's targets all lie; it is
14-16 times smaller than the basis on the 18 modes |n|^2 <= 2.
Each map permutes the written terms, so X, their sum, commutes with
it.  `_assemble` applies X once, to each orbit's least state, the
representative: a column of X on the sector is one representative's
column of X, summed over the orbits of its rows and scaled, and the
operator is that plus its transpose (67 of 1,040 states screened at
cap 6).  With each state its own orbit (labels np.arange(D)) the same
code builds the operators on the whole basis.

Ground states come from the connected components of the operator's
sparsity graph, visited in the order of their Gershgorin lower bounds:
each visited block is diagonalized whole by one dense LAPACK
eigensolve.  Second-order perturbation theory sums the projected
resolvent over the same dense block spectra, one per component the
perturbed state reaches.  Everything runs on numpy alone, and each
solver has one path at every basis dimension.  None of it reuses the
closed-form route it is meant to check.

Its targets (`oracle.run_oracle`) are the report's own `E0` and
`depletion` functions on the `RestrictedTables` of the mode set, and the
pair sums restricted to in-set triples below.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .corrections import symmetrized_vertex, vertex_factors
from .errors import (
    BasisTooLarge,
    EigenNonConvergence,
    InconsistentLattice,
    MomentumViolation,
)
from .lattice_potential import TWO_PI, enumerate_lattice
from .sums import det_sum

# bounds build_G2's (m, m, m, 3) candidate array, which DIM_LIMIT does
# not: at cap 2 the basis holds only m/2 + 1 states
MAX_MODES = 30
# most occupations either half of the modes, or the joined sector, may hold
DIM_LIMIT = 2_000_000
# screened (class, representative) pairs per assembly block: bounds the
# transient arrays.  run_oracle on the 18-mode set at caps 5 and 6 (at
# most 67 representatives) takes the same from 2^14 to 2^18 (medians
# 15.0-15.2 ms, quartiles overlapping; 17.8 ms at 2^10)
_BLOCK = 1 << 16
# residual bounds: ground_state's relative to max(1, max |A_ij|),
# rs_pt2's relative to max(1, |Q V gs0|)
_EIG_RTOL = 1e-12
_PT2_RTOL = 1e-11


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """The rank of each row of an (n, k) integer array among its distinct
    rows, in lexicographic order: 0, 1, ..., equal exactly when the rows
    are equal (as all are when there are no columns)."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ranked = rows[order]
    new = np.zeros(len(rows), dtype=np.int64)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(new)
    return ids


def _index_of(vecs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Row index in the distinct (m, 3) array vecs of each integer triple
    in points (..., 3); -1 where the triple is not a row of vecs."""
    flat = points.reshape(-1, 3)
    m = len(vecs)
    ids = _row_ids(np.concatenate([vecs, flat]))
    table = np.full(m + len(flat), -1, dtype=np.int64)
    table[ids[:m]] = np.arange(m)
    return table[ids[m:]].reshape(points.shape[:-1])


class ModeSet(NamedTuple):
    """Ordered momenta (integer triples, p = 2*pi*n), closed under negation."""

    vectors: np.ndarray                 # (m, 3) int64, canonical order
    neg_index: np.ndarray
    generators: np.ndarray              # (k, m): maps generating _symmetry_maps

    def __len__(self) -> int:
        return self.vectors.shape[0]


def _symmetry_maps(vecs: np.ndarray) -> np.ndarray:
    """The distinct permutations of the modes that the 48 signed axis
    permutations induce, among those that map the set onto itself: rows
    (k, m), row g sending mode i to mode g[i], the identity first.  They
    include negation (row `neg_index`)."""
    axes = np.array(list(itertools.permutations(range(3))))
    signs = np.array(list(itertools.product((1, -1), repeat=3)))
    images = vecs[:, axes].transpose(1, 0, 2)[None] * signs[:, None, None]
    maps = _index_of(vecs, images.reshape(48, len(vecs), 3))
    maps = maps[np.all(maps >= 0, axis=1)]
    # np.unique(maps, axis=0) adds 1 MB to the CLI oracle's peak RSS
    ids = _row_ids(maps)
    distinct = np.empty_like(maps)
    distinct[ids] = maps
    return distinct[: ids.max() + 1]


def _generators(maps: np.ndarray) -> np.ndarray:
    """Rows of `_symmetry_maps` that generate them all: a row joins when
    the rows before it do not generate it."""
    group = {tuple(maps[0].tolist())}
    gens = []
    for p in maps[1:].tolist():
        if tuple(p) in group:
            continue
        gens.append(p)
        new = group
        while new:
            new = {tuple(a[i] for i in g) for a in new for g in gens} - group
            group |= new
    return np.array(gens, dtype=np.int64).reshape(len(gens), maps.shape[1])


def mode_set(vectors) -> ModeSet:
    vecs = sorted(set(tuple(int(c) for c in v) for v in vectors))
    # components below 2^31 keep |n|^2 < 3 * 2^62 exact in uint64
    for v in vecs:
        if max(map(abs, v)) >= 2**31:
            raise ValueError(f"mode {v} has a component of size 2^31 or more")
    vecs = np.asarray(vecs, dtype=np.int64).reshape(-1, 3)
    nsq = np.sum(vecs * vecs, axis=1, dtype=np.uint64)
    if np.any(nsq == 0):
        raise ValueError("mode set must not contain the zero mode")
    order = np.lexsort((vecs[:, 2], vecs[:, 1], vecs[:, 0], nsq))
    vecs = vecs[order]
    if len(vecs) > MAX_MODES:
        raise BasisTooLarge(f"{len(vecs)} modes exceeds the cap {MAX_MODES}")
    neg = _index_of(vecs, -vecs)
    if np.any(neg < 0):
        raise ValueError("mode set is not closed under negation")
    return ModeSet(vectors=vecs, neg_index=neg,
                   generators=_generators(_symmetry_maps(vecs)))


def shell_modes(nsq_max: int) -> ModeSet:
    """All lattice points with 0 < |n|^2 <= nsq_max."""
    L = math.isqrt(nsq_max)
    if 6 * L > MAX_MODES:  # the axis points alone exceed the cap
        raise BasisTooLarge(f"|n|^2 <= {nsq_max} holds more than {MAX_MODES} modes")
    return mode_set(enumerate_lattice(TWO_PI * math.sqrt(nsq_max)).points())


def _ranks(occupations: np.ndarray, n_max: int) -> np.ndarray:
    """Each occupation row's rank among all occupations of its m modes
    with total <= n_max, in lexicographic order; -1 above the cap.
    C(l + k, k + 1) occupations first exceed a row at mode j, for l the
    cap it leaves after j and k the modes after j.  Ranks are below
    C(n_max + m, m) <= (either half's count)^2 <= DIM_LIMIT^2 < 2^63."""
    m = occupations.shape[1]
    # after[l, k] = C(l + k, k + 1); row -1, a row past the cap, is 0
    after = np.array([[math.comb(l + k, k + 1) for k in range(m)]
                      for l in range(n_max + 1)] + [[0] * m], dtype=np.int64)
    rank = np.full(len(occupations), math.comb(n_max + m, m) - 1)
    left = np.full(len(occupations), n_max)
    for j in range(m):
        left = np.maximum(left - occupations[:, j], -1)
        rank -= after[left, m - 1 - j]
    return np.where(left < 0, -1, rank)


class FockBasis(NamedTuple):
    """Occupation vectors with sum <= n_max in the zero-momentum sector."""

    modes: ModeSet
    n_max: int
    occ: np.ndarray         # (D, m) uint8, lex order
    keys: np.ndarray        # _ranks(occ, n_max), ascending
    orbit: np.ndarray       # (D,) intp, each state's orbit: `_orbits`;
                            # np.arange(D) builds on the whole basis

    def __len__(self) -> int:
        return self.occ.shape[0]

    @property
    def vacuum_index(self) -> int:
        return 0  # all-zero occupation sorts first

    def lookup(self, occupations: np.ndarray) -> np.ndarray:
        """Vectorized occupation -> index; -1 where absent."""
        rank = _ranks(occupations, self.n_max)
        # the vacuum is always a basis state, so keys is never empty
        pos = np.minimum(np.searchsorted(self.keys, rank), len(self) - 1)
        return np.where(self.keys[pos] == rank, pos, -1)


def _half_sector(codes: np.ndarray, n_max: int):
    """Every occupation of h modes with total <= n_max, for the (h, 2)
    momentum codes of the modes of both halves: (occ, used, code) with
    occ (S, h) uint8, the totals and the (S, 2) codes in either half."""
    occ = np.zeros((1, 0), dtype=np.uint8)
    used = np.zeros(1, dtype=np.int64)
    code = np.zeros((1, 2), dtype=np.int64)
    for c in codes:
        row, n = np.nonzero(np.arange(n_max + 1) <= n_max - used[:, None])
        occ = np.concatenate([occ[row], n.astype(np.uint8)[:, None]], axis=1)
        used = used[row] + n
        code = code[row] + n[:, None] * c
    return occ, used, code


def _join(modes: ModeSet, n_max: int, radix: int) -> np.ndarray:
    """The sector's occupations, unordered.  A mode set closed under
    negation has an even number of modes; both halves list the same
    occupations with total <= n_max, each with its momentum P's code
    P @ (radix^2, radix, 1) in either half, and a left state joins every
    right state of opposite code that fits the cap it leaves.  Only occ
    is returned, so the join's arrays are freed before `_orbits` runs."""
    codes = modes.vectors @ np.array([radix * radix, radix, 1])
    occ, used, code = _half_sector(codes.reshape(2, -1).T, n_max)
    span = n_max + 1
    key_r = -code[:, 1] * span + used
    order_r = np.argsort(key_r)
    key_r = key_r[order_r]
    base_l = code[:, 0] * span
    lo = np.searchsorted(key_r, base_l)
    hi = np.searchsorted(key_r, base_l + (n_max - used), side="right")
    count = hi - lo
    if int(count.sum()) > DIM_LIMIT:
        raise BasisTooLarge(f"sector dimension exceeds the limit {DIM_LIMIT}")
    left = np.repeat(np.arange(len(lo)), count)
    # left state i's matches lo[i], ..., hi[i] - 1, at its places in left
    right = np.arange(len(left)) + np.repeat(hi - np.cumsum(count), count)
    return np.concatenate([occ[left], occ[order_r[right]]], axis=1)


def build_basis(modes: ModeSet, n_max: int) -> FockBasis:
    """Enumerate the constrained sector in lexicographic order: `_join`,
    then one sort by `_ranks`.  Raises BasisTooLarge, before anything is
    allocated, when a half holds more than DIM_LIMIT occupations
    (C(n_max + h, h) for h modes) or a momentum code could overflow
    int64, and when the joined sector holds more than DIM_LIMIT states.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > 255:
        raise BasisTooLarge("occupancy cap above the uint8 packing limit")
    width = len(modes) // 2
    if math.comb(n_max + width, width) > DIM_LIMIT:
        raise BasisTooLarge(f"{width} modes at cap {n_max} hold more than "
                            f"{DIM_LIMIT} occupations")
    # a half's |P_c| <= n_max max|n_c| < radix / 2, so each code names one
    # momentum; `_join` keys on code * (n_max + 1)
    radix = 2 * int(n_max) * int(np.abs(modes.vectors).max(initial=0)) + 1
    if radix ** 3 * (n_max + 1) >= 2 ** 63:
        raise BasisTooLarge("the mode set's momentum codes overflow int64")
    occ = _join(modes, n_max, radix)
    keys = _ranks(occ, n_max)
    order = np.argsort(keys)
    occ, keys = occ[order], keys[order]
    basis = FockBasis(modes, int(n_max), occ, keys, None)
    return FockBasis(modes, int(n_max), occ, keys, _orbits(basis))


def _orbits(basis: FockBasis) -> np.ndarray:
    """The orbit of each state under the mode set's maps, numbered in
    order of each orbit's first state: the components of the graph that
    joins each state to its images under the generators, each looked up
    once.  occ[:, g] moves a state by g's inverse; the inverses generate
    the same group."""
    D, gens = len(basis), basis.modes.generators
    images = np.array([basis.lookup(basis.occ[:, g]) for g in gens],
                      dtype=np.intp).reshape(len(gens), D)
    return _components(np.repeat(np.arange(D), len(gens)), images.T.ravel(), D)


def _coalesce(parts, dim: int):
    """Row-major, duplicate-free coordinates of a list of (rows, cols,
    vals) parts: entries at one position are summed in the order given."""
    empty = (np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)
    rows, cols, vals = map(np.concatenate, zip(empty, *parts))
    keys = rows * dim + cols
    order = np.argsort(keys, kind="stable")
    first = np.flatnonzero(np.diff(keys[order], prepend=-1))
    at = order[first]
    return rows[at], cols[at], np.add.reduceat(vals[order], first)


class SparseSymmetricOperator:
    """Real symmetric operator in row-major, duplicate-free coordinate
    form; `op @ x` sums each row in column order.  Not a tuple, so that
    `+` between operators raises instead of concatenating."""

    __slots__ = ("rows", "cols", "vals", "dim")

    def __init__(self, rows, cols, vals, dim: int):
        self.rows = rows      # (nnz,) intp, ascending with cols within a row
        self.cols = cols      # (nnz,) intp
        self.vals = vals      # (nnz,) float
        self.dim = dim

    @classmethod
    def from_dense(cls, a) -> SparseSymmetricOperator:
        a = np.asarray(a, dtype=float)
        rows, cols = np.nonzero(a)
        return cls(rows=rows, cols=cols, vals=a[rows, cols], dim=a.shape[0])

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def mat(self) -> SparseSymmetricOperator:
        """The operator itself, under the name `perfbench/traced.py`
        reads its nnz from."""
        return self

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, self.vals * x[self.cols],
                           minlength=self.dim)

    def diagonal(self) -> np.ndarray:
        on = self.rows == self.cols
        diag = np.zeros(self.dim)
        diag[self.rows[on]] = self.vals[on]
        return diag

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.dim, self.dim))
        dense[self.rows, self.cols] = self.vals
        return dense


def _monomial_classes(create, annihilate, coeff):
    """The distinct monomials of `_assemble`'s terms, ascending, each a
    row of its creators then its annihilators with the slots of each
    kind in descending order (empty slots last), and each one's
    coefficient, the sum of its terms' in term order."""
    key = np.concatenate([-np.sort(-create, axis=1),
                          -np.sort(-annihilate, axis=1)], axis=1)
    ids = _row_ids(key)
    n = int(ids.max(initial=-1)) + 1
    classes = np.empty((n, key.shape[1]), dtype=np.int64)
    classes[ids] = key
    return classes, np.bincount(ids, weights=coeff, minlength=n)


def _representatives(orbit: np.ndarray) -> np.ndarray:
    """The least state of each orbit, in orbit order (`build_basis`
    numbers the orbits by these states)."""
    least = np.full(int(orbit.max()) + 1, len(orbit))
    np.minimum.at(least, orbit, np.arange(len(orbit)))
    return least


def _assemble(basis: FockBasis, create, annihilate, coeff, diagonal=None):
    """The operator Y = X + X^T of normal-ordered monomials, one per row t:

        coeff[t] a+_{create[t, 0]} a+_{create[t, 1]} ...
                 a_{annihilate[t, 0]} a_{annihilate[t, 1]} ... ,

    with -1 marking an empty slot, plus diagonal / 2 on X's diagonal, on
    the orbit states |O> = |O|^(-1/2) sum_{a in O} |a> of `basis.orbit`:
    the trivial sector for `build_basis`'s labels, the whole basis for
    np.arange(D).  Each term is written once and its transpose supplies
    the h.c.; a self-adjoint sum is written once at half weight.

    Equal monomials are applied once, as one class: operators of one
    kind commute, so each term's creators and its annihilators are
    sorted.  A class carries its terms' coefficients summed in term
    order, and the classes are applied in ascending order of their
    slots, after the diagonal.

    Each map of the orbits permutes the terms, and so the classes, with
    their coefficients, and fixes the diagonal; X then commutes with it,
    and with b0 the least state of orbit O

        S[O', O] = sqrt(|O| / |O'|) sum_{a in O'} X[a, b0]

    is X on the sector.  One pass applies each class to the
    representatives b0 alone; its entries and the diagonal are coalesced
    on the sector in the order emitted and scaled, and S + S^T is formed
    at each position from the two summed entries, so the result is
    exactly symmetric.  Exact zeros are dropped.  With each state its own
    orbit this is X + X^T as the whole basis sums it.

    Each block of classes screens every (class, representative) pair at
    once: b0 survives a class when it holds each mode the class lowers
    at least as often as it lowers it, and the class keeps it within the
    cap.  The screen is read class by class, each class's
    representatives in order; each amplitude is the coefficient times
    one sqrt per operator in the order they act.
    """
    n_ann = annihilate.shape[1]
    classes, coeff = _monomial_classes(
        create, annihilate, np.asarray(coeff, dtype=float))
    live = np.nonzero(coeff != 0.0)[0]
    reps = _representatives(basis.orbit)
    occ = basis.occ[reps]
    d, m = occ.shape
    # the ladder operators in the order they act, annihilators first
    ops = classes[live, ::-1]
    # b0 is within the cap after a class when its total is at most room.
    # The narrow integer types keep the screen's compares cheap.
    room = (basis.n_max + np.count_nonzero(ops[:, :n_ann] >= 0, axis=1)
            - np.count_nonzero(ops[:, n_ann:] >= 0, axis=1)).astype(np.int16)
    used = occ.sum(axis=1, dtype=np.int16)
    root = np.sqrt(np.arange(basis.n_max + ops.shape[1] + 1, dtype=float))
    per = max(1, _BLOCK // d)

    def entries(lo):
        """(sector row, b0's orbit, X[a, b0]) of the block of classes from
        lo; its arrays are freed on return."""
        block = slice(lo, lo + per)
        lowered = ops[block, :n_ann]
        # how often the class lowers each mode, 0 in an empty slot
        need = (lowered[:, :, None] == lowered[:, None, :]).sum(
            axis=2, dtype=np.uint8) * (lowered >= 0)
        screen = used <= room[block, None]
        for j in range(n_ann):
            screen &= occ.T[lowered[:, j]] >= need[:, j, None]
        t, col = np.divmod(np.flatnonzero(screen), d)
        t += lo
        state = occ[col]
        flat = state.reshape(-1)
        row = np.arange(0, len(t) * m, m)
        amp = coeff[live[t]]
        # a lowers after its sqrt(n), a+ raises before it
        for i, mode in enumerate(ops[t].T):
            on = mode >= 0
            at = (row + mode)[on]
            if i >= n_ann:
                flat[at] += 1
            amp[on] *= root[flat[at]]
            if i < n_ann:
                flat[at] -= 1
        other = basis.lookup(state)
        if np.any(other < 0):
            raise MomentumViolation(
                "an operator term leaves the zero-momentum sector"
            )
        return basis.orbit[other], col, amp

    half = []
    if diagonal is not None:
        half.append((np.arange(d), np.arange(d),
                     0.5 * np.asarray(diagonal, dtype=float)[reps]))
    rows, cols, vals = _coalesce(
        half + [entries(lo) for lo in range(0, len(live), per)], d)
    size = np.bincount(basis.orbit)
    vals = vals * np.sqrt(size[cols] / size[rows])
    rows, cols, vals = _coalesce([(rows, cols, vals), (cols, rows, vals)], d)
    keep = vals != 0.0
    return SparseSymmetricOperator(
        rows=rows[keep], cols=cols[keep], vals=vals[keep], dim=d
    )


def build_G0(basis: FockBasis, F: np.ndarray, G: np.ndarray) -> SparseSymmetricOperator:
    """sum_p F_p n_p + (1/2) sum_p G_p (a+_p a+_{-p} + a_p a_{-p})."""
    m = len(basis.modes)
    return _assemble(
        basis,
        np.stack([np.arange(m), basis.modes.neg_index], axis=1),
        np.zeros((m, 0), dtype=np.int64),
        0.5 * np.asarray(G, dtype=float),
        diagonal=basis.occ.astype(float) @ np.asarray(F, dtype=float),
    )


class RestrictedTables(NamedTuple):
    """Per-mode coefficient slices used by the operator builders.

    `value_at` evaluates the scaled potential at arbitrary integer triples
    (the quartic channel's transfer momentum is unrestricted).
    """

    modes: ModeSet
    N: int
    v: np.ndarray
    c: np.ndarray
    s: np.ndarray
    ct: np.ndarray
    st: np.ndarray
    F: np.ndarray
    G: np.ndarray
    e: np.ndarray
    eta: np.ndarray
    tau: np.ndarray
    value_at: object

    def total(self, values: np.ndarray) -> float:
        """Exact sum over the modes, each counted once."""
        return det_sum(values)


def restrict_tables(tables, modes: ModeSet) -> RestrictedTables:
    """Slice full-ball tables down to a mode set (all modes must be in
    the ball)."""
    idx = tables.lattice.lookup(modes.vectors)
    if np.any(idx < 0):
        raise InconsistentLattice("mode set leaves the tabulated ball")
    return RestrictedTables(
        modes=modes,
        N=tables.N,
        v=tables.table.values[idx],
        c=tables.c[idx],
        s=tables.s[idx],
        ct=tables.ct[idx],
        st=tables.st[idx],
        F=tables.F[idx],
        G=tables.G[idx],
        e=tables.e[idx],
        eta=tables.eta[idx],
        tau=tables.tau[idx],
        value_at=tables.table.value_at,
    )


def _mode_pairs(modes: ModeSet):
    """(i, j, k) rows with mode_i + mode_j = mode_k inside the set, i
    major."""
    vecs = modes.vectors
    total = vecs[:, None, :] + vecs[None, :, :]
    k = _index_of(vecs, total)
    pair = total.any(axis=-1)
    i, j = np.nonzero(pair & (k >= 0))
    return np.stack([i, j, k[i, j]], axis=1)


def build_G1tilde(basis: FockBasis, rt: RestrictedTables) -> SparseSymmetricOperator:
    """Leading cubic channel, restricted to the mode set:

        (1/sqrt N) sum_{p,q}   vhat_p c_{p+q} c_p c_q  a+_{p+q} a+_{-p} a_q
      + (1/sqrt N) sum_{p,q}   vhat_p c_{p+q} c_p s_q  a+_{p+q} a+_{-p} a+_{-q}
      + h.c.

    Triples with p + q outside the set are dropped.
    """
    i, j, k = _mode_pairs(rt.modes).T
    neg = rt.modes.neg_index
    base = 1.0 / np.sqrt(rt.N) * rt.v[i] * rt.c[k] * rt.c[i]
    # each pair's two terms in turn: a+ a+ a, then a+ a+ a+
    none = np.full_like(i, -1)
    return _assemble(
        basis,
        np.stack([k, neg[i], none, k, neg[i], neg[j]], axis=1).reshape(-1, 3),
        np.stack([j, none], axis=1).reshape(-1, 1),
        np.stack([base * rt.c[j], base * rt.s[j]], axis=1).ravel(),
    )


def build_G2(basis: FockBasis, rt: RestrictedTables) -> SparseSymmetricOperator:
    """Quartic channel, normal ordered:

        (1/2N) sum_{p,q,r} vhat_r c_{p+r} c_q c_p c_{q+r}
                           a+_{p+r} a+_q a_p a_{q+r} ,

    with p, q, p+r, q+r in the mode set and the transfer r any nonzero
    lattice vector.
    """
    vecs = rt.modes.vectors
    m = len(vecs)
    r = vecs[None, :, :] - vecs[:, None, :]          # [p, p + r]
    vr = np.zeros((m, m))
    moves = r.any(axis=-1)
    vr[moves] = rt.value_at(r[moves])
    qr = vecs[None, None, :, :] + r[:, :, None, :]   # [p, p + r, q]
    iqr = _index_of(vecs, qr)
    valid = moves[:, :, None] & qr.any(axis=-1)
    ip, ipr, iq = np.nonzero(valid & (iqr >= 0))
    iqr = iqr[ip, ipr, iq]
    c = rt.c
    coeff = 1.0 / (2.0 * rt.N) * vr[ip, ipr] * c[ipr] * c[iq] * c[ip] * c[iqr]
    # self-adjoint: written once at half weight
    return _assemble(
        basis, np.stack([ipr, iq], axis=1), np.stack([ip, iqr], axis=1),
        0.5 * coeff,
    )


def _components(rows: np.ndarray, cols: np.ndarray, dim: int) -> np.ndarray:
    """Connected component of each of dim nodes in the graph with an edge
    from each rows[i] (ascending) to cols[i], numbered in order of each
    component's first node.

    Each pass lowers every label to the least label in its row and then
    follows labels to their fixed point.  A label always names a node of
    the same component, and once a pass changes nothing no label exceeds
    its neighbours', so every edge joins equal labels when each edge lies
    on a cycle: an operator's sparsity pattern is symmetric, and a
    permutation's edges close into cycles."""
    label = np.arange(dim)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    owner = rows[starts]
    while len(starts):
        low = label.copy()
        low[owner] = np.minimum(
            label[owner], np.minimum.reduceat(label[cols], starts)
        )
        while not np.array_equal(low[low], low):
            low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    return np.unique(label, return_inverse=True)[1]


def _block(op: SparseSymmetricOperator, comp: np.ndarray, c: int):
    """Component c's states, ascending, and the eigenpairs of its dense
    block by one LAPACK `np.linalg.eigh`, levels ascending."""
    states = np.nonzero(comp == c)[0]
    e = comp[op.rows] == c
    block = np.zeros((len(states), len(states)))
    block[np.searchsorted(states, op.rows[e]),
          np.searchsorted(states, op.cols[e])] = op.vals[e]
    try:
        levels, vectors = np.linalg.eigh(block)
    except np.linalg.LinAlgError as exc:
        raise EigenNonConvergence(f"block eigensolve failed: {exc}") from exc
    return states, levels, vectors


def ground_state(op: SparseSymmetricOperator) -> tuple[float, np.ndarray]:
    """Smallest eigenpair, residual-verified, by one path at every size.

    The operator splits into the connected components of its sparsity
    graph (a quadratic form conserves every pair difference
    n_p - n_{-p}).  No eigenvalue of a component lies below its
    Gershgorin lower bound min_i (A_ii - sum_{j != i} |A_ij|), so the
    components are visited in the order of that bound, and the search
    stops once the next bound is above the lowest eigenvalue found.

    Each visited component's block is diagonalized whole by LAPACK
    (`_block`), and its lowest eigenpair is taken, so no level of the
    block can be missed.  The cost grows as b^3 in the block size b (one
    OpenBLAS thread, 2-vCPU Xeon).  The oracle solves in the trivial
    sector: at cap 6 of the 18 modes |n|^2 <= 2 its 67 states form 15
    components, and one block is visited, the vacuum's 29 states
    (0.3 ms; the whole basis's vacuum block holds 220 states, 4.5 ms).
    On the closed six-mode set at cap 40 the sector's vacuum block holds
    946 states (0.15 s for the solve), the whole basis's 1,771 (1.4 s).
    The vector's largest entry is made positive, and its residual must
    be at most 1e-12 times max(1, max |A_ij|).
    """
    if not np.all(np.isfinite(op.vals)):
        raise EigenNonConvergence("the operator has a non-finite entry")
    D = op.dim
    scale = max(1.0, float(np.max(np.abs(op.vals), initial=0.0)))
    diag = op.diagonal()
    radius = np.bincount(op.rows, np.abs(op.vals), minlength=D) - np.abs(diag)
    comp = _components(op.rows, op.cols, op.dim)
    lower = np.full(comp.max() + 1, np.inf)
    np.minimum.at(lower, comp, diag - radius)

    best, v = math.inf, None
    for c in np.argsort(lower, kind="stable"):
        if lower[c] > best:
            break
        states, levels, vectors = _block(op, comp, c)
        if levels[0] < best:
            best = float(levels[0])
            v = np.zeros(D)
            v[states] = vectors[:, 0]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    lam0 = float(v @ (op @ v))
    resid = float(np.linalg.norm(op @ v - lam0 * v))
    if not resid <= _EIG_RTOL * scale:
        raise EigenNonConvergence(
            f"residual {resid:.3e} above tolerance {_EIG_RTOL:.1e} "
            f"(scale {scale:.3g})"
        )
    return lam0, v


def rs_pt2(
    g0_op: SparseSymmetricOperator,
    v_op: SparseSymmetricOperator,
    e0: float,
    gs0: np.ndarray,
) -> float:
    """Second-order correction <V gs0, (E0 - G0)^(-1) Q V gs0>, for
    (e0, gs0) = `ground_state(g0_op)`.

    On each connected component of G0 that w = Q V gs0 reaches, the
    dense block spectrum `ground_state` takes (`_block`) gives
    y = sum_k v_k <v_k, w> / (lambda_k - E0), with gs0's own level, the
    lowest of its component, dropped.  A remaining level at or below E0,
    or a residual |(G0 - E0) y - w| above 1e-11 max(1, |w|), raises
    EigenNonConvergence.  The value -<w, y> is nonpositive whenever
    V gs0 has weight off the ground state.
    """
    w = v_op @ gs0
    w = w - (gs0 @ w) * gs0
    wn = np.linalg.norm(w)
    if wn == 0.0:
        return 0.0
    comp = _components(g0_op.rows, g0_op.cols, g0_op.dim)
    home = comp[np.argmax(np.abs(gs0))]
    y = np.zeros_like(w)
    # the components w reaches, ascending (np.unique's hash path costs
    # 0.8 MB of peak RSS on the oracle-fock run)
    for c in np.flatnonzero(np.bincount(comp[w != 0])):
        states, levels, vectors = _block(g0_op, comp, c)
        if c == home:
            levels, vectors = levels[1:], vectors[:, 1:]
        if not np.all(levels > e0):
            raise EigenNonConvergence(f"a level {levels.min()} is not above E0")
        y[states] = vectors @ ((vectors.T @ w[states]) / (levels - e0))
    resid = np.linalg.norm(g0_op @ y - e0 * y - w)
    if not resid <= _PT2_RTOL * max(wn, 1.0):
        raise EigenNonConvergence(
            f"projected solve residual {resid:.3e} for rhs norm {wn:.3e}"
        )
    return -float(w @ y)


def restricted_e_pert_tilde(rt: RestrictedTables) -> float:
    """Closed-form second-order cubic energy over in-set triples only."""
    pairs = _mode_pairs(rt.modes)
    i, j, k = pairs.T
    f = _f_restricted(rt, pairs)
    return -(6.0 / rt.N) * det_sum(f * f / (rt.e[k] + rt.e[i] + rt.e[j]))


def _f_restricted(rt: RestrictedTables, pairs: np.ndarray) -> np.ndarray:
    """f(p_i, p_j) on every (i, j, k) row of `_mode_pairs`, p_i + p_j = p_k."""
    fac = np.stack(vertex_factors(rt.v, rt.c, rt.s, rt.ct, rt.st))
    return symmetrized_vertex(*(fac[:, m] for m in pairs.T))


def restricted_g2_expectation(rt: RestrictedTables) -> float:
    """Closed-form quartic vacuum expectation over the mode set,
    including the second Wick pairing (quartic in the squeezing)."""
    m = len(rt.modes)
    vecs = rt.modes.vectors
    w = rt.c * rt.c * rt.st * rt.ct
    w2 = rt.c * rt.c * rt.st * rt.st
    terms = []
    for i in range(m):
        r = vecs - vecs[i]
        vr = rt.value_at(r)
        vr[i] = 0.0
        terms.append(w[i] * det_sum(vr * w) + w2[i] * det_sum(vr * w2))
    return det_sum(terms) / (2.0 * rt.N)
