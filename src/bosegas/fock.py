"""Brute-force truth source on a truncated excitation Fock space.

A small momentum mode set (closed under negation) and an occupancy cap
define a finite zero-total-momentum sector.  The sector is enumerated
meet-in-the-middle: each half of the modes lists its occupations as
arrays, and the halves join on opposite momenta.  Integer rows (momenta,
monomials) are matched by one lexicographic ranker, `_row_ids`.  Each of
the quadratic, cubic and quartic channels is one `_assemble` call on its
term list, which returns an explicit sparse symmetric matrix (row-major
coordinate arrays) built with standard bosonic ladder rules.  The terms
of one monomial class (slot permutations, and a monomial with its
transpose) are merged first, so each class is applied once; one boolean
screen per block of classes marks the (class, state) pairs that hold
every annihilated mode and stay within the cap, and only those pairs
meet the ladder operators.  The entries agree with a term-by-term loop
over the whole basis to within the summation-rounding bound the tests
keep.

The tables hold one value per cubic orbit, so every signed axis
permutation that maps the mode set onto itself (48 on a shell set)
permutes the basis and commutes with each operator.  Each basis state
carries its orbit under these maps (`FockBasis.orbit`), labelled from a
generating subset of them.  `_assemble` sums each entry it emits
straight onto the orbit states, so every operator is built on the
trivial sector, one state per orbit, where the oracle's targets all
lie; it is 14-16 times smaller than the basis on the 18 modes
|n|^2 <= 2.  With each state its own orbit (labels np.arange(D)) the
same code builds the operators on the whole basis.

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
# screened (class, state) pairs per assembly block: bounds the transient
# arrays; on the 18-mode oracle at caps 5 and 6, run_oracle measured the
# same from 2^14 to 2^18 (medians 82-87 ms, quartiles overlapping) at one
# CLI peak RSS for every size; that run now peaks at 34.9 MB, in build_G2
# at cap 6, whose entries are emitted per basis state
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
    vecs = np.asarray(sorted(set(tuple(int(c) for c in v) for v in vectors)))
    vecs = vecs.astype(np.int64).reshape(-1, 3)
    nsq = np.sum(vecs * vecs, axis=1)
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


def _row_keys(occupations: np.ndarray) -> np.ndarray:
    """One void key per occupation row, ordered as the rows compare
    lexicographically; a trailing zero byte keeps the key defined when
    the mode set is empty."""
    D, m = occupations.shape
    padded = np.zeros((D, m + 1), dtype=np.uint8)
    padded[:, :m] = occupations
    return padded.view(np.dtype((np.void, m + 1))).ravel()


class FockBasis(NamedTuple):
    """Occupation vectors with sum <= n_max in the zero-momentum sector."""

    modes: ModeSet
    n_max: int
    occ: np.ndarray         # (D, m) uint8, lex order
    keys: np.ndarray        # _row_keys(occ), ascending
    orbit: np.ndarray       # (D,) intp, each state's orbit: `_orbits`;
                            # np.arange(D) builds on the whole basis

    def __len__(self) -> int:
        return self.occ.shape[0]

    @property
    def vacuum_index(self) -> int:
        return 0  # all-zero occupation sorts first

    def lookup(self, occupations: np.ndarray) -> np.ndarray:
        """Vectorized occupation -> index; -1 where absent."""
        return _lookup(self.keys, occupations)


def _lookup(keys: np.ndarray, occupations: np.ndarray) -> np.ndarray:
    """Index of each occupation row among the ascending keys of a basis;
    -1 where absent."""
    tv = _row_keys(occupations)
    pos = np.searchsorted(keys, tv)
    # the vacuum is always a basis state, so keys is never empty
    hit = keys[np.minimum(pos, len(keys) - 1)] == tv
    return np.where(hit, pos, -1)


def _group_offsets(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


def _half_sector(vecs: np.ndarray, n_max: int):
    """Every occupation of the given modes with total <= n_max: (occ,
    used, P) with occ (S, h) uint8, the totals and the momenta."""
    occ = np.zeros((1, 0), dtype=np.uint8)
    used = np.zeros(1, dtype=np.int64)
    P = np.zeros((1, 3), dtype=np.int64)
    for vec in vecs:
        reps = n_max - used + 1
        row = np.repeat(np.arange(len(used)), reps)
        n = _group_offsets(reps)
        occ = np.concatenate([occ[row], n.astype(np.uint8)[:, None]], axis=1)
        used = used[row] + n
        P = P[row] + n[:, None] * vec
    return occ, used, P


def build_basis(modes: ModeSet, n_max: int) -> FockBasis:
    """Enumerate the constrained sector in deterministic lexicographic order.

    Meet in the middle: the modes split into two halves, each half's
    occupations with total <= n_max are enumerated as arrays, and a left
    state joins every right state of opposite momentum whose total fits
    the remaining cap.  One sort by the row key gives lexicographic order.
    Raises BasisTooLarge, before anything is allocated, when either half
    holds more than DIM_LIMIT occupations (C(n_max + h, h) for h modes),
    and when the joined sector holds more than DIM_LIMIT states.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > 255:
        raise BasisTooLarge("occupancy cap above the uint8 packing limit")
    m = len(modes)
    h = m // 2
    for width in (h, m - h):
        if math.comb(n_max + width, width) > DIM_LIMIT:
            raise BasisTooLarge(
                f"{width} modes at cap {n_max} hold more than {DIM_LIMIT} "
                f"occupations"
            )
    occ_l, used_l, P_l = _half_sector(modes.vectors[:h], n_max)
    occ_r, used_r, P_r = _half_sector(modes.vectors[h:], n_max)
    # one integer per momentum, shared by P_left and -P_right
    mom = _row_ids(np.concatenate([P_l, -P_r]))
    span = n_max + 1
    key_r = mom[len(P_l):] * span + used_r
    order_r = np.argsort(key_r, kind="stable")
    key_r = key_r[order_r]
    base_l = mom[: len(P_l)] * span
    lo = np.searchsorted(key_r, base_l)
    hi = np.searchsorted(key_r, base_l + (n_max - used_l), side="right")
    count = hi - lo
    if int(count.sum()) > DIM_LIMIT:
        raise BasisTooLarge(f"sector dimension exceeds the limit {DIM_LIMIT}")
    left = np.repeat(np.arange(len(lo)), count)
    right = order_r[np.repeat(lo, count) + _group_offsets(count)]
    occ = np.concatenate([occ_l[left], occ_r[right]], axis=1)
    keys = _row_keys(occ)
    order = np.argsort(keys)
    occ, keys = occ[order], keys[order]
    return FockBasis(modes=modes, n_max=int(n_max), occ=occ, keys=keys,
                     orbit=_orbits(occ, keys, modes.generators))


def _orbits(occ: np.ndarray, keys: np.ndarray, generators) -> np.ndarray:
    """The orbit of each state under the mode set's maps, numbered in
    order of each orbit's first state: the components of the graph that
    joins each state to its images under the generators, each looked up
    once.  occ[:, g] moves a state by g's inverse; the inverses generate
    the same group."""
    D, k = occ.shape[0], len(generators)
    images = np.array([_lookup(keys, occ[:, g]) for g in generators],
                      dtype=np.intp).reshape(k, D)
    return _components(np.repeat(np.arange(D), k), images.T.ravel(), D)


def _coalesce(rows, cols, vals, dim: int):
    """Row-major, duplicate-free coordinates: entries at one position are
    summed in the order they were given."""
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

    def symmetry_defect(self) -> float:
        _, _, d = _coalesce(
            np.concatenate([self.rows, self.cols]),
            np.concatenate([self.cols, self.rows]),
            np.concatenate([self.vals, -self.vals]),
            self.dim,
        )
        return float(np.max(np.abs(d), initial=0.0))


def _symmetrized(orbit, rows, cols, vals) -> SparseSymmetricOperator:
    """S + S^T on the orbit states |O> = |O|^(-1/2) sum_{a in O} |a>, for
    orbit ids 0, 1, ... per state, from the entries of X on the basis,
    given as lists of coordinate arrays: S = P^T X P, P's columns the
    orbit states.  Each entry moves to its (orbit, orbit) position, the
    entries are summed per position in the order given and divided by
    sqrt(|O| |O'|), then each position of the result receives S_ij and
    S_ji, so it is exactly symmetric (float addition commutes); exact
    zeros are dropped.  P^T (X + X^T) P = S + S^T, so when every map of
    the orbits commutes with X + X^T this is that operator on the
    trivial sector; with each state its own orbit it is X + X^T."""
    size = np.bincount(orbit)
    d = len(size)
    empty = np.zeros(0, dtype=np.intp)
    rows, cols, vals = _coalesce(
        orbit[np.concatenate([empty, *rows])],
        orbit[np.concatenate([empty, *cols])],
        np.concatenate([np.zeros(0), *vals]),
        d,
    )
    vals = vals / np.sqrt(size[rows] * size[cols])
    rows, cols, vals = _coalesce(
        np.concatenate([rows, cols]), np.concatenate([cols, rows]),
        np.concatenate([vals, vals]), d,
    )
    keep = vals != 0.0
    return SparseSymmetricOperator(
        rows=rows[keep], cols=cols[keep], vals=vals[keep], dim=d
    )


def _monomial_classes(create, annihilate, coeff):
    """One row per distinct monomial of `_assemble`'s terms: (create,
    annihilate, coeff) with the slots of each kind in descending order
    (empty slots last), a monomial with as many creators as annihilators
    written as the lesser of itself and its transpose, the rows ascending
    and each row's coefficient the sum of its terms' in term order."""
    wc, wa = create.shape[1], annihilate.shape[1]
    w = max(wc, wa)

    def slots(x):
        padded = np.full((len(x), w), -1, dtype=np.int64)
        padded[:, : x.shape[1]] = x
        return -np.sort(-padded, axis=1)

    cre, ann = slots(create), slots(annihilate)
    key = np.concatenate([cre, ann], axis=1)
    flip = np.concatenate([ann, cre], axis=1)
    # flip < key where the rows first differ (nowhere if M = M^T)
    first = np.argmax(key != flip, axis=1)
    at = np.arange(len(key))
    fold = (np.count_nonzero(cre >= 0, axis=1)
            == np.count_nonzero(ann >= 0, axis=1))
    fold &= flip[at, first] < key[at, first]
    key[fold] = flip[fold]
    ids = _row_ids(key)
    n = int(ids.max(initial=-1)) + 1
    classes = np.empty((n, 2 * w), dtype=np.int64)
    classes[ids] = key
    total = np.bincount(ids, weights=coeff, minlength=n)
    # a folded row holds at most min(wc, wa) operators of each kind
    return classes[:, :wc], classes[:, w : w + wa], total


def _assemble(basis: FockBasis, create, annihilate, coeff, diagonal=None):
    """The operator X + X^T of normal-ordered monomials, one per row t:

        coeff[t] a+_{create[t, 0]} a+_{create[t, 1]} ...
                 a_{annihilate[t, 0]} a_{annihilate[t, 1]} ... ,

    with -1 marking an empty slot, plus diagonal / 2 on X's diagonal, on
    the orbit states of `basis.orbit` (`_symmetrized`): the trivial
    sector for `build_basis`'s labels, the whole basis for np.arange(D).
    Each term is written once and its transpose supplies the h.c.; a
    self-adjoint sum is written once at half weight.

    Equal monomials are applied once, as one class: operators of one
    kind commute, so each term's creators and its annihilators are
    sorted, and a term with as many creators as annihilators shares its
    class with its transpose, which X + X^T sees alike.  A class carries
    its terms' coefficients summed in term order, and the classes are
    applied in ascending order of their slots, after the diagonal.

    Each block of classes screens every (class, state) pair at once: a
    state survives a class when it holds each annihilated mode at least
    as often as the class lowers it, and the net change keeps it within
    the cap.  The screen is read class by class, each class's states in
    source order; each amplitude is the coefficient times one sqrt per
    operator in the order they act.
    """
    create, annihilate, coeff = _monomial_classes(
        create, annihilate, np.asarray(coeff, dtype=float))
    live = np.nonzero(coeff != 0.0)[0]
    occ = basis.occ
    D, m = occ.shape
    rows, cols, vals = [], [], []
    if diagonal is not None:
        rows.append(np.arange(D))
        cols.append(np.arange(D))
        vals.append(0.5 * np.asarray(diagonal, dtype=float))
    n_ann = annihilate.shape[1]
    # the ladder operators in the order they act, annihilators first
    ops = np.concatenate([create[live], annihilate[live]], axis=1)[:, ::-1]
    ann = ops[:, :n_ann]
    # how often the term lowers each annihilated mode, 0 in an empty
    # slot; a state within the cap afterwards has a total of at most
    # room.  The narrow integer types keep the screen's compares cheap.
    need = (ann[:, :, None] == ann[:, None, :]).sum(
        axis=2, dtype=np.uint8) * (ann >= 0)
    net = np.count_nonzero(ops[:, n_ann:] >= 0, axis=1) - np.count_nonzero(
        ann >= 0, axis=1)
    room = (basis.n_max - net).astype(np.int16)
    used = occ.sum(axis=1, dtype=np.int16)
    root = np.sqrt(np.arange(basis.n_max + ops.shape[1] + 1, dtype=float))
    per = max(1, _BLOCK // D)

    def entries(lo):
        """(target, source, amplitude) of the block of classes from lo;
        its arrays are freed on return, before `_symmetrized` runs."""
        block = slice(lo, lo + per)
        screen = used <= room[block, None]
        for j in range(n_ann):
            screen &= occ.T[ann[block, j]] >= need[block, j, None]
        t, src = np.divmod(np.flatnonzero(screen), D)
        t += lo
        amp = coeff[live[t]]
        target = occ[src]
        flat = target.reshape(-1)
        row = np.arange(0, len(t) * m, m)
        # a lowers after its sqrt(n), a+ raises before it
        for i, mode in enumerate(ops[t].T):
            on = mode >= 0
            at = (row + mode)[on]
            if i >= n_ann:
                flat[at] += 1
            amp[on] *= root[flat[at]]
            if i < n_ann:
                flat[at] -= 1
        tgt = basis.lookup(target)
        if np.any(tgt < 0):
            raise MomentumViolation(
                "an operator term leaves the zero-momentum sector"
            )
        return tgt, src, amp

    for lo in range(0, len(live), per):
        tgt, src, amp = entries(lo)
        rows.append(tgt)
        cols.append(src)
        vals.append(amp)
    return _symmetrized(basis.orbit, rows, cols, vals)


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
