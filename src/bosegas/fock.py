"""Brute-force truth source on a truncated excitation Fock space.

A small momentum mode set (closed under negation) and an occupancy cap
define a finite zero-total-momentum sector.  The sector is enumerated
meet-in-the-middle: each half of the modes lists its occupations as
arrays, and the halves join on opposite momenta.  The quadratic, cubic and
quartic channels are assembled as explicit sparse symmetric matrices
(row-major coordinate arrays) with standard bosonic ladder rules.  The
terms of one monomial class (slot permutations, and a monomial with its
transpose) are merged first, so each class is applied once; one boolean
screen per block of classes marks the (class, state) pairs that hold
every annihilated mode and stay within the cap, and only those pairs
meet the ladder operators.  The entries agree with a term-by-term loop
over the whole basis to within the summation-rounding bound the tests
keep.  Ground states come from the connected
components of the operator's sparsity graph, visited in the order of
their Gershgorin lower bounds: each visited block is diagonalized whole
by one dense LAPACK eigensolve.  Second-order
perturbation theory is a projected resolvent conjugate-gradient solve.
Everything runs on numpy alone, and each solver has one path at every
basis dimension.  None of it reuses the closed-form route it is meant
to check.

Its targets (`oracle.run_oracle`) are the report's own `E0` and
`depletion` functions on the `RestrictedTables` of the mode set, and the
pair sums restricted to in-set triples below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corrections import symmetrized_vertex, vertex_factors
from .errors import (
    BasisTooLarge,
    EigenNonConvergence,
    InconsistentLattice,
    LinearSolveNonConvergence,
    MomentumViolation,
)
from .sums import det_sum

MAX_MODES = 30
DEFAULT_DIM_LIMIT = 2_000_000
# screened (class, state) pairs per assembly block: bounds the transient
# arrays; on the 18-mode oracle at caps 5 and 6, run_oracle measured the
# same from 2^14 to 2^18 (medians 82-87 ms, quartiles overlapping) at the
# same CLI peak RSS, 43.3 MB
_BLOCK = 1 << 16
# residual bounds: ground_state's relative to max(1, max |A_ij|),
# rs_pt2's relative to max(1, |Q V gs0|)
_EIG_RTOL = 1e-12
_PT2_RTOL = 1e-11


@dataclass(frozen=True)
class ModeSet:
    """Ordered momenta (integer triples, p = 2*pi*n), closed under negation."""

    vectors: np.ndarray                 # (m, 3) int64, canonical order
    neg_index: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.vectors.shape[0]


def mode_set(vectors) -> ModeSet:
    vecs = np.asarray(sorted(set(tuple(int(c) for c in v) for v in vectors)))
    if vecs.size == 0:
        vecs = np.zeros((0, 3), dtype=np.int64)
    vecs = vecs.astype(np.int64).reshape(-1, 3)
    nsq = np.sum(vecs * vecs, axis=1)
    if np.any(nsq == 0):
        raise ValueError("mode set must not contain the zero mode")
    order = np.lexsort((vecs[:, 2], vecs[:, 1], vecs[:, 0], nsq))
    vecs = vecs[order]
    if len(vecs) > MAX_MODES:
        raise BasisTooLarge(f"{len(vecs)} modes exceeds the cap {MAX_MODES}")
    lookup = {tuple(v): i for i, v in enumerate(vecs.tolist())}
    neg = np.array([lookup.get(tuple(-v), -1) for v in vecs], dtype=np.int64)
    if np.any(neg < 0):
        raise ValueError("mode set is not closed under negation")
    return ModeSet(vectors=vecs, neg_index=neg)


def shell_modes(nsq_max: int) -> ModeSet:
    """All lattice points with 0 < |n|^2 <= nsq_max."""
    L = math.isqrt(nsq_max)
    if 6 * L > MAX_MODES:  # the axis points alone exceed the cap
        raise BasisTooLarge(f"|n|^2 <= {nsq_max} holds more than {MAX_MODES} modes")
    vecs = [
        (x, y, z)
        for x in range(-L, L + 1)
        for y in range(-L, L + 1)
        for z in range(-L, L + 1)
        if 0 < x * x + y * y + z * z <= nsq_max
    ]
    return mode_set(vecs)


def _row_keys(occupations: np.ndarray) -> np.ndarray:
    """One void key per occupation row, ordered as the rows compare
    lexicographically; a trailing zero byte keeps the key defined when
    the mode set is empty."""
    D, m = occupations.shape
    padded = np.zeros((D, m + 1), dtype=np.uint8)
    padded[:, :m] = occupations
    return padded.view(np.dtype((np.void, m + 1))).ravel()


@dataclass(frozen=True)
class FockBasis:
    """Occupation vectors with sum <= n_max in the zero-momentum sector."""

    modes: ModeSet
    n_max: int
    occ: np.ndarray = field(repr=False)       # (D, m) uint8, lex order
    _keys: np.ndarray = field(repr=False)     # _row_keys(occ), ascending

    def __len__(self) -> int:
        return self.occ.shape[0]

    @property
    def vacuum_index(self) -> int:
        return 0  # all-zero occupation sorts first

    def lookup(self, occupations: np.ndarray) -> np.ndarray:
        """Vectorized occupation -> index; -1 where absent."""
        tv = _row_keys(occupations)
        pos = np.searchsorted(self._keys, tv)
        out = np.full(len(tv), -1, dtype=np.int64)
        inb = pos < len(self._keys)
        hit = np.zeros(len(tv), dtype=bool)
        hit[inb] = self._keys[pos[inb]] == tv[inb]
        out[hit] = pos[hit]
        return out


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """One integer per row of an (n, k) integer array, equal exactly
    when the rows are equal."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=np.int64)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(new)
    return ids


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


def build_basis(
    modes: ModeSet, n_max: int, dim_limit: int = DEFAULT_DIM_LIMIT
) -> FockBasis:
    """Enumerate the constrained sector in deterministic lexicographic order.

    Meet in the middle: the modes split into two halves, each half's
    occupations with total <= n_max are enumerated as arrays, and a left
    state joins every right state of opposite momentum whose total fits
    the remaining cap.  One sort by the row key gives lexicographic order.
    Raises BasisTooLarge, before anything is allocated, when either half
    holds more than dim_limit occupations (C(n_max + h, h) for h modes),
    and when the joined sector holds more than dim_limit states.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > 255:
        raise BasisTooLarge("occupancy cap above the uint8 packing limit")
    m = len(modes)
    h = m // 2
    for width in (h, m - h):
        if math.comb(n_max + width, width) > dim_limit:
            raise BasisTooLarge(
                f"{width} modes at cap {n_max} hold more than {dim_limit} "
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
    if int(count.sum()) > dim_limit:
        raise BasisTooLarge(f"sector dimension exceeds the limit {dim_limit}")
    left = np.repeat(np.arange(len(lo)), count)
    right = order_r[np.repeat(lo, count) + _group_offsets(count)]
    occ = np.concatenate([occ_l[left], occ_r[right]], axis=1)
    keys = _row_keys(occ)
    order = np.argsort(keys)
    return FockBasis(
        modes=modes, n_max=int(n_max), occ=occ[order], _keys=keys[order]
    )


def _coalesce(rows, cols, vals, dim: int):
    """Row-major, duplicate-free coordinates: entries at one position are
    summed in the order they were given."""
    keys = rows * dim + cols
    order = np.argsort(keys, kind="stable")
    first = np.flatnonzero(np.diff(keys[order], prepend=-1))
    at = order[first]
    return rows[at], cols[at], np.add.reduceat(vals[order], first)


@dataclass(frozen=True)
class SparseSymmetricOperator:
    """Real symmetric operator in row-major, duplicate-free coordinate
    form; `op @ x` sums each row in column order."""

    rows: np.ndarray      # (nnz,) intp, ascending with cols within a row
    cols: np.ndarray      # (nnz,) intp
    vals: np.ndarray      # (nnz,) float
    dim: int

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


def _monomial_classes(create, annihilate, coeff):
    """One row per distinct monomial of `_Assembler.add_terms`' terms:
    (create, annihilate, coeff) with the slots of each kind in descending
    order (empty slots last), a monomial with as many creators as
    annihilators written as the lesser of itself and its transpose, the
    rows ascending and each row's coefficient the sum of its terms' in
    term order."""
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
    classes, inverse = np.unique(key, axis=0, return_inverse=True)
    # numpy 2.0.0 shapes the inverse (n, 1)
    total = np.bincount(inverse.reshape(-1), weights=coeff,
                        minlength=len(classes))
    # a folded row holds at most min(wc, wa) operators of each kind
    return classes[:, :wc], classes[:, w : w + wa], total


class _Assembler:
    """Collects half-operator entries X; the built operator is X + X^T,
    which is symmetric exactly (float addition commutes entrywise)."""

    def __init__(self, basis: FockBasis):
        self.basis = basis
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []

    def add_terms(self, create, annihilate, coeff):
        """Normal-ordered monomials, one per row t:

            coeff[t] a+_{create[t, 0]} a+_{create[t, 1]} ...
                     a_{annihilate[t, 0]} a_{annihilate[t, 1]} ... ,

        with -1 marking an empty slot.  The built operator is X + X^T, so
        each term is written once and its transpose supplies the h.c.; a
        self-adjoint sum is written once at half weight.

        Equal monomials are emitted once, as one class: operators of one
        kind commute, so each term's creators and its annihilators are
        sorted, and a term with as many creators as annihilators shares
        its class with its transpose, which X + X^T sees alike.  A class
        carries its terms' coefficients summed in term order, and the
        classes are emitted in ascending order of their slots.

        Each block of classes screens every (class, state) pair at once: a
        state survives a class when it holds each annihilated mode at
        least as often as the class lowers it, and the net change keeps it
        within the cap.  The screen is read class by class, each class's
        states in source order; each amplitude is the coefficient times
        one sqrt per operator in the order they act.
        """
        create, annihilate, coeff = _monomial_classes(
            create, annihilate, np.asarray(coeff, dtype=float))
        live = np.nonzero(coeff != 0.0)[0]
        basis = self.basis
        occ = basis.occ
        D, m = occ.shape
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
        for lo in range(0, len(live), per):
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
            self.rows.append(tgt)
            self.cols.append(src)
            self.vals.append(amp)

    def add_diagonal(self, diag: np.ndarray):
        idx = np.arange(len(self.basis))
        self.rows.append(idx)
        self.cols.append(idx)
        self.vals.append(0.5 * np.asarray(diag, dtype=float))

    def build(self) -> SparseSymmetricOperator:
        """X + X^T: the entries of X are summed per position, then each
        position of the result receives X_ij and X_ji, so it is exactly
        symmetric; exact zeros are dropped."""
        D = len(self.basis)
        empty = np.zeros(0, dtype=np.intp)
        rows, cols, vals = _coalesce(
            np.concatenate([empty, *self.rows]),
            np.concatenate([empty, *self.cols]),
            np.concatenate([np.zeros(0), *self.vals]),
            D,
        )
        rows, cols, vals = _coalesce(
            np.concatenate([rows, cols]), np.concatenate([cols, rows]),
            np.concatenate([vals, vals]), D,
        )
        keep = vals != 0.0
        return SparseSymmetricOperator(
            rows=rows[keep], cols=cols[keep], vals=vals[keep], dim=D
        )


def build_G0(basis: FockBasis, F: np.ndarray, G: np.ndarray) -> SparseSymmetricOperator:
    """sum_p F_p n_p + (1/2) sum_p G_p (a+_p a+_{-p} + a_p a_{-p})."""
    asm = _Assembler(basis)
    asm.add_diagonal(basis.occ.astype(float) @ np.asarray(F, dtype=float))
    m = len(basis.modes)
    asm.add_terms(
        np.stack([np.arange(m), basis.modes.neg_index], axis=1),
        np.zeros((m, 0), dtype=np.int64),
        0.5 * np.asarray(G, dtype=float),
    )
    return asm.build()


@dataclass(frozen=True)
class RestrictedTables:
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
    value_at: object = field(repr=False)


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


def _index_of(modes: ModeSet, points: np.ndarray) -> np.ndarray:
    """Mode index of each integer triple in points (..., 3); -1 where the
    triple is not in the set."""
    flat = points.reshape(-1, 3)
    m = len(modes)
    ids = _row_ids(np.concatenate([modes.vectors, flat]))
    table = np.full(m + len(flat) + 1, -1, dtype=np.int64)
    table[ids[:m]] = np.arange(m)
    return table[ids[m:]].reshape(points.shape[:-1])


def _mode_pairs(modes: ModeSet):
    """(i, j, k) rows with mode_i + mode_j = mode_k inside the set, i
    major."""
    vecs = modes.vectors
    total = vecs[:, None, :] + vecs[None, :, :]
    k = _index_of(modes, total)
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
    asm = _Assembler(basis)
    i, j, k = _mode_pairs(rt.modes).T
    neg = rt.modes.neg_index
    base = 1.0 / np.sqrt(rt.N) * rt.v[i] * rt.c[k] * rt.c[i]
    # each pair's two terms in turn: a+ a+ a, then a+ a+ a+
    none = np.full_like(i, -1)
    asm.add_terms(
        np.stack([k, neg[i], none, k, neg[i], neg[j]], axis=1).reshape(-1, 3),
        np.stack([j, none], axis=1).reshape(-1, 1),
        np.stack([base * rt.c[j], base * rt.s[j]], axis=1).ravel(),
    )
    return asm.build()


def build_G2(basis: FockBasis, rt: RestrictedTables) -> SparseSymmetricOperator:
    """Quartic channel, normal ordered:

        (1/2N) sum_{p,q,r} vhat_r c_{p+r} c_q c_p c_{q+r}
                           a+_{p+r} a+_q a_p a_{q+r} ,

    with p, q, p+r, q+r in the mode set and the transfer r any nonzero
    lattice vector.
    """
    asm = _Assembler(basis)
    vecs = rt.modes.vectors
    m = len(vecs)
    r = vecs[None, :, :] - vecs[:, None, :]          # [p, p + r]
    vr = np.zeros((m, m))
    moves = r.any(axis=-1)
    vr[moves] = rt.value_at(r[moves])
    qr = vecs[None, None, :, :] + r[:, :, None, :]   # [p, p + r, q]
    iqr = _index_of(rt.modes, qr)
    valid = moves[:, :, None] & qr.any(axis=-1)
    ip, ipr, iq = np.nonzero(valid & (iqr >= 0))
    iqr = iqr[ip, ipr, iq]
    c = rt.c
    coeff = 1.0 / (2.0 * rt.N) * vr[ip, ipr] * c[ipr] * c[iq] * c[ip] * c[iqr]
    # self-adjoint: written once at half weight
    asm.add_terms(
        np.stack([ipr, iq], axis=1), np.stack([ip, iqr], axis=1), 0.5 * coeff
    )
    return asm.build()


def _components(op: SparseSymmetricOperator) -> np.ndarray:
    """Connected component of each state in the sparsity graph of op,
    numbered in order of each component's first state.

    Each pass lowers every label to the least label in its row and then
    follows labels to their fixed point.  A label always names a state
    of the same component, and once a pass changes nothing every entry
    joins equal labels (the pattern is symmetric)."""
    label = np.arange(op.dim)
    starts = np.flatnonzero(np.diff(op.rows, prepend=-1))
    owner = op.rows[starts]
    while len(starts):
        low = label.copy()
        low[owner] = np.minimum(
            label[owner], np.minimum.reduceat(label[op.cols], starts)
        )
        while not np.array_equal(low[low], low):
            low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    return np.unique(label, return_inverse=True)[1]


def ground_state(op: SparseSymmetricOperator) -> tuple[float, np.ndarray]:
    """Smallest eigenpair, residual-verified, by one path at every size.

    The operator splits into the connected components of its sparsity
    graph (a quadratic form conserves every pair difference
    n_p - n_{-p}).  No eigenvalue of a component lies below its
    Gershgorin lower bound min_i (A_ii - sum_{j != i} |A_ij|), so the
    components are visited in the order of that bound, and the search
    stops once the next bound is above the lowest eigenvalue found.

    Each visited component's block is diagonalized whole by LAPACK
    (`np.linalg.eigh`), and its lowest eigenpair is taken, so no level
    of the block can be missed.  The cost grows as b^3 in the block size
    b (one OpenBLAS thread, 2-vCPU Xeon): about 4 ms for the 220-state
    vacuum block at cap 6 of the 18 modes |n|^2 <= 2, 1.4 s at
    b = 1,771 (the closed six-mode set at cap 40).  The vector's largest
    entry is made positive, and its residual must be at most 1e-12 times
    max(1, max |A_ij|).
    """
    if not np.all(np.isfinite(op.vals)):
        raise EigenNonConvergence("the operator has a non-finite entry")
    D = op.dim
    scale = max(1.0, float(np.max(np.abs(op.vals), initial=0.0)))
    diag = op.diagonal()
    radius = np.bincount(op.rows, np.abs(op.vals), minlength=D) - np.abs(diag)
    comp = _components(op)
    lower = np.full(comp.max() + 1, np.inf)
    np.minimum.at(lower, comp, diag - radius)
    owner = comp[op.rows]

    best, v = math.inf, None
    for c in np.argsort(lower, kind="stable"):
        if lower[c] > best:
            break
        states = np.nonzero(comp == c)[0]
        e = owner == c
        block = np.zeros((len(states), len(states)))
        block[np.searchsorted(states, op.rows[e]),
              np.searchsorted(states, op.cols[e])] = op.vals[e]
        try:
            levels, vectors = np.linalg.eigh(block)
        except np.linalg.LinAlgError as exc:
            raise EigenNonConvergence(f"block eigensolve failed: {exc}") from exc
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


def _cg(matvec, b: np.ndarray, rtol: float, maxiter: int) -> np.ndarray:
    """Conjugate gradients from x = 0, stopped once |r| < rtol |b|;
    LinearSolveNonConvergence after maxiter steps."""
    x = np.zeros_like(b)
    r = b.copy()
    stop = rtol * np.linalg.norm(b)
    p, rho_prev = None, None
    for _ in range(maxiter):
        if np.linalg.norm(r) < stop:
            return x
        rho = r @ r
        p = r.copy() if p is None else r + (rho / rho_prev) * p
        q = matvec(p)
        step = rho / (p @ q)
        x += step * p
        r -= step * q
        rho_prev = rho
    raise LinearSolveNonConvergence(f"cg did not converge in {maxiter} steps")


def rs_pt2(
    g0_op: SparseSymmetricOperator,
    v_op: SparseSymmetricOperator,
    e0: float,
    gs0: np.ndarray,
) -> float:
    """Second-order correction <V gs0, (E0 - G0)^(-1) Q V gs0>.

    The projected system (G0 - E0) y = Q V gs0, y orthogonal to gs0, is
    solved by conjugate gradients (numpy, from zero, relative residual
    1e-13, at most 5000 steps) at every size with a rank-one
    regularization along gs0: G0 - E0 + alpha |gs0><gs0| is positive
    definite once E0 is the true ground energy, which `ground_state`
    guarantees.  The value -<w, y> is nonpositive whenever V gs0 has
    weight off the ground state.
    """
    w = v_op @ gs0
    w = w - (gs0 @ w) * gs0
    wn = np.linalg.norm(w)
    if wn == 0.0:
        return 0.0
    A = g0_op
    alpha = max(1.0, float(np.max(np.abs(A.vals), initial=1.0)))
    y = _cg(lambda x: A @ x - e0 * x + alpha * (gs0 @ x) * gs0, w, 1e-13, 5000)
    y = y - (gs0 @ y) * gs0
    resid = np.linalg.norm(A @ y - e0 * y - w)
    if resid > _PT2_RTOL * max(wn, 1.0):
        raise LinearSolveNonConvergence(
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
