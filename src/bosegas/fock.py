"""Brute-force truth source on a truncated excitation Fock space.

A small momentum mode set (closed under negation) and an occupancy cap
define a finite zero-total-momentum sector.  The quadratic, cubic and
quartic channels are assembled as explicit sparse symmetric matrices with
standard bosonic ladder rules, ground states come from Lanczos on the
inverse of one shifted factorization with inverse-iteration polishing,
and second-order perturbation theory is done by a projected resolvent
conjugate-gradient solve.  Each solver has one path at every basis
dimension.  None of it reuses the closed-form route it is meant to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    BasisTooLarge,
    EigenNonConvergence,
    InconsistentLattice,
    LinearSolveNonConvergence,
)
from .sums import det_sum

MAX_MODES = 30
DEFAULT_DIM_LIMIT = 2_000_000


@dataclass(frozen=True)
class ModeSet:
    """Ordered momenta (integer triples, p = 2*pi*n), closed under negation."""

    vectors: np.ndarray                 # (m, 3) int64, canonical order
    neg_index: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def psq(self) -> np.ndarray:
        return (2.0 * np.pi) ** 2 * np.sum(
            self.vectors * self.vectors, axis=1
        ).astype(float)


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


@dataclass(frozen=True)
class FockBasis:
    """Occupation vectors with sum <= n_max in the zero-momentum sector."""

    modes: ModeSet
    n_max: int
    occ: np.ndarray = field(repr=False)       # (D, m) uint8, lex order
    _keys: np.ndarray = field(repr=False)     # void view, ascending

    def __len__(self) -> int:
        return self.occ.shape[0]

    @property
    def vacuum_index(self) -> int:
        return 0  # all-zero occupation sorts first

    def lookup(self, occupations: np.ndarray) -> np.ndarray:
        """Vectorized occupation -> index; -1 where absent."""
        m = len(self.modes)
        tgt = np.ascontiguousarray(occupations.astype(np.uint8))
        tv = tgt.view(np.dtype((np.void, m))).ravel()
        pos = np.searchsorted(self._keys, tv)
        out = np.full(len(tv), -1, dtype=np.int64)
        inb = pos < len(self._keys)
        hit = np.zeros(len(tv), dtype=bool)
        hit[inb] = self._keys[pos[inb]] == tv[inb]
        out[hit] = pos[hit]
        return out


def build_basis(
    modes: ModeSet, n_max: int, dim_limit: int = DEFAULT_DIM_LIMIT
) -> FockBasis:
    """Enumerate the constrained sector in deterministic lexicographic order."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    m = len(modes)
    if n_max > 255:
        raise BasisTooLarge("occupancy cap above the uint8 packing limit")
    vecs = modes.vectors
    # max reachable |momentum component| with the remaining modes
    suffix_max = np.zeros((m + 1, 3), dtype=np.int64)
    for j in range(m - 1, -1, -1):
        suffix_max[j] = np.maximum(suffix_max[j + 1], np.abs(vecs[j]))

    out: list[bytes] = []
    state = np.zeros(m, dtype=np.uint8)

    def recurse(j: int, used: int, P: np.ndarray) -> None:
        cap = n_max - used
        if j == m:
            if not P.any():
                out.append(state.tobytes())
                if len(out) > dim_limit:
                    raise BasisTooLarge(
                        f"sector dimension exceeds the limit {dim_limit}"
                    )
            return
        if np.any(np.abs(P) > cap * suffix_max[j]):
            return  # momentum can no longer cancel
        for n in range(cap + 1):
            state[j] = n
            recurse(j + 1, used + n, P + n * vecs[j])
        state[j] = 0

    recurse(0, 0, np.zeros(3, dtype=np.int64))
    occ = (
        np.frombuffer(b"".join(out), dtype=np.uint8).reshape(-1, m)
        if m > 0
        else np.zeros((1, 0), dtype=np.uint8)
    )
    keys = occ.view(np.dtype((np.void, max(m, 1)))).ravel() if m > 0 else None
    if m == 0:
        occ = np.zeros((1, 1), dtype=np.uint8)[:, :0]
        keys = np.zeros(1, dtype=np.dtype((np.void, 1)))
    return FockBasis(modes=modes, n_max=int(n_max), occ=occ, _keys=keys)


@dataclass(frozen=True)
class SparseSymmetricOperator:
    """Real symmetric operator in coordinate-assembled CSR form."""

    mat: sp.csr_matrix
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def symmetry_defect(self) -> float:
        d = self.mat - self.mat.T
        return 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data)))


class _Assembler:
    """Collects half-operator entries X; the built operator is X + X^T,
    which is symmetric exactly (float addition commutes entrywise)."""

    def __init__(self, basis: FockBasis):
        self.basis = basis
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []

    def apply_term(self, ops: list[tuple[int, int]], coeff: float, mirror: str):
        """One normal-ordered monomial: ops = [(mode, +1 create | -1
        annihilate), ...] applied right to left to every basis state.

        mirror: 'hc' emits the term once (its transpose supplies the
        h.c.); 'half' emits half weight (self-adjoint sum written once).
        """
        if coeff == 0.0:
            return
        basis = self.basis
        occ = basis.occ.astype(np.int64)
        amp = np.full(len(basis), coeff, dtype=float)
        alive = np.ones(len(basis), dtype=bool)
        for mode, kind in reversed(ops):
            if kind < 0:
                amp *= np.sqrt(np.maximum(occ[:, mode], 0))
                alive &= occ[:, mode] > 0
                occ[:, mode] -= 1
            else:
                occ[:, mode] += 1
                amp *= np.sqrt(np.maximum(occ[:, mode], 0))
        alive &= occ.sum(axis=1) <= basis.n_max
        if not np.any(alive):
            return
        src = np.nonzero(alive)[0]
        tgt = basis.lookup(occ[alive])
        # momentum conservation makes every in-cap target a sector member
        assert np.all(tgt >= 0), "momentum-violating matrix element"
        weight = amp[alive] if mirror == "hc" else 0.5 * amp[alive]
        self.rows.append(tgt)
        self.cols.append(src)
        self.vals.append(weight)

    def add_diagonal(self, diag: np.ndarray):
        idx = np.arange(len(self.basis))
        self.rows.append(idx)
        self.cols.append(idx)
        self.vals.append(0.5 * np.asarray(diag, dtype=float))

    def build(self, meta: dict | None = None) -> SparseSymmetricOperator:
        D = len(self.basis)
        if not self.rows:
            mat = sp.csr_matrix((D, D))
        else:
            half = sp.coo_matrix(
                (
                    np.concatenate(self.vals),
                    (np.concatenate(self.rows), np.concatenate(self.cols)),
                ),
                shape=(D, D),
            ).tocsr()
            half.sum_duplicates()
            mat = (half + half.T).tocsr()
        return SparseSymmetricOperator(mat=mat, meta=meta or {})


def build_G0(basis: FockBasis, F: np.ndarray, G: np.ndarray) -> SparseSymmetricOperator:
    """sum_p F_p n_p + (1/2) sum_p G_p (a+_p a+_{-p} + a_p a_{-p})."""
    asm = _Assembler(basis)
    asm.add_diagonal(basis.occ.astype(float) @ np.asarray(F, dtype=float))
    neg = basis.modes.neg_index
    for i in range(len(basis.modes)):
        asm.apply_term([(i, +1), (int(neg[i]), +1)], 0.5 * float(G[i]), "hc")
    return asm.build({"kind": "quadratic"})


def build_number(basis: FockBasis) -> SparseSymmetricOperator:
    asm = _Assembler(basis)
    asm.add_diagonal(basis.occ.sum(axis=1).astype(float))
    return asm.build({"kind": "number"})


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
        eta=tables.sol.eta[idx],
        tau=tables.tau[idx],
        value_at=tables.table.value_at,
    )


def _mode_pairs(modes: ModeSet):
    """(i, j, k) with mode_i + mode_j = mode_k inside the set, plus the
    count of (i, j) pairs whose sum leaves the set."""
    vecs = modes.vectors
    lookup = {tuple(v): i for i, v in enumerate(vecs.tolist())}
    kept, dropped = [], 0
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            s = vecs[i] + vecs[j]
            if not s.any():
                continue
            k = lookup.get(tuple(s), -1)
            if k < 0:
                dropped += 1
            else:
                kept.append((i, j, k))
    return kept, dropped


def build_G1tilde(basis: FockBasis, rt: RestrictedTables) -> SparseSymmetricOperator:
    """Leading cubic channel, restricted to the mode set:

        (1/sqrt N) sum_{p,q}   vhat_p c_{p+q} c_p c_q  a+_{p+q} a+_{-p} a_q
      + (1/sqrt N) sum_{p,q}   vhat_p c_{p+q} c_p s_q  a+_{p+q} a+_{-p} a+_{-q}
      + h.c.

    Triples with p + q outside the set are dropped and counted.
    """
    asm = _Assembler(basis)
    pairs, dropped = _mode_pairs(rt.modes)
    neg = rt.modes.neg_index
    pref = 1.0 / np.sqrt(rt.N)
    for i, j, k in pairs:
        base = pref * rt.v[i] * rt.c[k] * rt.c[i]
        asm.apply_term(
            [(k, +1), (int(neg[i]), +1), (j, -1)], base * rt.c[j], "hc"
        )
        asm.apply_term(
            [(k, +1), (int(neg[i]), +1), (int(neg[j]), +1)],
            base * rt.s[j],
            "hc",
        )
    return asm.build({"kind": "cubic", "dropped_pairs": dropped})


def build_G2(basis: FockBasis, rt: RestrictedTables) -> SparseSymmetricOperator:
    """Quartic channel, normal ordered:

        (1/2N) sum_{p,q,r} vhat_r c_{p+r} c_q c_p c_{q+r}
                           a+_{p+r} a+_q a_p a_{q+r} ,

    with p, q, p+r, q+r in the mode set and the transfer r any nonzero
    lattice vector.
    """
    asm = _Assembler(basis)
    modes = rt.modes
    vecs = modes.vectors
    lookup = {tuple(v): i for i, v in enumerate(vecs.tolist())}
    m = len(modes)
    pref = 1.0 / (2.0 * rt.N)
    dropped = 0
    for ip in range(m):           # p
        for ipr in range(m):      # p + r
            r = vecs[ipr] - vecs[ip]
            if not r.any():
                continue
            vr = float(rt.value_at(r[None, :])[0])
            for iq in range(m):   # q
                s = vecs[iq] + r
                if not s.any():
                    continue
                iqr = lookup.get(tuple(s), -1)
                if iqr < 0:
                    dropped += 1
                    continue
                coeff = (
                    pref * vr * rt.c[ipr] * rt.c[iq] * rt.c[ip] * rt.c[iqr]
                )
                asm.apply_term(
                    [(ipr, +1), (iq, +1), (ip, -1), (iqr, -1)], coeff, "half"
                )
    return asm.build({"kind": "quartic", "dropped_triples": dropped})


def ground_state(
    op: SparseSymmetricOperator, tol: float = 1e-12
) -> tuple[float, np.ndarray]:
    """Smallest eigenpair, residual-verified, by one path at every size.

    The shift sigma sits strictly below the Gershgorin lower bound
    min_i (A_ii - sum_{j != i} |A_ij|), so A - sigma I is strictly
    diagonally dominant with a positive diagonal: positive definite, and
    factorable without pivoting trouble.  Every eigenvalue of its inverse
    is then 1/(lambda_i - sigma) > 0 and the ground energy owns the largest
    one, so Lanczos on the inverse finds the ground state and cannot stop
    on an excited level the way an extremal solver on A itself can.  A few
    inverse-iteration steps on the same factor polish the vector; the
    back-substitution recovers near-relative accuracy in the small
    amplitudes of strongly diagonal sectors, which plain backward-stable
    eigensolvers do not provide.
    """
    A = op.mat
    D = op.dim
    scale = max(1.0, float(np.max(np.abs(A.data))) if A.nnz else 0.0)
    if D == 1:  # ARPACK needs D >= 2
        return float(A[0, 0]), np.ones(1)
    diag = A.diagonal()
    radius = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(diag)
    sigma = float(np.min(diag - radius)) - 1e-8 * scale
    try:
        lu = spla.splu((A - sigma * sp.identity(D, format="csr")).tocsc())
    except RuntimeError as exc:
        raise EigenNonConvergence(f"shifted factorization failed: {exc}") from exc
    inverse = spla.LinearOperator((D, D), matvec=lu.solve, dtype=float)
    try:
        _, vecs = spla.eigsh(
            inverse, k=1, which="LA", v0=np.full(D, 1.0 / np.sqrt(D)), tol=1e-12
        )
    except spla.ArpackNoConvergence as exc:
        raise EigenNonConvergence(str(exc)) from exc
    v = vecs[:, 0]
    for _ in range(3):
        w = lu.solve(v)
        v = w / np.linalg.norm(w)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    lam0 = float(v @ (A @ v))
    resid = float(np.linalg.norm(A @ v - lam0 * v))
    if not resid <= max(tol * scale, 1e-13 * scale):
        raise EigenNonConvergence(
            f"residual {resid:.3e} above tolerance {tol:.1e} (scale {scale:.3g})"
        )
    return lam0, v


def rs_pt2(
    g0_op: SparseSymmetricOperator,
    v_op: SparseSymmetricOperator,
    e0: float,
    gs0: np.ndarray,
    tol: float = 1e-11,
) -> float:
    """Second-order correction <V gs0, (E0 - G0)^(-1) Q V gs0>.

    The projected system (G0 - E0) y = Q V gs0, y orthogonal to gs0, is
    solved by conjugate gradients at every size with a rank-one
    regularization along gs0: G0 - E0 + alpha |gs0><gs0| is positive
    definite once E0 is the true ground energy, which `ground_state`
    guarantees.  The value -<w, y> is nonpositive whenever V gs0 has
    weight off the ground state.
    """
    w = v_op.mat @ gs0
    w = w - (gs0 @ w) * gs0
    wn = np.linalg.norm(w)
    if wn == 0.0:
        return 0.0
    A = g0_op.mat
    D = g0_op.dim
    alpha = max(1.0, float(np.max(np.abs(A.data))) if A.nnz else 1.0)
    lin = spla.LinearOperator(
        (D, D),
        matvec=lambda x: A @ x - e0 * x + alpha * (gs0 @ x) * gs0,
        dtype=float,
    )
    y, info = spla.cg(lin, w, rtol=1e-13, atol=0.0, maxiter=5000)
    if info != 0:
        raise LinearSolveNonConvergence(f"cg status {info}")
    y = y - (gs0 @ y) * gs0
    resid = np.linalg.norm(A @ y - e0 * y - w)
    if resid > tol * max(wn, 1.0):
        raise LinearSolveNonConvergence(
            f"projected solve residual {resid:.3e} for rhs norm {wn:.3e}"
        )
    return -float(w @ y)


def restricted_e_pert_tilde(rt: RestrictedTables) -> float:
    """Closed-form second-order cubic energy over in-set triples only."""
    pairs, _ = _mode_pairs(rt.modes)
    terms = []
    for i, j, k in pairs:
        f = _f_restricted(rt, i, j, k)
        terms.append(f * f / (rt.e[k] + rt.e[i] + rt.e[j]))
    return -(6.0 / rt.N) * det_sum(terms)


def _f_restricted(rt: RestrictedTables, i: int, j: int, k: int) -> float:
    """f(p_i, p_j) with p_i + p_j = p_k, all inside the mode set."""
    from .corrections import symmetrized_vertex

    def slot(m: int):
        return (rt.v[m], rt.c[m], rt.s[m], rt.ct[m], rt.st[m])

    return float(symmetrized_vertex(slot(i), slot(j), slot(k)))


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


def restricted_ground_energy(rt: RestrictedTables) -> float:
    """(1/2) sum_p (-F_p + e_p) over the mode set, cancellation-free."""
    return det_sum(-rt.G * rt.G / (2.0 * (rt.F + rt.e)))


def restricted_depletion(rt: RestrictedTables) -> float:
    x = np.sinh(rt.eta + rt.tau)
    return det_sum(x * x)
