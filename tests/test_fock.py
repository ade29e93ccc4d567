import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from bosegas.bogoliubov import bogoliubov_ground_energy
from bosegas.config import parse_config
from bosegas.corrections import depletion
from bosegas import fock
from bosegas.errors import (
    BasisTooLarge,
    EigenNonConvergence,
    MomentumViolation,
)
from bosegas.fock import (
    FockBasis,
    RestrictedTables,
    SparseSymmetricOperator,
    _assemble,
    _components,
    _row_ids,
    build_basis,
    build_G0,
    build_G1tilde,
    build_G2,
    ground_state,
    mode_set,
    restrict_tables,
    restricted_e_pert_tilde,
    restricted_g2_expectation,
    rs_pt2,
    shell_modes,
)
from bosegas.lattice_potential import TWO_PI, Potential, enumerate_lattice
from bosegas.oracle import _fock_values, run_oracle
from bosegas.pipeline import run_tables
from conftest import solve, tables_of, traced_peak


def synthetic_tables(vectors, eta_scale=0.25, tau_scale=0.15, N=64):
    """Consistent per-mode tables with sizeable squeezing: the occupancy
    sweep then probes real truncation, unlike physical couplings."""
    ms = mode_set(vectors)
    nsq = np.sum(ms.vectors**2, axis=1).astype(float)
    eta = eta_scale / nsq
    tau = tau_scale / nsq
    F = (2 * np.pi) ** 2 * nsq
    G = -F * np.tanh(2.0 * tau)

    def value_at(t):
        t = np.asarray(t, dtype=float)
        return 0.8 / (1.0 + np.sum(t * t, axis=-1))

    return RestrictedTables(
        modes=ms, N=N, v=value_at(ms.vectors),
        c=np.cosh(eta), s=np.sinh(eta), ct=np.cosh(tau), st=np.sinh(tau),
        F=F, G=G, e=np.sqrt(F * F - G * G), eta=eta, tau=tau,
        value_at=value_at,
    )


CLOSED_SET = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 0), (-1, -1, 0)]
# no signed axis permutation but +-1 maps it onto itself: (2, 0, 0) pins
# the x axis, (1, 1, 0) then pins y (z is 0 throughout); its triples close
NEGATION_ONLY_SET = CLOSED_SET + [(2, 0, 0), (-2, 0, 0)]


def symmetry_defect(op: SparseSymmetricOperator) -> float:
    """max |A_ij - A_ji| over the stored entries: 0.0 exactly when the
    operator is symmetric bit for bit."""
    _, _, d = fock._coalesce(
        [(op.rows, op.cols, op.vals), (op.cols, op.rows, -op.vals)], op.dim)
    return float(np.max(np.abs(d), initial=0.0))


def whole_basis(modes, n_max):
    """`build_basis` with each state its own orbit: the builders then
    assemble on the whole basis.  (`_replace` would fail: `FockBasis`
    defines `__len__` as its state count.)"""
    b = build_basis(modes, n_max)
    return FockBasis(b.modes, b.n_max, b.occ, b.keys, np.arange(len(b)))


# Exact references: the depth-first enumeration that `build_basis`
# replaced, and the assembly that applies each term over the whole basis.
# The builders merge equal monomials into one class before applying them,
# which reorders sums: merged=True merges the same way and must agree bit
# for bit, the term-by-term loop within a rounding bound.

def ref_basis_occ(modes, n_max):
    m = len(modes)
    vecs = modes.vectors
    suffix_max = np.zeros((m + 1, 3), dtype=np.int64)
    for j in range(m - 1, -1, -1):
        suffix_max[j] = np.maximum(suffix_max[j + 1], np.abs(vecs[j]))
    out = []
    state = np.zeros(m, dtype=np.uint8)

    def recurse(j, used, P):
        cap = n_max - used
        if j == m:
            if not P.any():
                out.append(state.tobytes())
            return
        if np.any(np.abs(P) > cap * suffix_max[j]):
            return
        for n in range(cap + 1):
            state[j] = n
            recurse(j + 1, used + n, P + n * vecs[j])
        state[j] = 0

    recurse(0, 0, np.zeros(3, dtype=np.int64))
    return np.frombuffer(b"".join(out), dtype=np.uint8).reshape(len(out), m)


class RefAssembler:
    """Collects the entries of X term by term; `build` forms X + X^T as
    the builders do."""

    def __init__(self, basis):
        self.basis = basis
        self.rows, self.cols, self.vals = [], [], []

    def add_diagonal(self, diag):
        idx = np.arange(len(self.basis))
        self.rows.append(idx)
        self.cols.append(idx)
        self.vals.append(0.5 * np.asarray(diag, dtype=float))

    def apply_term(self, ops, coeff):
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
        tgt = basis.lookup(occ[alive])
        assert np.all(tgt >= 0)
        self.rows.append(tgt)
        self.cols.append(np.nonzero(alive)[0])
        self.vals.append(amp[alive])

    def build(self):
        """X's entries summed per position in the order collected, then
        X_ij + X_ji at each position; exact zeros dropped."""
        D = len(self.basis)
        x = fock._coalesce(list(zip(self.rows, self.cols, self.vals)), D)
        rows, cols, vals = fock._coalesce([x, (x[1], x[0], x[2])], D)
        keep = vals != 0.0
        return SparseSymmetricOperator(rows[keep], cols[keep], vals[keep], D)


def monomial_class(ops):
    """(creators, annihilators), each descending."""
    cre = tuple(sorted((m for m, kind in ops if kind > 0), reverse=True))
    ann = tuple(sorted((m for m, kind in ops if kind < 0), reverse=True))
    return cre, ann


def ref_assemble(basis, terms, diagonal=None, merged=False):
    """The unbuilt assembler of `terms`, each (ops, coeff) with ops
    [(mode, +1 for a+ | -1 for a)] in written order.  merged=True sums
    each monomial class's coefficients in term order and applies the
    classes in ascending order."""
    if merged:
        classes = {}
        for ops, coeff in terms:
            key = monomial_class(ops)
            classes[key] = classes.get(key, 0.0) + coeff
        terms = [([(m, +1) for m in cre] + [(m, -1) for m in ann], coeff)
                 for (cre, ann), coeff in sorted(classes.items())]
    asm = RefAssembler(basis)
    if diagonal is not None:
        asm.add_diagonal(diagonal)
    for ops, coeff in terms:
        asm.apply_term(ops, coeff)
    return asm


def g0_terms(modes, G):
    neg = modes.neg_index
    return [([(i, +1), (int(neg[i]), +1)], 0.5 * float(G[i]))
            for i in range(len(modes))]


def g1tilde_terms(rt):
    vecs = rt.modes.vectors
    lookup = {tuple(v): i for i, v in enumerate(vecs.tolist())}
    neg = rt.modes.neg_index
    pref = 1.0 / np.sqrt(rt.N)
    terms = []
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            s = vecs[i] + vecs[j]
            if not s.any():
                continue
            k = lookup.get(tuple(s), -1)
            if k < 0:
                continue
            base = pref * rt.v[i] * rt.c[k] * rt.c[i]
            terms.append(([(k, +1), (int(neg[i]), +1), (j, -1)], base * rt.c[j]))
            terms.append(([(k, +1), (int(neg[i]), +1), (int(neg[j]), +1)],
                          base * rt.s[j]))
    return terms


def g2_terms(rt):
    """Self-adjoint, so each term at half weight."""
    vecs = rt.modes.vectors
    lookup = {tuple(v): i for i, v in enumerate(vecs.tolist())}
    m = len(vecs)
    pref = 1.0 / (2.0 * rt.N)
    terms = []
    for ip in range(m):
        for ipr in range(m):
            r = vecs[ipr] - vecs[ip]
            if not r.any():
                continue
            vr = float(rt.value_at(r[None, :])[0])
            for iq in range(m):
                s = vecs[iq] + r
                if not s.any():
                    continue
                iqr = lookup.get(tuple(s), -1)
                if iqr < 0:
                    continue
                coeff = pref * vr * rt.c[ipr] * rt.c[iq] * rt.c[ip] * rt.c[iqr]
                terms.append(
                    ([(ipr, +1), (iq, +1), (ip, -1), (iqr, -1)], 0.5 * coeff)
                )
    return terms


def ref_G0(basis, F, G, merged=False):
    diagonal = basis.occ.astype(float) @ np.asarray(F, dtype=float)
    return ref_assemble(basis, g0_terms(basis.modes, G), diagonal,
                        merged).build()


def ref_G1tilde(basis, rt, merged=False):
    return ref_assemble(basis, g1tilde_terms(rt), merged=merged).build()


def ref_G2(basis, rt, merged=False):
    return ref_assemble(basis, g2_terms(rt), merged=merged).build()


class TestBasis:
    def test_single_pair(self):
        b = build_basis(mode_set([(1, 0, 0), (-1, 0, 0)]), 4)
        assert len(b) == 3
        assert b.occ.tolist() == [[0, 0], [1, 1], [2, 2]]

    def test_empty_modes_vacuum_only(self):
        assert len(build_basis(mode_set([]), 5)) == 1

    def test_first_shell_vs_exhaustive(self):
        modes = shell_modes(1)
        n_max = 4
        b = build_basis(modes, n_max)
        vecs = modes.vectors
        count = 0
        for occ in itertools.product(range(n_max + 1), repeat=len(modes)):
            if sum(occ) > n_max:
                continue
            if not np.any(np.array(occ) @ vecs):
                count += 1
        assert len(b) == count

    def test_momentum_constraint_holds(self):
        b = build_basis(mode_set(CLOSED_SET), 5)
        mom = b.occ.astype(np.int64) @ b.modes.vectors
        assert not mom.any()

    def test_dimension_limit(self, monkeypatch):
        monkeypatch.setattr(fock, "DIM_LIMIT", 100)
        with pytest.raises(BasisTooLarge):
            build_basis(shell_modes(2), 9)

    def test_dimension_limit_on_the_joined_sector(self, monkeypatch):
        # each three-mode half holds C(43, 3) = 12,341 occupations at cap
        # 40, the sector 12,453 states
        modes = mode_set(CLOSED_SET)
        monkeypatch.setattr(fock, "DIM_LIMIT", 12_453)
        assert len(build_basis(modes, 40)) == 12_453
        monkeypatch.setattr(fock, "DIM_LIMIT", 12_452)
        with pytest.raises(BasisTooLarge):
            build_basis(modes, 40)
        monkeypatch.setattr(fock, "DIM_LIMIT", 12_340)
        with pytest.raises(BasisTooLarge):
            build_basis(modes, 40)

    @pytest.mark.parametrize("vectors", [
        [], [(1, 0, 0), (-1, 0, 0)], CLOSED_SET,
        shell_modes(1).vectors.tolist(), shell_modes(2).vectors.tolist(),
    ], ids=["empty", "pair", "closed", "shell1", "shell2"])
    def test_matches_depth_first_reference(self, vectors):
        modes = mode_set(vectors)
        for n_max in range(7):
            b = build_basis(modes, n_max)
            ref = ref_basis_occ(modes, n_max)
            assert b.occ.dtype == np.uint8
            assert np.array_equal(b.occ, ref), n_max
            assert np.array_equal(b.lookup(ref), np.arange(len(ref)))

    def test_closed_set_at_cap_40(self):
        b = build_basis(mode_set(CLOSED_SET), 40)
        assert len(b) == 12_453
        assert not (b.occ.astype(np.int64) @ b.modes.vectors).any()
        assert b.occ.sum(axis=1, dtype=np.int64).max() <= 40
        # rows, and so their keys, strictly ascending: the first nonzero
        # difference between neighbours is positive
        diff = b.occ[1:].astype(np.int64) - b.occ[:-1]
        lead = diff[np.arange(len(diff)), np.argmax(diff != 0, axis=1)]
        assert np.all(lead > 0)
        assert np.array_equal(b.lookup(b.occ), np.arange(len(b)))
        # the keys are int64 ranks below C(n_max + m, m), at most either
        # half's count squared, so at most DIM_LIMIT^2 < 2^63
        assert b.keys.dtype == np.int64
        assert b.keys.max() < math.comb(46, 6) <= math.comb(43, 3) ** 2
        assert math.comb(43, 3) <= fock.DIM_LIMIT and fock.DIM_LIMIT ** 2 < 2**63

    def test_ranks_count_occupations_in_lexicographic_order(self):
        for n_max in range(6):
            rows = np.array([r for r in itertools.product(range(n_max + 1),
                                                          repeat=4)
                             if sum(r) <= n_max], dtype=np.uint8)
            assert np.array_equal(fock._ranks(rows, n_max),
                                  np.arange(math.comb(n_max + 4, 4)))

    def test_lookup_misses_rows_above_the_cap(self):
        # zero-momentum rows of totals 5 to 8, and every mode at 255: none
        # is a state at cap 4, however the count past the cap wraps
        modes = mode_set(CLOSED_SET)
        above = build_basis(modes, 8).occ
        rows = np.concatenate([above[above.sum(axis=1) > 4],
                               np.full((1, len(modes)), 255, dtype=np.uint8)])
        assert np.all(build_basis(modes, 4).lookup(rows) == -1)

    def test_lookup_misses_rows_of_nonzero_momentum(self):
        modes = mode_set(CLOSED_SET)
        b = build_basis(modes, 4)
        rows = np.array(list(itertools.product(range(5), repeat=len(modes))),
                        dtype=np.uint8)
        rows = rows[rows.sum(axis=1) <= 4]
        moving = (rows.astype(np.int64) @ modes.vectors).any(axis=1)
        assert np.all(b.lookup(rows[moving]) == -1)
        assert np.array_equal(b.lookup(rows[~moving]), np.arange(len(b)))

    def test_momentum_codes_cannot_overflow(self):
        # the join's keys stay below radix^3 (n_max + 1) / 2, radix =
        # 2 n_max max|n_c| + 1: at cap 4 within int64 for |n_c| = 2^17,
        # not for 2^28
        pair = mode_set([(2**17, 0, 0), (-2**17, 0, 0)])
        assert build_basis(pair, 4).occ.tolist() == [[0, 0], [1, 1], [2, 2]]
        with pytest.raises(BasisTooLarge):
            build_basis(mode_set([(2**28, 0, 0), (-2**28, 0, 0)]), 4)

    def test_huge_components_refused_by_name(self):
        # int64 squares wrap above |n_c| = 2^31.5, so (2^40, 0, 0) would
        # read as the zero mode, and 2^70 is no int64 at all
        for c in (2**40, 2**70):
            with pytest.raises(ValueError, match=f"mode \\(-{c}, 0, 0\\)"):
                mode_set([(c, 0, 0), (-c, 0, 0)])
        big = 2**31 - 1  # |n|^2 = 3 big^2 exceeds int64, not uint64
        modes = mode_set([(big,) * 3, (-big,) * 3, (1, 0, 0), (-1, 0, 0)])
        assert modes.vectors[:, 0].tolist() == [-1, 1, -big, big]

    def test_mode_cap(self):
        with pytest.raises(BasisTooLarge):
            shell_modes(6)  # 123 modes

    def test_deterministic_order(self):
        a = build_basis(mode_set(CLOSED_SET), 6)
        b = build_basis(mode_set(CLOSED_SET), 6)
        assert np.array_equal(a.occ, b.occ)

    def test_row_ids_rank_rows_lexicographically(self):
        rows = np.array([[0, -1, 2], [-2, 5, -1], [0, -1, 2], [-1, -1, -1],
                         [3, -7, 0], [-2, 4, 9], [-1, -1, -1], [0, -1, -2]])
        ranked = sorted(set(map(tuple, rows.tolist())))
        assert _row_ids(rows).tolist() == [ranked.index(r)
                                           for r in map(tuple, rows.tolist())]
        assert _row_ids(np.zeros((0, 3), dtype=np.int64)).tolist() == []

    def test_negation_index(self):
        modes = mode_set(CLOSED_SET)
        assert np.array_equal(modes.vectors[modes.neg_index], -modes.vectors)
        with pytest.raises(ValueError, match="negation"):
            mode_set([(1, 0, 0), (-1, 0, 0), (0, 1, 0)])


class TestQuadratic:
    def test_diagonal_when_unpaired(self):
        modes = shell_modes(1)
        b = whole_basis(modes, 3)
        F = 1.0 + np.arange(len(modes), dtype=float)
        g0 = build_G0(b, F, np.zeros(len(modes)))
        dense = g0.toarray()
        assert np.array_equal(np.diag(np.diag(dense)), dense)
        assert np.allclose(np.diag(dense), b.occ.astype(float) @ F)

    def test_vacuum_expectation_zero(self):
        modes = mode_set(CLOSED_SET)
        b = whole_basis(modes, 4)
        g0 = build_G0(b, np.ones(len(modes)) * 2.0, np.ones(len(modes)) * 0.5)
        assert g0.toarray()[b.vacuum_index, b.vacuum_index] == 0.0

    def test_two_mode_closed_form(self):
        b = whole_basis(mode_set([(1, 0, 0), (-1, 0, 0)]), 40)
        g0 = build_G0(b, np.array([5.0, 5.0]), np.array([3.0, 3.0]))
        lam, vec = ground_state(g0)
        assert abs(lam - (-1.0)) <= 1e-10

    def test_two_mode_monotone_from_above(self):
        F = np.array([5.0, 5.0])
        G = np.array([3.0, 3.0])
        pair = mode_set([(1, 0, 0), (-1, 0, 0)])
        vals = []
        for n_max in (4, 8, 16, 32):
            lam, _ = ground_state(build_G0(whole_basis(pair, n_max), F, G))
            vals.append(lam)
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(v >= -1.0 - 1e-12 for v in vals)

    def test_exact_symmetry(self):
        modes = mode_set(CLOSED_SET)
        b = whole_basis(modes, 6)
        rng = np.random.default_rng(2)
        F = 1.0 + rng.random(len(modes))
        G = rng.normal(size=len(modes)) * 0.4
        # pairing coefficients must be even in the mode
        G = 0.5 * (G + G[modes.neg_index])
        F = 0.5 * (F + F[modes.neg_index])
        g0 = build_G0(b, F, G)
        assert symmetry_defect(g0) == 0.0


class TestGroundState:
    def test_diagonal(self):
        op = SparseSymmetricOperator.from_dense(np.diag([3.0, -2.0, 7.0]))
        lam, vec = ground_state(op)
        assert lam == pytest.approx(-2.0, abs=1e-14)
        assert abs(vec[1]) == pytest.approx(1.0)

    def test_offdiagonal_2x2(self):
        op = SparseSymmetricOperator.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        lam, _ = ground_state(op)
        assert lam == pytest.approx(-1.0, abs=1e-14)

    def test_residual_contract(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(40, 40))
        A = (A + A.T) / 2
        op = SparseSymmetricOperator.from_dense(A)
        lam, vec = ground_state(op)
        scale = np.max(np.abs(A))
        assert np.linalg.norm(A @ vec - lam * vec) <= 1e-12 * scale
        assert lam == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-12 * scale)

    def test_failed_factorization_raises(self):
        # a NaN entry stops the solve before any block is diagonalized
        op = SparseSymmetricOperator.from_dense(np.array([[np.nan, 1.0], [1.0, 3.0]]))
        with pytest.raises(EigenNonConvergence):
            ground_state(op)

    def test_infinite_entry_raises(self):
        op = SparseSymmetricOperator.from_dense(np.array([[np.inf, 1.0], [1.0, 3.0]]))
        with pytest.raises(EigenNonConvergence):
            ground_state(op)

    def test_one_by_one(self):
        lam, vec = ground_state(SparseSymmetricOperator.from_dense([[2.5]]))
        assert lam == 2.5
        assert vec.tolist() == [1.0]

    def test_ground_state_in_last_component(self, monkeypatch):
        # three components in index order, by Gershgorin bound: the second
        # (bound -4, lowest level -2.24) is diagonalized first, the third
        # (bound -3.5, lowest level -3.22) holds the ground state, and the
        # first (bound 9) lies above it and is never diagonalized
        factored = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: factored.append(len(a)) or eigh(a))
        skipped = np.array([[10.0, 1.0], [1.0, 10.0]])
        visited = np.array([[-1.0, 3.0], [3.0, 5.0]])
        ground = np.array([[-3.0, 0.5, 0.0], [0.5, -2.0, 0.5], [0.0, 0.5, -1.0]])
        A = np.zeros((7, 7))
        A[:2, :2], A[2:4, 2:4], A[4:, 4:] = skipped, visited, ground
        # interleave the states so no component is a contiguous range
        perm = np.array([4, 0, 2, 5, 1, 3, 6])
        A = A[np.ix_(perm, perm)]
        lam, vec = ground_state(SparseSymmetricOperator.from_dense(A))
        ref = np.linalg.eigvalsh(A)
        assert lam == pytest.approx(ref[0], abs=1e-14)
        assert np.linalg.norm(A @ vec - lam * vec) <= 1e-13
        outside = ~np.isin(perm, [4, 5, 6])
        assert np.all(vec[outside] == 0.0)
        assert factored == [2, 3]
        # the visited component holds the second level overall
        assert ref[0] < -3.2 and -2.25 < ref[1] < -2.24

    def test_closed_set_at_reference_coupling(self, pot_ref, lat6):
        # at cap 24 (D = 1,995) Lanczos for the smallest eigenvalue of G0
        # stops on the first excited level (E0 = 78.96 against -5.8e-19)
        # with a residual that passes: a residual check alone cannot tell
        # the levels apart, so this guards against any solver that stops
        # on an excited level
        tables = tables_of(solve(pot_ref, lat6, N=10**4, beta=0.75))
        for row in run_oracle(tables, mode_set(CLOSED_SET), [9, 24]).rows:
            assert row.rel_gaps[-1] <= 1e-12, row.name
        # the sector solves see the whole basis's levels
        assert_sector_matches_whole_space(
            restrict_tables(tables, mode_set(CLOSED_SET)), 24)

    @pytest.mark.parametrize("name, n_max", [
        ("G0", 5), ("G0", 6), ("rotated", 5), ("rotated", 6), ("coupled", 5),
    ])
    def test_matches_dense_at_oracle_coupling(self, rt_oracle, name, n_max):
        # G0 and the rotated-vacuum form split into many components; the
        # coupled G0 + G1tilde + G2 is one block (345 states at cap 5)
        rt = rt_oracle
        basis = whole_basis(rt.modes, n_max)
        if name == "rotated":
            theta = rt.eta + rt.tau
            op = build_G0(basis, np.ones(len(rt.modes)), -np.tanh(2.0 * theta))
        else:
            op = build_G0(basis, rt.F, rt.G)
        if name == "coupled":
            op = SparseSymmetricOperator.from_dense(
                op.toarray() + build_G1tilde(basis, rt).toarray()
                + build_G2(basis, rt).toarray())
        dense = op.toarray()
        scale = max(1.0, np.max(np.abs(dense)))
        lam, vec = ground_state(op)
        assert lam == pytest.approx(np.linalg.eigvalsh(dense)[0],
                                    abs=1e-12 * scale)
        assert np.linalg.norm(dense @ vec - lam * vec) <= 1e-12 * scale


@pytest.fixture(scope="module")
def tables_oracle():
    """The oracle-fock coupling: kappa 1000, beta 0.75, R 0.25, K = 8 pi."""
    sol = solve(Potential(kappa=1000.0, R=0.25), enumerate_lattice(TWO_PI * 4),
                N=3000, beta=0.75)
    return tables_of(sol)


@pytest.fixture(scope="module")
def rt_oracle(tables_oracle):
    """The oracle-fock coupling on the 18 modes |n|^2 <= 2."""
    return restrict_tables(tables_oracle, shell_modes(2))


class TestRsPt2:
    def test_zero_perturbation(self):
        b = whole_basis(mode_set([(1, 0, 0), (-1, 0, 0)]), 6)
        g0 = build_G0(b, np.array([2.0, 2.0]), np.array([0.5, 0.5]))
        e0, gs = ground_state(g0)
        zero = SparseSymmetricOperator.from_dense(np.zeros((len(b), len(b))))
        assert rs_pt2(g0, zero, e0, gs) == 0.0

    def test_two_level_textbook(self):
        delta, g = 1.7, 0.23
        g0 = SparseSymmetricOperator.from_dense(np.diag([0.0, delta]))
        v = SparseSymmetricOperator.from_dense(np.array([[0.0, g], [g, 0.0]]))
        e0, gs = ground_state(g0)
        assert rs_pt2(g0, v, e0, gs) == pytest.approx(-g * g / delta, rel=1e-12)

    def test_always_nonpositive(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            A = rng.normal(size=(25, 25))
            A = A + A.T
            B = rng.normal(size=(25, 25))
            B = B + B.T
            g0 = SparseSymmetricOperator.from_dense(A)
            v = SparseSymmetricOperator.from_dense(B)
            e0, gs = ground_state(g0)
            assert rs_pt2(g0, v, e0, gs) <= 0.0

    @pytest.mark.filterwarnings("error")
    def test_level_at_e0_raises(self):
        # the second state is its own component, with the ground energy
        g0 = SparseSymmetricOperator.from_dense(np.diag([0.0, 0.0]))
        v = SparseSymmetricOperator.from_dense(np.array([[0.0, 0.3], [0.3, 0.0]]))
        e0, gs = ground_state(g0)
        with pytest.raises(EigenNonConvergence):
            rs_pt2(g0, v, e0, gs)

    @pytest.mark.filterwarnings("error")
    def test_nan_perturbation_raises(self):
        g0 = SparseSymmetricOperator.from_dense(np.diag([0.0, 1.7]))
        v = SparseSymmetricOperator.from_dense(
            np.array([[0.0, np.nan], [np.nan, 0.0]]))
        e0, gs = ground_state(g0)
        with pytest.raises(EigenNonConvergence):
            rs_pt2(g0, v, e0, gs)

    @staticmethod
    def assert_matches_dense(g0, v):
        """rs_pt2 against -w^T pinv(G0 - E0) w, gs0's level removed, from
        one eigh of the whole dense G0.  The bound is the residual gate's,
        |w| rtol max(1, |w|) / (smallest kept gap), plus the reference's
        rounding, D eps (spread / gap) sum |terms|."""
        e0, gs = ground_state(g0)
        val = rs_pt2(g0, v, e0, gs)
        w = v @ gs
        w = w - (gs @ w) * gs
        lam, U = np.linalg.eigh(g0.toarray())
        kept = np.arange(len(lam)) != np.argmax(np.abs(U.T @ gs))
        gap = lam[kept] - e0
        terms = (U[:, kept].T @ w) ** 2 / gap
        ref = -terms.sum()
        wn = np.linalg.norm(w)
        bound = wn * fock._PT2_RTOL * max(1.0, wn) / gap.min()
        bound += len(lam) * np.finfo(float).eps * (
            gap.max() / gap.min()) * np.abs(terms).sum()
        assert abs(val - ref) <= bound
        return gs, w

    @pytest.mark.parametrize("n_max", [5, 6])
    def test_matches_dense_at_oracle_coupling(self, rt_oracle, n_max):
        basis = whole_basis(rt_oracle.modes, n_max)
        g0 = build_G0(basis, rt_oracle.F, rt_oracle.G)
        gs, w = self.assert_matches_dense(g0, build_G1tilde(basis, rt_oracle))
        comp = _components(g0.rows, g0.cols, g0.dim)
        reached = np.unique(comp[w != 0])
        assert len(reached) > 1
        assert comp[np.argmax(np.abs(gs))] not in reached

    def test_matches_dense_interleaved_components(self):
        # state i in component i % 3; V couples every pair of states,
        # inside gs0's component too
        rng = np.random.default_rng(24)
        label = np.arange(24) % 3
        A = rng.normal(size=(24, 24))
        A = (A + A.T) * (label[:, None] == label[None, :])
        B = rng.normal(size=(24, 24))
        g0 = SparseSymmetricOperator.from_dense(A)
        gs, w = self.assert_matches_dense(
            g0, SparseSymmetricOperator.from_dense(B + B.T))
        comp = _components(g0.rows, g0.cols, g0.dim)
        assert np.array_equal(comp, label)
        assert np.array_equal(np.unique(comp[w != 0]), [0, 1, 2])

def components_reference(rows, cols, dim):
    """Each node's component, numbered by np.unique over the least node
    of each, by union-find with the lesser root kept."""
    root = list(range(dim))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for r, c in zip(rows.tolist(), cols.tolist()):
        a, b = find(r), find(c)
        root[max(a, b)] = min(a, b)
    return np.unique([find(i) for i in range(dim)], return_inverse=True)[1]


class TestComponents:
    @pytest.mark.parametrize("dim, edges", [
        (1, 0), (1, 1), (9, 4), (40, 25), (40, 60), (300, 200), (300, 900),
    ])
    def test_random_symmetric_graphs(self, dim, edges):
        # self-loops, repeated edges and isolated nodes included
        rng = np.random.default_rng(dim * 1000 + edges)
        i, j = rng.integers(0, dim, size=(2, edges))
        rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        assert np.array_equal(_components(rows, cols, dim),
                              components_reference(rows, cols, dim))

    @pytest.mark.parametrize("dim, gens", [(1, 1), (12, 1), (200, 1), (200, 2),
                                           (500, 3)])
    def test_permutation_graphs(self, dim, gens):
        # each node joined to its images under a few permutations, as
        # `_orbits` joins each state to its images under the generators
        rng = np.random.default_rng(dim + gens)
        images = np.stack([rng.permutation(dim) for _ in range(gens)])
        rows = np.repeat(np.arange(dim), gens)
        cols = images.T.ravel()
        assert np.array_equal(_components(rows, cols, dim),
                              components_reference(rows, cols, dim))


EPS = np.finfo(float).eps


def row_norm(op: SparseSymmetricOperator) -> float:
    """max_i sum_j |A_ij|, at least the spectral norm of a symmetric A."""
    return float(np.max(np.bincount(op.rows, np.abs(op.vals), minlength=op.dim)))


def eig_gate(op: SparseSymmetricOperator) -> float:
    """The residual bound `ground_state` guarantees on op."""
    return fock._EIG_RTOL * max(1.0, float(np.max(np.abs(op.vals), initial=0.0)))


def spectral_gap(op: SparseSymmetricOperator) -> float:
    """The lowest level of op to its next, from every component's dense
    spectrum."""
    comp = _components(op.rows, op.cols, op.dim)
    levels = np.sort(np.concatenate(
        [fock._block(op, comp, c)[1] for c in range(comp.max() + 1)]))
    return float(levels[1] - levels[0])


def assert_sector_matches_whole_space(rt, n_max):
    """`oracle._fock_values` (every solve in the trivial sector) against
    the same four targets solved on the whole basis, within bounds that
    follow from the solvers' gates alone.

    `ground_state` guarantees |A v - lam v| <= r = _EIG_RTOL max(1,
    max |A_ij|) for each operator A it solves, and `rs_pt2` guarantees
    |(G0 - E0) y - w| <= rho = _PT2_RTOL max(1, |w|).  A sector vector u
    lifts to v = P u, P's columns the orbit states; A P = P A_sector
    when A commutes with the maps, so the lift keeps the norm and the
    residual.  With Delta the gap from the lowest level of the whole
    operator to its next, for the sector (s) and whole (w) solves:
      - E0: each level lies within r of the lowest level, so the two
        differ by at most r_s + r_w;
      - each vector lies within e = sqrt(2) r / (Delta - r) of the ground
        state (Davis-Kahan, signs aligned), so an expectation of B moves
        by at most 2 b (e_s + e_w), with b = max_i sum_j |B_ij| >= |B|;
      - rs_pt2: w = Q V v moves by at most 3 |V| |dv|, E0 by r, and the
        reduced resolvent is at most 1/Delta, so each value lies within
        |V|^2 (6 e / Delta + 2 r / Delta^2) + |V| rho / Delta of the
        exact one, |w| <= |V| <= row_norm(V).
    Rounding adds D eps |value's scale| to each of the two values: b for
    an expectation, |V|^2 (2 row_norm(G0)) / Delta^2 for rs_pt2.
    """
    sector = _fock_values(rt, n_max)[0]
    labelled = build_basis(rt.modes, n_max)
    basis = whole_basis(rt.modes, n_max)
    D = len(basis)
    g0 = build_G0(basis, rt.F, rt.G)
    e0, gs = ground_state(g0)
    g1 = build_G1tilde(basis, rt)
    g2 = build_G2(basis, rt)
    theta = rt.eta + rt.tau
    rotated = (np.ones(len(rt.modes)), -np.tanh(2.0 * theta))
    gd = build_G0(basis, *rotated)
    _, gsd = ground_state(gd)
    whole = (e0, rs_pt2(g0, g1, e0, gs), float(gs @ (g2 @ gs)),
             float(gsd @ (basis.occ.sum(axis=1) * gsd)))

    r0 = [eig_gate(g0), eig_gate(build_G0(labelled, rt.F, rt.G))]
    rd = [eig_gate(gd), eig_gate(build_G0(labelled, *rotated))]
    delta0, deltad = spectral_gap(g0), spectral_gap(gd)
    e_0 = [np.sqrt(2.0) * r / (delta0 - r) for r in r0]
    e_d = [np.sqrt(2.0) * r / (deltad - r) for r in rd]
    V, b2 = row_norm(g1), row_norm(g2)
    rho = fock._PT2_RTOL * max(1.0, V)
    tol = (
        sum(r0),
        sum(V * V * (6.0 * e / delta0 + 2.0 * r / delta0**2) + V * rho / delta0
            for e, r in zip(e_0, r0))
        + 2 * D * EPS * V * V * 2.0 * row_norm(g0) / delta0**2,
        2.0 * b2 * sum(e_0) + 2 * D * EPS * b2,
        2.0 * n_max * sum(e_d) + 2 * D * EPS * n_max,
    )
    for name, s, w, t in zip(("E0", "pt2", "g2", "depletion"), sector, whole, tol):
        assert abs(s - w) <= t, (name, s, w, t)


class TestSector:
    @pytest.mark.parametrize("vectors, count", [
        ([], 1), ([(1, 0, 0), (-1, 0, 0)], 2), (NEGATION_ONLY_SET, 2),
        (CLOSED_SET, 4), (shell_modes(1).vectors, 48),
        (shell_modes(2).vectors, 48), (shell_modes(3).vectors, 48),
    ], ids=["empty", "pair", "negation", "closed", "shell1", "shell2", "shell3"])
    def test_maps_are_the_cubic_symmetries_of_the_set(self, vectors, count):
        modes = mode_set(vectors)
        vecs = modes.vectors
        maps = fock._symmetry_maps(vecs)
        assert len(maps) == count
        assert maps[0].tolist() == list(range(len(modes)))
        assert any(np.array_equal(g, modes.neg_index) for g in maps)
        # every signed axis permutation, applied one vector at a time
        where = {tuple(v): i for i, v in enumerate(vecs.tolist())}
        induced = set()
        for axes in itertools.permutations(range(3)):
            for signs in itertools.product((1, -1), repeat=3):
                image = [tuple(signs[k] * v[axes[k]] for k in range(3))
                         for v in vecs.tolist()]
                if all(t in where for t in image):
                    induced.add(tuple(where[t] for t in image))
        assert set(map(tuple, maps.tolist())) == induced
        # the generators give back every map
        group = {tuple(range(len(modes)))}
        new = group
        while new:
            new = {tuple(np.asarray(a)[g]) for a in new
                   for g in modes.generators.tolist()} - group
            group |= new
        assert group == set(map(tuple, maps.tolist()))

    @pytest.mark.parametrize("vectors", [
        [], NEGATION_ONLY_SET, CLOSED_SET, shell_modes(1).vectors,
        shell_modes(2).vectors, shell_modes(3).vectors,
    ], ids=["empty", "negation", "closed", "shell1", "shell2", "shell3"])
    @pytest.mark.parametrize("n_max", [2, 4])
    def test_generator_labels_match_all_maps(self, vectors, n_max):
        basis = build_basis(mode_set(vectors), n_max)
        D = len(basis)
        # the least index over each state's images under every map
        images = np.stack([basis.lookup(basis.occ[:, g])
                           for g in fock._symmetry_maps(basis.modes.vectors)])
        assert np.all(images >= 0)
        least = images.min(axis=0)
        first = np.full(basis.orbit.max() + 1, D)
        np.minimum.at(first, basis.orbit, np.arange(D))
        assert np.array_equal(first[basis.orbit], least)
        # orbits are numbered in order of their first state
        assert np.all(np.diff(first) > 0)

    @pytest.mark.parametrize("vectors", [
        NEGATION_ONLY_SET, CLOSED_SET, shell_modes(2).vectors,
    ], ids=["negation", "closed", "shell2"])
    def test_number_operator_constant_on_orbits(self, vectors):
        basis = build_basis(mode_set(vectors), 6)
        total = basis.occ.sum(axis=1, dtype=np.int64)
        size = np.bincount(basis.orbit)
        lo = np.full(len(size), 10**9)
        hi = np.full(len(size), -1)
        np.minimum.at(lo, basis.orbit, total)
        np.maximum.at(hi, basis.orbit, total)
        assert np.array_equal(lo, hi)

    @pytest.mark.parametrize("build", [
        lambda basis, rt: build_G0(basis, rt.F, rt.G), build_G1tilde, build_G2,
    ], ids=["G0", "G1tilde", "G2"])
    def test_projection_is_the_exactly_symmetric_compression(self, build):
        # the sector build against P^T A P, A the whole-basis build and
        # P's columns the normalized orbit indicators, on synthetic
        # tables at cap 6 of the closed set (4 maps), the negation-only
        # set (2) and the 18-mode shell set (48); each sector entry sums
        # X's entries over at most s^2 positions (s the largest orbit)
        # and the transposed ones, the dense product D terms
        for vectors in CLOSED_SET, NEGATION_ONLY_SET, shell_modes(2).vectors:
            rt = synthetic_tables(vectors)
            basis = build_basis(rt.modes, 6)
            whole = build(whole_basis(rt.modes, 6), rt).toarray()
            proj = build(basis, rt)
            size = np.bincount(basis.orbit)
            P = np.zeros((len(basis), len(size)))
            P[np.arange(len(basis)), basis.orbit] = 1.0 / np.sqrt(
                size[basis.orbit])
            ref = P.T @ whole @ P
            scale = P.T @ np.abs(whole) @ P
            dense = proj.toarray()
            assert np.array_equal(dense, dense.T)
            assert np.all(np.abs(dense - ref)
                          <= (len(basis) + size.max() ** 2) * EPS * scale)
            assert symmetry_defect(proj) == 0.0
            assert len(size) < len(basis)

    @pytest.mark.parametrize("nsq_max, counts", [
        (2, [18, 240, 1_458]), (3, [26, 528, 4_970]),
    ], ids=["shell2", "shell3"])
    @pytest.mark.parametrize("kind", ["oracle", "synthetic"])
    def test_term_lists_are_permuted_by_every_map(
            self, tables_oracle, monkeypatch, kind, nsq_max, counts):
        # The one assumption of `_assemble`'s single pass over the
        # representatives: every map g of the orbits permutes the terms
        # each builder writes, slot-sorted, with bitwise-equal
        # coefficients, so X commutes with g.  G0's diagonal occ @ F
        # needs F constant on the orbits.
        modes = shell_modes(nsq_max)
        rt = (restrict_tables(tables_oracle, modes) if kind == "oracle"
              else synthetic_tables(modes.vectors))
        calls = []
        monkeypatch.setattr(fock, "_assemble",
                            lambda basis, *terms, diagonal=None:
                            calls.append(terms))
        basis = build_basis(modes, 2)
        build_G0(basis, rt.F, rt.G)
        build_G1tilde(basis, rt)
        build_G2(basis, rt)

        def canonical(create, annihilate, coeff):
            """The terms as sorted rows: creators and annihilators
            descending, then the coefficient's bits."""
            bits = np.ascontiguousarray(coeff, dtype=float).view(np.int64)
            key = np.concatenate([-np.sort(-create, axis=1),
                                  -np.sort(-annihilate, axis=1),
                                  bits[:, None]], axis=1)
            return key[np.lexsort(key.T[::-1])]

        maps = fock._symmetry_maps(modes.vectors)
        assert len(maps) == 48
        for create, annihilate, coeff in calls:
            terms = canonical(create, annihilate, coeff)
            for g in maps:
                image = [np.where(x >= 0, g[x], -1) for x in (create, annihilate)]
                assert np.array_equal(canonical(*image, coeff), terms)
        for g in maps:
            assert np.array_equal(rt.F[g], rt.F)
        assert [len(coeff) for *_, coeff in calls] == counts

    # The representative build rests on X commuting with every map g, and
    # so Y = X + X^T: g permutes each builder's terms, and the
    # coefficients of a term and of its image are bitwise equal
    # (`test_term_lists_are_permuted_by_every_map`): both tables are
    # constant on each cubic orbit and each coefficient is one product in
    # a fixed order.  So Y[g a, g b] and Y[a, b] round the same exact sum
    # of contributions c_t sqrt(n_1) ... sqrt(n_q), and by
    # `test_term_by_term_within_rounding`'s count each lies within
    # gamma_{k+12} sum_t |c_t prod_t| of it.  G0's diagonal, occ @ F,
    # is a dot product over m modes that g reorders, within gamma_m of
    # occ @ |F| (F > 0).  With n = k + 16 + m, covering the rounding of
    # the computed absolute sum as well, the two entries differ by at
    # most 2 gamma_n times that sum.
    @pytest.mark.parametrize("channel", ["G0", "G1tilde", "G2"])
    @pytest.mark.parametrize("kind", ["oracle", "synthetic"])
    def test_whole_basis_operators_commute_with_every_map(
            self, tables_oracle, kind, channel):
        modes = shell_modes(2)
        rt = (restrict_tables(tables_oracle, modes) if kind == "oracle"
              else synthetic_tables(modes.vectors))
        b = whole_basis(modes, 6)
        D, m = b.occ.shape
        diag = None
        if channel == "G0":
            op, terms = build_G0(b, rt.F, rt.G), g0_terms(modes, rt.G)
            diag = b.occ.astype(float) @ rt.F
        elif channel == "G1tilde":
            op, terms = build_G1tilde(b, rt), g1tilde_terms(rt)
        else:
            op, terms = build_G2(b, rt), g2_terms(rt)
        asm = ref_assemble(b, [(ops, abs(c)) for ops, c in terms], diag)
        rows, cols = np.concatenate(asm.rows), np.concatenate(asm.cols)
        k = np.unique(np.concatenate([rows * D + cols, cols * D + rows]),
                      return_counts=True)[1].max()
        u = EPS / 2
        n = k + 16 + m
        bound = 2 * n * u / (1 - n * u) * asm.build().toarray()
        dense = op.toarray()
        assert op.nnz > 0
        maps = fock._symmetry_maps(modes.vectors)
        assert len(maps) == 48
        for g in maps:
            perm = b.lookup(b.occ[:, g])
            assert np.array_equal(np.sort(perm), np.arange(D))
            assert np.all(np.abs(dense[np.ix_(perm, perm)] - dense) <= bound)

    @pytest.mark.parametrize("vectors, n_max", [
        (shell_modes(2).vectors, 5), (shell_modes(2).vectors, 6),
        (NEGATION_ONLY_SET, 6),
    ], ids=["shell2-5", "shell2-6", "negation-6"])
    def test_sector_equals_whole_space(self, tables_oracle, vectors, n_max):
        rt = restrict_tables(tables_oracle, mode_set(vectors))
        assert_sector_matches_whole_space(rt, n_max)

    def test_run_oracle_traced_peak(self, tables_oracle):
        # tracemalloc peak of the oracle-fock run (caps 5 and 6): 0.67 MB
        # with the basis enumerated on integer codes and ranks, 1.22 MB
        # with each operator built from one representative per orbit,
        # 2.32 MB with every basis state's entries summed onto the
        # sector, 3.57 MB when assembled on the whole basis and
        # projected, 4.09 MB with every solve on the whole basis.  Bound
        # fixed beforehand.
        peak = traced_peak(run_oracle, tables_oracle, shell_modes(2), [5, 6])
        assert peak < 1.0e6

    def test_build_basis_traced_peak(self):
        # build_basis at cap 10 of the 18 modes (38,370 states): 9.58 MB
        # on momentum codes and int64 ranks with one half-sector listing,
        # 22.36 MB with (S, 3) momenta, void keys and the join's arrays
        # alive while the orbits are labelled.  Bound fixed beforehand.
        assert traced_peak(build_basis, shell_modes(2), 10) < 16e6

    def test_build_G2_traced_peak(self, rt_oracle):
        # build_G2 on the 67-state sector at cap 6: 0.62 MB when the 67
        # representatives are screened, 2.26 MB when every one of the
        # 1,040 basis states is.  Bound fixed beforehand.
        basis = build_basis(rt_oracle.modes, 6)
        assert traced_peak(build_G2, basis, rt_oracle) < 1.2e6

    def test_orderings_are_stable(self, monkeypatch):
        # every ordering in the Fock basis and its operators is numpy's
        # stable one (np.lexsort is stable): the oracle at the oracle-fock
        # seed-101 coupling, 18 modes at caps 5 and 6, with np.unique,
        # np.sort and np.argsort raising unless kind="stable", equals the
        # unpatched run
        cfg = parse_config({"N": 2227, "beta": 0.75, "kappa": 1000.0,
                            "R": 0.25, "cutoff_K_over_2pi": 4,
                            "cutoff_K2_over_2pi": 2})
        tables, _ = run_tables(cfg, cfg.N)
        expected = run_oracle(tables, shell_modes(2), [5, 6])

        def stable_only(fn):
            def ordered(*args, **kwargs):
                if kwargs.get("kind") != "stable":
                    raise AssertionError(f"np.{fn.__name__} without a stable kind")
                return fn(*args, **kwargs)
            return ordered

        for name in ("unique", "sort", "argsort"):
            monkeypatch.setattr(np, name, stable_only(getattr(np, name)))
        assert run_oracle(tables, shell_modes(2), [5, 6]) == expected

    def test_oracle_sector_tool(self):
        # `tools/oracle_sector.py` on its first row, the 18 modes at cap
        # 5; ROADMAP's table records E0 and pt2 differences of 3.9e-16
        # and 4.8e-16.  Bound fixed beforehand, a sector that missed a
        # state would move E0 at the 1e-3 level
        path = Path(__file__).resolve().parents[1] / "tools" / "oracle_sector.py"
        spec = importlib.util.spec_from_file_location("oracle_sector", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        cfg = parse_config(tool.COUPLING)
        tables, _ = run_tables(cfg, cfg.N)
        row = tool.sector_row(restrict_tables(tables, shell_modes(2)), 5)
        assert row[:3] == ["18, 5", "345", "25"]
        for diff in row[3:5]:
            assert float(diff) <= 1e-12


class TestCubicChannel:
    def test_zero_coupling_zero_matrix(self):
        rt = synthetic_tables(CLOSED_SET)
        rt = RestrictedTables(
            modes=rt.modes, N=rt.N, v=np.zeros_like(rt.v), c=rt.c, s=rt.s,
            ct=rt.ct, st=rt.st, F=rt.F, G=rt.G, e=rt.e, eta=rt.eta,
            tau=rt.tau, value_at=lambda t: np.zeros(np.asarray(t).shape[:-1]),
        )
        b = whole_basis(rt.modes, 5)
        g1 = build_G1tilde(b, rt)
        assert g1.nnz == 0
        assert build_G2(b, rt).nnz == 0

    def test_vacuum_diagonal_zero(self):
        rt = synthetic_tables(CLOSED_SET)
        b = whole_basis(rt.modes, 5)
        g1 = build_G1tilde(b, rt)
        assert g1.toarray()[b.vacuum_index, b.vacuum_index] == 0.0

    def test_vacuum_column_pure_triples(self):
        rt = synthetic_tables(CLOSED_SET)
        b = whole_basis(rt.modes, 5)
        g1 = build_G1tilde(b, rt)
        col = g1.toarray()[:, b.vacuum_index]
        occ_tot = b.occ.sum(axis=1)
        assert np.all(occ_tot[np.nonzero(col)[0]] == 3)

    def test_vacuum_amplitude_is_six_f(self):
        # tau = 0 isolates the plain-hyperbolic vertex: the amplitude on a
        # distinct triple equals 6 f(p, q)/sqrt(N)
        from bosegas.fock import _f_restricted

        rt = synthetic_tables(CLOSED_SET, tau_scale=0.0)
        b = whole_basis(rt.modes, 5)
        g1 = build_G1tilde(b, rt)
        col = g1.toarray()[:, b.vacuum_index]
        vecs = rt.modes.vectors.tolist()
        i_p, i_q, i_k = vecs.index([1, 0, 0]), vecs.index([0, 1, 0]), vecs.index([1, 1, 0])
        occ = np.zeros(len(rt.modes), dtype=np.uint8)
        neg = rt.modes.neg_index
        occ[i_k] += 1
        occ[neg[i_p]] += 1
        occ[neg[i_q]] += 1
        idx = b.lookup(occ[None, :])[0]
        f = _f_restricted(rt, np.array([[i_p, i_q, i_k]]))[0]
        assert col[idx] == pytest.approx(6.0 * f / math.sqrt(rt.N), rel=1e-13)

    def test_first_shell_has_no_triples(self):
        rt = synthetic_tables([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                               (0, 0, 1), (0, 0, -1)])
        b = whole_basis(rt.modes, 5)
        g1 = build_G1tilde(b, rt)
        assert g1.nnz == 0
        assert restricted_e_pert_tilde(rt) == 0.0


class TestQuarticChannel:
    def test_vacuum_expectation_zero(self):
        rt = synthetic_tables(CLOSED_SET)
        b = whole_basis(rt.modes, 5)
        g2 = build_G2(b, rt)
        assert g2.toarray()[b.vacuum_index, b.vacuum_index] == 0.0

    def test_exact_symmetry(self):
        rt = synthetic_tables(CLOSED_SET)
        b = whole_basis(rt.modes, 6)
        assert symmetry_defect(build_G2(b, rt)) == 0.0
        assert symmetry_defect(build_G1tilde(b, rt)) == 0.0


class TestOperator:
    @pytest.mark.parametrize("channel", ["G0", "G1tilde", "G2"])
    def test_matvec_matches_dense(self, channel):
        rt = synthetic_tables(shell_modes(2).vectors.tolist())
        b = whole_basis(rt.modes, 6)
        op = {
            "G0": lambda: build_G0(b, rt.F, rt.G),
            "G1tilde": lambda: build_G1tilde(b, rt),
            "G2": lambda: build_G2(b, rt),
        }[channel]()
        x = np.random.default_rng(5).normal(size=len(b))
        dense = op.toarray()
        assert op.nnz == np.count_nonzero(dense) > 0
        got = op @ x
        np.testing.assert_allclose(got, dense @ x, rtol=0,
                                   atol=1e-13 * np.abs(dense).sum(axis=1).max())
        # each row summed in column order, as the CSR product does
        assert np.array_equal(got, sp.csr_matrix(dense) @ x)

    def test_from_dense_round_trip(self):
        A = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, -1.0], [2.0, -1.0, 3.0]])
        op = SparseSymmetricOperator.from_dense(A)
        assert op.nnz == 6
        assert np.array_equal(op.toarray(), A)
        assert np.array_equal(op.diagonal(), np.diag(A))
        assert symmetry_defect(op) == 0.0

    def test_symmetry_defect_of_a_nonsymmetric_matrix(self):
        A = np.array([[1.0, 0.5, 0.0], [0.25, 0.0, 0.0], [2.0, 0.0, 3.0]])
        assert symmetry_defect(SparseSymmetricOperator.from_dense(A)) == 2.0


class TestAssemblyReference:
    """Screened assembly against the loop that applies each term over the
    whole basis: bitwise equal to it once it merges monomial classes the
    same way, within a rounding bound of it term by term."""

    @staticmethod
    def assert_same(new, ref):
        assert new.dim == ref.dim
        assert new.vals.dtype == ref.vals.dtype
        assert np.array_equal(new.rows, ref.rows)
        assert np.array_equal(new.cols, ref.cols)
        assert np.array_equal(new.vals, ref.vals)

    # the closed set at cap 9 reaches occupations at which the order of
    # the sqrt factors shows in the last bit; block=1 screens one class
    # per block, so every class starts a block
    @pytest.mark.parametrize("vectors,n_max,block", [
        (shell_modes(2).vectors.tolist(), 5, None),
        (shell_modes(2).vectors.tolist(), 6, None),
        (CLOSED_SET, 9, None),
        (shell_modes(2).vectors.tolist(), 5, 1),
        (CLOSED_SET, 9, 1),
    ], ids=["shell2-5", "shell2-6", "closed-9", "shell2-5-block1",
            "closed-9-block1"])
    def test_operators_bitwise_equal(self, vectors, n_max, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(fock, "_BLOCK", block)
        rt = synthetic_tables(vectors)
        b = whole_basis(rt.modes, n_max)
        self.assert_same(build_G0(b, rt.F, rt.G),
                         ref_G0(b, rt.F, rt.G, merged=True))
        self.assert_same(build_G1tilde(b, rt), ref_G1tilde(b, rt, merged=True))
        self.assert_same(build_G2(b, rt), ref_G2(b, rt, merged=True))

    # Both sides sum the same products c_t sqrt(n_1) ... sqrt(n_q), q <= 4,
    # in different orders.  Against the exact sum, a product carries 2q <= 8
    # roundings, a merged class coefficient at most 5 additions (a class
    # holds at most 6 terms: the slot orders of a+ a+ a+), and a position
    # of X + X^T at most k - 1 additions of its k contributions.  So each
    # side lies within gamma_{k+12} sum_t |c_t prod_t| of the exact value,
    # gamma_n = n u / (1 - n u) with u = 2^-53; n = k + 16 also covers the
    # rounding of the computed absolute sum.
    @pytest.mark.parametrize("vectors,n_max", [
        (shell_modes(2).vectors.tolist(), 5),
        (shell_modes(2).vectors.tolist(), 6),
        (CLOSED_SET, 9),
    ], ids=["shell2-5", "shell2-6", "closed-9"])
    def test_term_by_term_within_rounding(self, vectors, n_max):
        rt = synthetic_tables(vectors)
        b = whole_basis(rt.modes, n_max)
        D = len(b)
        diagonal = b.occ.astype(float) @ rt.F
        u = np.finfo(float).eps / 2
        for new, ref, terms, diag in [
            (build_G0(b, rt.F, rt.G), ref_G0(b, rt.F, rt.G),
             g0_terms(rt.modes, rt.G), np.abs(diagonal)),
            (build_G1tilde(b, rt), ref_G1tilde(b, rt), g1tilde_terms(rt), None),
            (build_G2(b, rt), ref_G2(b, rt), g2_terms(rt), None),
        ]:
            assert np.array_equal(new.rows, ref.rows)
            assert np.array_equal(new.cols, ref.cols)
            # the same contributions, each at its absolute value
            asm = ref_assemble(b, [(ops, abs(c)) for ops, c in terms], diag)
            rows, cols = np.concatenate(asm.rows), np.concatenate(asm.cols)
            k = np.unique(np.concatenate([rows * D + cols, cols * D + rows]),
                          return_counts=True)[1].max()
            absolute = asm.build().toarray()[ref.rows, ref.cols]
            n = k + 16
            gamma = n * u / (1 - n * u)
            assert np.all(np.abs(new.vals - ref.vals) <= 2 * gamma * absolute)

    def test_monomial_class_invariance(self):
        # dyadic coefficients sum exactly, so a monomial written as its slot
        # permutations and its transpose builds the operator of one term
        b = whole_basis(shell_modes(2), 4)
        at = {tuple(v): i for i, v in enumerate(b.modes.vectors.tolist())}
        x, y, z, w, xy, nx, ny = (at[v] for v in [
            (1, 0, 0), (0, 1, 0), (1, 0, -1), (0, 1, 1), (1, 1, 0),
            (-1, 0, 0), (0, -1, 0)])

        def built(create, annihilate, coeff):
            return _assemble(b, np.array(create), np.array(annihilate),
                             np.array(coeff))

        split = [0.5, -0.25, 1.0, 0.125, 2.0, -0.75, 0.0625, 0.5, 0.375]
        # a+_x a+_y a_z a_w (x + y = z + w), its swaps and its transpose
        quartic = built(
            [[x, y], [y, x], [x, y], [y, x], [z, w], [w, z], [z, w], [w, z]],
            [[z, w], [z, w], [w, z], [w, z], [x, y], [x, y], [y, x], [y, x]],
            split[:8],
        )
        assert quartic.nnz > 0
        for one in ([[x, y]], [[z, w]]), ([[z, w]], [[x, y]]):
            self.assert_same(quartic, built(*one, [sum(split[:8])]))
        # a+_{x+y} a+_{-x} a_y with an empty creator slot anywhere
        cubic = built([[xy, nx, -1], [nx, xy, -1], [-1, xy, nx]],
                      [[y], [y], [y]], split[:3])
        assert cubic.nnz > 0
        self.assert_same(cubic, built([[xy, nx, -1]], [[y]], [sum(split[:3])]))
        # a+_{x+y} a+_{-x} a+_{-y} in all six slot orders
        triple = built([list(p) for p in itertools.permutations([xy, nx, ny])],
                       np.full((6, 1), -1), split[:6])
        assert triple.nnz > 0
        self.assert_same(triple, built([[xy, nx, ny]], [[-1]], [sum(split[:6])]))

    def test_momentum_violation_raises(self):
        # a+_x a+_x takes the vacuum to total momentum 2x
        b = whole_basis(mode_set([(1, 0, 0), (-1, 0, 0)]), 4)
        x = int(np.nonzero(b.modes.vectors[:, 0] == 1)[0][0])
        with pytest.raises(MomentumViolation):
            _assemble(b, np.array([[x, x]]), np.zeros((1, 0), dtype=np.int64),
                      np.array([1.0]))

    def test_no_terms_build_the_zero_operator(self):
        b = whole_basis(mode_set(CLOSED_SET), 4)
        none = np.zeros((0, 2), dtype=np.int64)
        op = _assemble(b, none, none, np.zeros(0))
        assert op.dim == len(b) > 1
        assert op.nnz == 0


@pytest.fixture(scope="module")
def rt():
    return synthetic_tables(CLOSED_SET)


class TestCentralIdentity:
    """Second-order perturbation against the closed forms, with real
    occupancy-cap convergence (synthetic squeezing is O(0.1))."""

    def test_monotone_convergence_to_closed_form(self, rt):
        target = restricted_e_pert_tilde(rt)
        gaps = []
        for n_max in (5, 7, 9, 11, 13):
            b = whole_basis(rt.modes, n_max)
            g0 = build_G0(b, rt.F, rt.G)
            e0, gs = ground_state(g0)
            g1 = build_G1tilde(b, rt)
            val = rs_pt2(g0, g1, e0, gs)
            gaps.append(abs(val - target) / abs(target))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-6

    def test_g2_expectation_converges(self, rt):
        target = restricted_g2_expectation(rt)
        gaps = []
        for n_max in (5, 9, 13):
            b = whole_basis(rt.modes, n_max)
            g0 = build_G0(b, rt.F, rt.G)
            _, gs = ground_state(g0)
            g2 = build_G2(b, rt)
            gaps.append(abs(float(gs @ (g2 @ gs)) - target) / abs(target))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] <= 1e-7

    def test_ground_energy_converges(self, rt):
        target = bogoliubov_ground_energy(rt)
        b = whole_basis(rt.modes, 13)
        lam, _ = ground_state(build_G0(b, rt.F, rt.G))
        assert abs(lam - target) <= 1e-7 * abs(target)

    def test_depletion_single_pair_oracle(self):
        # one pair with O(1) total squeezing against the additive formula
        rt = synthetic_tables([(1, 0, 0), (-1, 0, 0)], eta_scale=0.3,
                              tau_scale=0.1)
        target = depletion(rt)
        theta = rt.eta + rt.tau
        b = whole_basis(rt.modes, 40)
        gd = build_G0(b, np.ones(2), -np.tanh(2.0 * theta))
        _, gs = ground_state(gd)
        nval = float(gs @ (b.occ.sum(axis=1) * gs))
        assert abs(nval - target) <= 1e-9


class TestRestrictedPhysical:
    def test_restriction_matches_full_tables(self, tables_small):
        modes = shell_modes(2)
        rt = restrict_tables(tables_small, modes)
        lat = tables_small.lattice
        for m, vec in enumerate(modes.vectors):
            i = int(lat.lookup(vec))
            assert rt.eta[m] == tables_small.sol.eta[i]
            assert rt.F[m] == tables_small.F[i]
            assert rt.st[m] == tables_small.st[i]

    def test_mode_set_outside_ball_rejected(self, tables_first_shell):
        from bosegas.errors import InconsistentLattice

        with pytest.raises(InconsistentLattice):
            restrict_tables(tables_first_shell, mode_set([(4, 0, 0), (-4, 0, 0)]))
