"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Reference parameters unless a criterion states otherwise:
kappa = 0.1, R = 0.25, beta = 0.75, tol = 1e-11, K = 40 pi, K2 = 20 pi.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from bosegas import scattering
from bosegas.config import parse_config
from bosegas.corrections import assemble_report
from bosegas.fock import (
    build_basis,
    build_G0,
    ground_state,
    mode_set,
    restrict_tables,
    restricted_e_pert_tilde,
    shell_modes,
)
from bosegas.lattice_potential import TWO_PI, Potential, enumerate_lattice
from bosegas.oracle import run_oracle
from bosegas.pipeline import run_pipeline
from bosegas.scattering import scattering_length
from bosegas.verify import run_verify

from conftest import solve, tables_of
from reference import dense_solve_eta, residual

REF_KAPPA = 0.1
REF_R = 0.25
REF_BETA = 0.75
REF_TOL = 1e-11
REF_N = 10**4
K_FULL = 40.0 * math.pi
K_HALF = 20.0 * math.pi

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}  {detail}")


@pytest.fixture(scope="module")
def ref_pot():
    return Potential(kappa=REF_KAPPA, R=REF_R)


@pytest.fixture(scope="module")
def ref_lattice():
    return enumerate_lattice(K_FULL)


@pytest.fixture(scope="module")
def ref_solution(ref_pot, ref_lattice):
    t0 = time.perf_counter()
    sol = solve(ref_pot, ref_lattice, REF_N, REF_BETA)
    return sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ref_tables(ref_solution):
    return tables_of(ref_solution[0])


@pytest.fixture(scope="module")
def scan_reports():
    reports = []
    for N in (10**3, 10**4, 10**5, 10**6):
        cfg = parse_config(
            {
                "N": N,
                "beta": 0.8,
                "kappa": REF_KAPPA,
                "R": REF_R,
                "cutoff_K_over_2pi": 20,
                "cutoff_K2_over_2pi": 10,
            }
        )
        reports.append(run_pipeline(cfg))
    return reports


def test_criterion_1_scattering_defect(ref_solution):
    # every solve of these criteria runs at the solver's own tolerance
    assert scattering.TOL == REF_TOL
    sol, elapsed = ref_solution
    res = residual(sol)
    ok = res <= 1e-10 and elapsed <= 30.0
    announce(1, "scattering defect", ok,
             f"residual={res:.3e} (<=1e-10), solve time={elapsed:.1f}s (<=30s)")
    assert res <= 1e-10
    assert elapsed <= 30.0


def test_criterion_2_dense_equivalence(ref_pot):
    t0 = time.perf_counter()
    worst = 0.0
    lattices = 0
    for nsq_max in (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12):
        lat = enumerate_lattice(TWO_PI * math.sqrt(nsq_max))
        if len(lat) > 200:
            continue
        lattices += 1
        sol = solve(ref_pot, lat, REF_N, REF_BETA)
        dense = dense_solve_eta(ref_pot, lat, REF_N, REF_BETA)
        worst = max(worst, float(np.max(np.abs(np.repeat(sol.eta, lat.size) - dense))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 1.0
    announce(2, "dense-solve equivalence", ok,
             f"{lattices} lattices, worst gap={worst:.3e} (<=1e-9), "
             f"time={elapsed:.2f}s (<=1s)")
    assert worst <= 1e-9
    assert elapsed <= 1.0


def test_criterion_3_born2_scattering_length(ref_lattice):
    t0 = time.perf_counter()
    coef = {}
    for kappa in (1e-2, 1e-3):
        pot = Potential(kappa=kappa, R=REF_R)
        sol = solve(pot, ref_lattice, REF_N, REF_BETA)
        a = scattering_length(sol)
        born2 = sol.lattice.total(sol.table.values**2 / sol.lattice.psq) / (2.0 * REF_N)
        coef[kappa] = (
            (pot.vhat0 - 8.0 * math.pi * a) / kappa**2,
            born2 / kappa**2,
        )
    elapsed = time.perf_counter() - t0
    x1, b1 = coef[1e-2]
    x2, b2 = coef[1e-3]
    drift = abs(x1 - x2) / abs(x2)
    gap1 = abs(x1 - b1) / abs(b1)
    gap2 = abs(x2 - b2) / abs(b2)
    ok = drift <= 0.01 and gap1 <= 0.01 and gap2 <= 0.01 and elapsed <= 10.0
    announce(3, "second Born coefficient", ok,
             f"kappa-drift={drift:.2e}, gaps=({gap1:.2e}, {gap2:.2e}) "
             f"(<=1e-2), time={elapsed:.1f}s (<=10s)")
    assert drift <= 0.01 and gap1 <= 0.01 and gap2 <= 0.01
    assert elapsed <= 10.0


def test_criterion_4_two_mode_oracle():
    t0 = time.perf_counter()
    basis = build_basis(mode_set([(1, 0, 0), (-1, 0, 0)]), 40)
    F, G = 5.0, 3.0
    g0 = build_G0(basis, np.array([F, F]), np.array([G, G]))
    lam, _ = ground_state(g0)
    expected = -F + math.sqrt(F * F - G * G)
    gap = abs(lam - expected)
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-9 and elapsed <= 1.0
    announce(4, "two-mode quadratic oracle", ok,
             f"|E - (-F+sqrt(F^2-G^2))|={gap:.3e} (<=1e-9), "
             f"time={elapsed:.2f}s (<=1s)")
    assert gap <= 1e-9
    assert elapsed <= 1.0


def test_criterion_5_perturbation_identity(ref_tables):
    t0 = time.perf_counter()
    sweeps = (5, 7, 9)

    # literal first shell: no momentum-conserving triple exists inside it,
    # so the cubic block must vanish identically on both routes
    shell1 = shell_modes(1)
    rt1 = restrict_tables(ref_tables, shell1)
    assert restricted_e_pert_tilde(rt1) == 0.0
    rows1 = {r.name: r for r in run_oracle(ref_tables, shell1, sweeps).rows}
    assert all(v == 0.0 for v in rows1["e_pert_tilde"].fock_values)
    assert rows1["e_pert_tilde"].final_gap == 0.0
    g2_gap_shell1 = rows1["g2_expect"].final_gap

    # triple-closed companion set exercises the identity nontrivially
    closed = mode_set([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                       (1, 1, 0), (-1, -1, 0)])
    rows2 = {r.name: r for r in run_oracle(ref_tables, closed, sweeps).rows}
    pert = rows2["e_pert_tilde"]
    assert pert.closed_form < 0.0
    gaps = pert.rel_gaps
    floor = 1e-8  # occupancy tails are below rounding at physical coupling
    monotone = all(b <= a or b <= floor for a, b in zip(gaps, gaps[1:]))
    pert_gap = pert.final_gap
    g2_gap_closed = rows2["g2_expect"].final_gap
    elapsed = time.perf_counter() - t0
    ok = (monotone and pert_gap <= 1e-5
          and g2_gap_shell1 <= 1e-6 and g2_gap_closed <= 1e-6
          and elapsed <= 300.0)
    announce(5, "central perturbation identity", ok,
             f"pert gaps={['%.2e' % g for g in gaps]} (final <=1e-5), "
             f"g2 gaps shell1={g2_gap_shell1:.2e} closed={g2_gap_closed:.2e} "
             f"(<=1e-6), time={elapsed:.0f}s (<=300s)")
    assert monotone
    assert pert_gap <= 1e-5
    assert g2_gap_shell1 <= 1e-6
    assert g2_gap_closed <= 1e-6
    assert elapsed <= 300.0


def test_criterion_6_scaling_exponents(scan_reports):
    t0 = time.perf_counter()
    beta = 0.8
    logn = np.log10([r.N for r in scan_reports])
    slopes = {}
    for name, values in (("E_corr", [r.E_corr for r in scan_reports]),
                         ("E01", [r.E01.value for r in scan_reports])):
        y = np.log10(np.abs(values))
        slopes[name] = float(np.polyfit(logn, y, 1)[0])
    lo, hi = beta - 1.0 - 0.05, beta - 1.0 + 0.05
    ok = all(lo <= s <= hi for s in slopes.values())
    announce(6, "scaling exponents", ok,
             f"slope(E_corr)={slopes['E_corr']:.4f}, "
             f"slope(E01)={slopes['E01']:.4f}, window=[{lo:.2f},{hi:.2f}]")
    assert lo <= slopes["E_corr"] <= hi
    assert lo <= slopes["E01"] <= hi
    assert time.perf_counter() - t0 <= 1200.0


def test_criterion_7_route_consistency(scan_reports):
    by_n = {r.N: r for r in scan_reports}
    r3, r5 = by_n[10**3], by_n[10**5]
    decreasing = r5.route_discrepancy < r3.route_discrepancy
    ratio3 = r3.route_discrepancy / abs(r3.E_corr)
    ratio5 = r5.route_discrepancy / abs(r5.E_corr)
    ok = decreasing and ratio3 < 10.0 and ratio5 < 10.0
    announce(7, "route consistency", ok,
             f"disc(1e3)={r3.route_discrepancy:.3e} ({ratio3:.1f}x E_corr), "
             f"disc(1e5)={r5.route_discrepancy:.3e} ({ratio5:.1f}x E_corr), "
             f"decreasing={decreasing}")
    assert decreasing
    assert ratio5 < 10.0
    # Budget at N=1e3: with eta solved on the r != 0 convention the routes
    # share, A - B is the vhat(0)-replacement remainder inside E00 (decays
    # like N^(-2 beta)) plus the part of E01 beyond K that route A's Born
    # closure carries and route B's ball sums cannot; about 5.6x E_corr.
    assert ratio3 < 10.0


def test_criterion_8_invariant_suite():
    t0 = time.perf_counter()
    cfg = parse_config({"N": REF_N, "beta": REF_BETA, "kappa": REF_KAPPA,
                        "R": REF_R})
    checks = run_verify(cfg)
    elapsed = time.perf_counter() - t0
    failed = [c.name for c in checks if not c.passed]
    needed = {
        "F_lower_bound", "pairing_ratio", "tau_identity",
        "e_pert_tilde_nonpositive", "rs_pt2_nonpositive",
        "deterministic_rerun",
    }
    names = {c.name for c in checks}
    ok = not failed and needed <= names and elapsed <= 120.0
    announce(8, "invariant suite", ok,
             f"{len(checks)} checks, failed={failed or 'none'}, "
             f"time={elapsed:.0f}s (<=120s)")
    assert needed <= names
    assert not failed
    assert elapsed <= 120.0


def test_criterion_9_zero_coupling_collapse():
    t0 = time.perf_counter()
    cfg = parse_config({"N": REF_N, "beta": REF_BETA, "kappa": 0.0,
                        "R": REF_R, "cutoff_K_over_2pi": 4,
                        "cutoff_K2_over_2pi": 2})
    rep = run_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    physics = (rep.a_box, rep.leading, rep.E00, rep.E01.value, rep.C1,
               rep.C2, rep.E_corr, rep.g2_expect, rep.e_pert_tilde.value,
               rep.E0, rep.C_const, rep.total_route_A, rep.total_route_B,
               rep.route_discrepancy, rep.depletion)
    ok = all(v == 0.0 for v in physics) and elapsed <= 1.0
    announce(9, "zero-coupling collapse", ok,
             f"max |column|={max(abs(v) for v in physics):.1e} (exact 0), "
             f"time={elapsed:.2f}s (<=1s)")
    assert all(v == 0.0 for v in physics)
    assert elapsed <= 1.0


def test_reference_regression(ref_tables):
    """Report at the reference configuration against the pinned record."""
    path = os.path.join(DATA_DIR, "reference_report.json")
    rep = assemble_report(ref_tables, K_HALF).flat()
    if not os.path.exists(path):
        pytest.fail("pinned reference record missing; regenerate with "
                    "tools/make_reference.py")
    with open(path, "r", encoding="utf-8") as fh:
        pinned = json.load(fh)
    worst = ("", 0.0)
    for key, val in pinned.items():
        if key in ("t_scatter_ms", "t_sums_ms", "config_hash", "warnings",
                   "iterations"):
            continue
        got = rep[key]
        ref = float(val)
        gap = abs(got - ref) / max(abs(ref), 1e-300)
        if gap > worst[1]:
            worst = (key, gap)
        assert gap <= 1e-9, f"{key}: {got!r} vs pinned {ref!r}"
    announce("R", "pinned reference regression", True,
             f"worst field {worst[0]} rel gap {worst[1]:.2e} (<=1e-9)")
