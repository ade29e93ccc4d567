"""Named invariant suite behind the `verify` subcommand.

Each check returns (name, passed, measured margin, detail).  Out-of-regime
inputs surface as named failing checks rather than crashes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bogoliubov import e00, e00_summand
from .config import RunConfig
from .corrections import assemble_report
from .errors import BosegasError, DiagonalizationFailure
from .fock import shell_modes
from .oracle import run_oracle
from .pipeline import run_pipeline, run_tables
from .reporting import render_csv_row
from .sums import det_sum


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    margin: float
    detail: str = ""


def _sym_gap(lattice, arr) -> float:
    return float(np.max(np.abs(arr - arr[lattice.negation_index()])))


def run_verify(cfg: RunConfig) -> list[Check]:
    checks: list[Check] = []
    try:
        tables, _ = run_tables(cfg, cfg.N)
    except DiagonalizationFailure as exc:
        checks.append(Check("diagonalizable", False, float("inf"), str(exc)))
        return checks
    except BosegasError as exc:
        checks.append(Check("pipeline", False, float("inf"), str(exc)))
        return checks
    checks.append(Check("diagonalizable", True, float(np.max(np.abs(tables.G / tables.F)))))

    lat = tables.lattice
    sol = tables.sol
    psq = lat.psq

    checks.append(
        Check("scattering_residual", sol.residual_norm <= cfg.tol,
              sol.residual_norm, f"tol {cfg.tol:g}")
    )
    checks.append(
        Check("eta_negation_symmetric", _sym_gap(lat, sol.eta) == 0.0,
              _sym_gap(lat, sol.eta))
    )
    tbl_gap = max(
        _sym_gap(lat, arr)
        for arr in (tables.s, tables.c, tables.F, tables.G, tables.tau, tables.e)
    )
    checks.append(Check("tables_negation_symmetric", tbl_gap == 0.0, tbl_gap))
    orbit_gap = max(
        lat.orbit_spread(arr)
        for arr in (sol.eta, tables.s, tables.c, tables.cs_conv, tables.F,
                    tables.G, tables.tau, tables.st, tables.ct, tables.e)
    )
    checks.append(
        Check("tables_cubic_symmetric", orbit_gap == 0.0, orbit_gap,
              "orbit-reduced e_pert_tilde relies on it")
    )

    hyp = float(np.max(np.abs(tables.c**2 - tables.s**2 - 1.0)))
    hyp_t = float(np.max(np.abs(tables.ct**2 - tables.st**2 - 1.0)))
    checks.append(Check("hyperbolic_identity", max(hyp, hyp_t) <= 1e-12, max(hyp, hyp_t)))

    f_margin = float(np.min(tables.F - 0.5 * psq))
    checks.append(Check("F_lower_bound", f_margin >= 0.0, f_margin))
    f_upper = float(np.max(tables.F / (1.0 + psq)))
    checks.append(
        Check("F_upper_bound", f_upper <= 100.0 * (1.0 + tables.table.at_zero),
              f_upper, "F <= c (1 + p^2)")
    )
    g_ratio = float(np.max(np.abs(tables.G / tables.F)))
    checks.append(Check("pairing_ratio", g_ratio <= 0.5, g_ratio, "|G|/F <= 1/2"))

    tau_id = float(np.max(np.abs(np.tanh(2.0 * tables.tau) + tables.G / tables.F)))
    checks.append(Check("tau_identity", tau_id <= 1e-12, tau_id))

    disp = float(np.min(tables.e / psq))
    checks.append(
        Check("dispersion_bound", disp >= np.sqrt(3.0) / 2.0 * (1.0 - 1e-12),
              disp, "e >= p^2 sqrt(3)/2")
    )

    report = assemble_report(tables, cfg.cutoff_K2)
    checks.append(
        Check("e_pert_tilde_nonpositive",
              report.e_pert_tilde <= 0.0 and report.e_pert_tilde_ball <= 0.0,
              report.e_pert_tilde)
    )
    if cfg.kappa > 0.0:
        checks.append(
            Check("corr_constant_positive", report.C_NB > 0.0, report.C_NB)
        )
        checks.append(Check("e_corr_negative", report.E_corr < 0.0, report.E_corr))
        a_gap = tables.table.at_zero - 8.0 * np.pi * report.a_box
        checks.append(
            Check("scattering_length_below_born0", a_gap > 0.0, a_gap,
                  "8 pi a < vhat(0)")
        )
    else:
        zero_cols = [
            report.a_box, report.leading, report.E00, report.E01, report.C1,
            report.C2, report.E_corr, report.g2_expect, report.e_pert_tilde,
            report.E0, report.C_const, report.total_route_A,
            report.total_route_B, report.depletion,
        ]
        checks.append(
            Check("zero_coupling_collapse", all(v == 0.0 for v in zero_cols),
                  max(abs(v) for v in zero_cols))
        )
    checks.append(Check("depletion_nonnegative", report.depletion >= 0.0,
                        report.depletion))

    # cubic second-order sign probe on |n|^2 <= 2 at cap 4, where triples
    # close (on the first shell none does, and pt2 is 0 for any vertex)
    probe = shell_modes(min(2, int(lat.nsq[-1])))
    rows = {r.name: r for r in run_oracle(tables, probe, [4])}
    pt2 = rows["e_pert_tilde"].fock_values[0]
    checks.append(
        Check("rs_pt2_nonpositive",
              pt2 < 0.0 if cfg.kappa > 0.0 else pt2 == 0.0, pt2)
    )

    # order independence of compensated sums
    fwd = e00(tables.table.at_zero, lat).value
    rev = 0.5 * det_sum(
        np.ascontiguousarray(e00_summand(psq, tables.table.at_zero)[::-1])
    )
    denom = max(abs(fwd), 1e-300)
    order_gap = abs(fwd - rev) / denom
    checks.append(Check("sum_order_independent", order_gap <= 1e-12, order_gap))

    # determinism: a fresh end-to-end run must reproduce the physics bit
    # for bit (wall-time columns excluded, they cannot be reproducible)
    report2 = run_pipeline(cfg)
    row1 = render_csv_row(report, physics_only=True)
    row2 = render_csv_row(report2, physics_only=True)
    checks.append(
        Check("deterministic_rerun", row1 == row2, 0.0 if row1 == row2 else 1.0)
    )
    return checks
