"""Named invariant suite behind the `verify` subcommand.

Each check returns (name, passed, measured margin, detail).  Out-of-regime
inputs surface as named failing checks rather than crashes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import RunConfig
from .corrections import assemble_report
from .errors import BosegasError, DiagonalizationFailure
from .fock import shell_modes
from .oracle import run_oracle
from .pipeline import run_pipeline, run_tables


class Check(NamedTuple):
    name: str
    passed: bool
    margin: float
    detail: str = ""


def _tau_identity_eps(tables) -> float:
    """Largest |tanh(2 tau_p) + G_p/F_p| / (eps |G_p/F_p|) over the tables,
    eps = 2^-52; 0 where both are 0.

    `tau_table` takes g = G/F, rounded as here, and forms
    tau = (1/4) [log1p(-g) - log1p(g)].  With each library function within
    k ulp (at most k eps relative), the two logarithms have opposite signs,
    so their difference adds magnitudes and is within (k + 1/2) eps
    relative; the factors 1/4 and 2 are exact.  tanh has condition number
    2x / sinh(2x) <= 1, so tanh(2 tau) = -g (1 + d) with |d| <= (2k + 1/2)
    eps, and the final sum is exact (Sterbenz).  k = 4 covers glibc (under
    1 ulp) and the vectorised float64 routines NumPy may dispatch to, so a
    correct tau table stays within 8.5 eps |g|; the check allows 9, a half
    eps more for the second-order terms.
    """
    g = tables.G / tables.F
    res = np.abs(np.tanh(2.0 * tables.tau) + g)
    scale = np.finfo(float).eps * np.abs(g)
    ratio = np.divide(res, scale, out=np.where(res == 0.0, 0.0, np.inf),
                      where=scale > 0.0)
    return float(np.max(ratio))


def _sinh_identity_eps(tables) -> float:
    """Largest |2 st_p ct_p + G_p/e_p| (1 - g_p^2) / (eps |G_p/e_p|) over
    the tables, g = G/F and eps = 2^-52; 0 where both are 0.

    sinh(2 tau) = -G/e, as tanh(2 tau) = -G/F and e = sqrt(F^2 - G^2).
    In eps units, with k = 4 as in `_tau_identity_eps`: tau carries
    k + 1/2 from `tau_table` and 1/2 from rounding g, whose relative
    condition in sinh(2 tau) = -g / sqrt(1 - g^2) is 1 / (1 - g^2); the
    condition of sinh at x = 2|tau| is x coth x = atanh|g| / |g|, which
    is at most 1 / (1 - g^2).  sinh and cosh add k each and the product
    1/2 (the factor 2 is exact).  e = sqrt((F - G)(F + G)) is within
    (3/2) / 2 + 1/2 = 5/4 and G/e within 7/4, and the final sum is exact
    (Sterbenz).  So a correct table stays within 5 / (1 - g^2) + 10.25
    eps |G/e|, and the ratio, scaled by 1 - g^2 <= 1, within 15.25; the
    check allows 16, the rest for the second-order terms.  At |g| <= 1/2
    the unscaled bound is at most 16.9 eps |G/e|.
    """
    g = tables.G / tables.F
    ge = tables.G / tables.e
    res = np.abs(2.0 * tables.st * tables.ct + ge) * (1.0 - g * g)
    scale = np.finfo(float).eps * np.abs(ge)
    ratio = np.divide(res, scale, out=np.where(res == 0.0, 0.0, np.inf),
                      where=scale > 0.0)
    return float(np.max(ratio))


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
    psq = tables.lattice.psq

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

    tau_id = _tau_identity_eps(tables)
    checks.append(Check("tau_identity", tau_id <= 9.0, tau_id))
    sinh_id = _sinh_identity_eps(tables)
    checks.append(Check("sinh_identity", sinh_id <= 16.0, sinh_id))

    disp = float(np.min(tables.e / psq))
    checks.append(
        Check("dispersion_bound", bool(disp >= np.sqrt(3.0) / 2.0 * (1.0 - 1e-12)),
              disp, "e >= p^2 sqrt(3)/2")
    )

    report = assemble_report(tables, cfg.cutoff_K2)
    ept = report.e_pert_tilde
    checks.append(
        Check("e_pert_tilde_nonpositive",
              ept.value <= 0.0 and ept.ball <= 0.0, ept.value)
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
        # every computed field: the inputs, the iteration count, the
        # warnings and the wall times aside
        skip = ("N", "beta", "kappa", "R", "cutoff_K", "cutoff_K2",
                "iterations", "warnings", "t_scatter_ms", "t_sums_ms")
        zero_cols = [v for k, v in report.flat().items() if k not in skip]
        checks.append(
            Check("zero_coupling_collapse", all(v == 0.0 for v in zero_cols),
                  max(abs(v) for v in zero_cols))
        )
    checks.append(Check("depletion_nonnegative", report.depletion >= 0.0,
                        report.depletion))

    # cubic second-order sign probe on |n|^2 <= 2 at cap 4, where triples
    # close (on the first shell none does, and pt2 is 0 for any vertex);
    # K >= 2 K2 >= 4 pi holds that set
    probe = shell_modes(2)
    rows = {r.name: r for r in run_oracle(tables, probe, [4]).rows}
    pt2 = rows["e_pert_tilde"].fock_values[0]
    checks.append(
        Check("rs_pt2_nonpositive",
              pt2 < 0.0 if cfg.kappa > 0.0 else pt2 == 0.0, pt2)
    )

    # determinism: a fresh end-to-end run must reproduce every report
    # field bit for bit, the two wall times aside
    untimed = dict(t_scatter_ms=0.0, t_sums_ms=0.0)
    same = report._replace(**untimed) == run_pipeline(cfg)._replace(**untimed)
    checks.append(Check("deterministic_rerun", same, 0.0 if same else 1.0))
    return checks
