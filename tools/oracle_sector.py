#!/usr/bin/env python3
"""Print the Fock oracle's symmetry-sector table as a markdown table.

    PYTHONPATH=src python tools/oracle_sector.py

One row per mode set and occupancy cap: the 18 modes |n|^2 <= 2 at caps
5 and 6, and the 26 modes |n|^2 <= 3 at caps 5, 6 and 7.  Columns: the
basis dimension D, the trivial-sector dimension, the relative
differences of E0 and of the second-order cubic energy (`rs_pt2`)
between the sector and the whole-basis solves, and the sector's ground
energy of G0 + G1tilde + G2.  The whole basis is solved only where it
holds at most WHOLE_LIMIT states; elsewhere the differences read "-".

The coupling is that of the benchmark's `oracle_config(101)`: N = 2227,
kappa = 1000, beta = 0.75, R = 0.25, K = 8 pi, K2 = 4 pi.
"""

from bosegas.config import parse_config
from bosegas.fock import (
    SparseSymmetricOperator,
    build_basis,
    build_G0,
    build_G1tilde,
    build_G2,
    ground_state,
    restrict_tables,
    rs_pt2,
    shell_modes,
)
from bosegas.pipeline import run_tables

COUPLING = {"N": 2227, "beta": 0.75, "kappa": 1000.0, "R": 0.25,
            "cutoff_K_over_2pi": 4, "cutoff_K2_over_2pi": 2}
ROWS = [(2, 5), (2, 6), (3, 5), (3, 6), (3, 7)]   # (|n|^2 bound, cap)
WHOLE_LIMIT = 5_324


def _rel(got: float, ref: float) -> str:
    diff = abs(got - ref) / abs(ref)
    return "0" if diff == 0.0 else f"{diff:.1e}"


def sector_row(rt, n_max: int) -> list[str]:
    basis = build_basis(rt.modes, n_max)
    whole = (build_G0(basis, rt.F, rt.G), build_G1tilde(basis, rt),
             build_G2(basis, rt))
    g0, g1, g2 = (op.projected(basis.orbit) for op in whole)
    e0, gs = ground_state(g0)
    pt2 = rs_pt2(g0, g1, e0, gs)
    coupled, _ = ground_state(SparseSymmetricOperator.from_dense(
        g0.toarray() + g1.toarray() + g2.toarray()))
    diffs = ["-", "-"]
    if len(basis) <= WHOLE_LIMIT:
        w0, wgs = ground_state(whole[0])
        diffs = [_rel(e0, w0), _rel(pt2, rs_pt2(whole[0], whole[1], w0, wgs))]
    return [f"{len(rt.modes)}, {n_max}", f"{len(basis):,}", f"{g0.dim:,}",
            *diffs, f"{coupled:.12e}"]


def main():
    cfg = parse_config(COUPLING)
    tables, _ = run_tables(cfg, cfg.N)
    print("| modes, cap | D | sector | E0 rel. diff | pt2 rel. diff "
          "| ground of G0 + G1tilde + G2 |")
    print("|---|---|---|---|---|---|")
    for nsq_max, n_max in ROWS:
        rt = restrict_tables(tables, shell_modes(nsq_max))
        print("| " + " | ".join(sector_row(rt, n_max)) + " |", flush=True)


if __name__ == "__main__":
    main()
