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
kappa = 1000, beta = 0.75, R = 0.25, K = 8 pi, K2 = 4 pi.  OpenBLAS
runs on one thread, as in the CLI: the differences' last digits move
with its thread count.
"""

import os

# set before numpy loads, as `bosegas.cli` does
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from bosegas.config import parse_config  # noqa: E402
from bosegas.fock import (  # noqa: E402
    FockBasis,
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
from bosegas.pipeline import run_tables  # noqa: E402

COUPLING = {"N": 2227, "beta": 0.75, "kappa": 1000.0, "R": 0.25,
            "cutoff_K_over_2pi": 4, "cutoff_K2_over_2pi": 2}
ROWS = [(2, 5), (2, 6), (3, 5), (3, 6), (3, 7)]   # (|n|^2 bound, cap)
WHOLE_LIMIT = 5_324


def _rel(got: float, ref: float) -> str:
    diff = abs(got - ref) / abs(ref)
    return "0" if diff == 0.0 else f"{diff:.1e}"


def sector_row(rt, n_max: int) -> list[str]:
    basis = build_basis(rt.modes, n_max)
    g0 = build_G0(basis, rt.F, rt.G)
    g1 = build_G1tilde(basis, rt)
    e0, gs = ground_state(g0)
    pt2 = rs_pt2(g0, g1, e0, gs)
    coupled, _ = ground_state(SparseSymmetricOperator.from_dense(
        g0.toarray() + g1.toarray() + build_G2(basis, rt).toarray()))
    diffs = ["-", "-"]
    if len(basis) <= WHOLE_LIMIT:
        # each state its own orbit: the operators on the whole basis
        whole = FockBasis(basis.modes, basis.n_max, basis.occ, basis.keys,
                          np.arange(len(basis)))
        w0 = build_G0(whole, rt.F, rt.G)
        e0w, wgs = ground_state(w0)
        diffs = [_rel(e0, e0w),
                 _rel(pt2, rs_pt2(w0, build_G1tilde(whole, rt), e0w, wgs))]
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
