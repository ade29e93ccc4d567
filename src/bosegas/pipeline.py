"""One full computation for a single particle number."""

from __future__ import annotations

import time

from .bogoliubov import build_tables
from .config import RunConfig
from .corrections import EnergyReport, assemble_report
from .lattice_potential import Potential, enumerate_lattice, scaled_table
from .scattering import make_convolver, solve_eta


def run_tables(cfg: RunConfig, N: int):
    pot = Potential(kappa=cfg.kappa, R=cfg.R)
    lattice = enumerate_lattice(cfg.cutoff_K)
    t0 = time.perf_counter()
    # the K ball's convolver: the solve's and the tables', and no longer
    # reachable once this returns
    convolve = make_convolver(scaled_table(pot, lattice, N, cfg.beta))
    sol = solve_eta(convolve)
    t_scatter = (time.perf_counter() - t0) * 1000.0
    return build_tables(sol, convolve), t_scatter


def run_pipeline(cfg: RunConfig, N: int | None = None) -> EnergyReport:
    tables, t_scatter = run_tables(cfg, N if N is not None else cfg.N)
    t0 = time.perf_counter()
    report = assemble_report(tables, cfg.cutoff_K2)
    t_sums = (time.perf_counter() - t0) * 1000.0
    return report._replace(t_scatter_ms=t_scatter, t_sums_ms=t_sums)
