"""Workload definitions: generated configs and output gates.

Each workload runs one `bosegas` subcommand on a config generated from the
seed.  A gate returns None when the output is correct and a one-line
reason when it is not.

Why these two: the pipeline spends its time in places that do not
overlap, so a gain in one must not hide a loss in another.

- energy-ref: the pinned reference point (N=1e4, beta=0.75, kappa=0.1,
  R=0.25, K=40pi, K2=20pi; M=33,400, M2=4,168).  About 90% of the wall
  time is the e_pert_tilde / e01 / g2_expectation pair sums; the
  scattering solve (a 121^3 FFT grid, 2 iterations), the lattice
  enumeration and the table build take the rest.  Fixed for every seed
  so the gate can compare against tests/data/reference_report.json.
- oracle-fock: `oracle` at K=8pi (M=256, tables cost nothing) with 18
  modes and occupancy caps 5 and 6 (Fock dimensions 345 and 1,040).
  Pure-Python basis recursion and operator assembly dominate; no pair sum
  and no large FFT runs.  One CLI run takes a few seconds, so a run of
  the benchmark holds many of them and their median is steady.

A third workload, a `scan` over seed-drawn N dominated by the
single-threaded FFT solve, was dropped: on a shared 2-core machine whose
speed drifts by up to 1.4x over minutes, its medians spread across runs
by more than the bound even at 36 s per run.  The scattering and lattice
layers stay measured on energy-ref.
"""

from __future__ import annotations

import csv
import json
import math
import random

REFERENCE_REPORT = "tests/data/reference_report.json"
# same skip list as tests/test_acceptance.py::test_reference_regression
REFERENCE_SKIP = ("t_scatter_ms", "t_sums_ms", "config_hash", "warnings",
                  "iterations")
REFERENCE_RTOL = 1e-9
REL_TOL_PERT = 1e-5
REL_TOL_G2 = 1e-6


def _log_uniform_n(rng: random.Random) -> int:
    """N drawn log-uniformly from [1e3, 1e4]; all of it runs in-regime."""
    return int(round(10.0 ** rng.uniform(3.0, 4.0)))


def energy_config(seed: int) -> dict:
    return {
        "N": 10000, "beta": 0.75, "kappa": 0.1, "R": 0.25,
        "cutoff_K_over_2pi": 20, "cutoff_K2_over_2pi": 10,
    }


def oracle_config(seed: int) -> dict:
    rng = random.Random(f"oracle-fock:{seed}")
    return {
        "N": _log_uniform_n(rng), "beta": 0.75, "kappa": 1000.0, "R": 0.25,
        "cutoff_K_over_2pi": 4, "cutoff_K2_over_2pi": 2,
        "oracle": {
            "modes": {"nsq_max": 2}, "n_max": [5, 6],
            "rel_tol_pert": REL_TOL_PERT, "rel_tol_g2": REL_TOL_G2,
        },
    }


def _rel_gap(got: float, ref: float) -> float:
    return abs(got - ref) / max(abs(ref), 1e-300)


def gate_energy(out_text: str, cfg: dict) -> str | None:
    """Every pinned field within 1e-9 relative of the reference record."""
    report = json.loads(out_text)
    with open(REFERENCE_REPORT, "r", encoding="utf-8") as fh:
        pinned = json.load(fh)
    for key, ref in pinned.items():
        if key in REFERENCE_SKIP:
            continue
        if key not in report:
            return f"field {key} missing from the report"
        gap = _rel_gap(float(report[key]), float(ref))
        if not gap <= REFERENCE_RTOL:
            return f"{key}: {report[key]} vs pinned {ref} (rel gap {gap:.3g})"
    return None


def gate_oracle(out_text: str, cfg: dict) -> str | None:
    """Largest-cap Fock value within the config's tolerances of the closed
    form: rel_tol_pert for E0 and e_pert_tilde, rel_tol_g2 for g2_expect."""
    rows = list(csv.reader(
        ln for ln in out_text.splitlines()
        if ln.strip() and not ln.startswith("#")
    ))
    header = rows[0]
    last_cap = f"fock_n{cfg['oracle']['n_max'][-1]}"
    table = {row[0]: row for row in rows[1:]}
    tols = {
        "E0": cfg["oracle"]["rel_tol_pert"],
        "e_pert_tilde": cfg["oracle"]["rel_tol_pert"],
        "g2_expect": cfg["oracle"]["rel_tol_g2"],
    }
    for name, tol in tols.items():
        if name not in table:
            return f"row {name} missing"
        closed = float(table[name][header.index("closed_form")])
        fock = float(table[name][header.index(last_cap)])
        if not (math.isfinite(closed) and math.isfinite(fock)):
            return f"{name}: non-finite value"
        gap = _rel_gap(fock, closed)
        if not gap <= tol:
            return f"{name}: Fock {fock} vs closed form {closed} " \
                   f"(rel gap {gap:.3g} > {tol})"
    return None


# name -> (subcommand, config generator, output gate)
WORKLOADS = {
    "energy-ref": ("energy", energy_config, gate_energy),
    "oracle-fock": ("oracle", oracle_config, gate_oracle),
}
