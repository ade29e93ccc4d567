"""Closed-form versus Fock brute-force comparison harness.

For each tracked quantity the closed form is evaluated on the restricted
mode set and the Fock value is computed at every requested occupancy cap,
so convergence in the cap is demonstrated before any agreement is read
off.  The `E0` and `depletion` targets are the report's own
`bogoliubov_ground_energy` and `corrections.depletion` on the restricted
tables; the two pair sums keep the triples inside the mode set.  The
cubic identity needs momentum-conserving triples inside the mode set;
the first shell alone admits none (|n_1 + n_2| is never 1 for unit
vectors), in which case both sides are exactly zero, the row records
the degenerate agreement and `bosegas oracle` warns.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bogoliubov import BogoliubovTables, bogoliubov_ground_energy
from .corrections import depletion
from .errors import BasisTooLarge, RejectedConfig
from .fock import (
    ModeSet,
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


class OracleRow(NamedTuple):
    name: str
    closed_form: float
    fock_values: tuple
    rel_gaps: tuple

    @property
    def final_gap(self) -> float:
        return self.rel_gaps[-1]


def _gap(closed: float, fock: float) -> float:
    if closed == 0.0 and fock == 0.0:
        return 0.0
    return abs(fock - closed) / max(abs(closed), 1e-300)


def modes_from_config(cfg_oracle) -> ModeSet:
    try:
        if cfg_oracle.modes_vectors:
            return mode_set(cfg_oracle.modes_vectors)
        return shell_modes(cfg_oracle.modes_nsq_max)
    except (ValueError, BasisTooLarge) as exc:
        raise RejectedConfig(f"bad oracle mode set: {exc}") from exc


def run_oracle(
    tables: BogoliubovTables, modes: ModeSet, n_max_list
) -> list[OracleRow]:
    rt = restrict_tables(tables, modes)
    targets = {
        "E0": bogoliubov_ground_energy(rt),
        "e_pert_tilde": restricted_e_pert_tilde(rt),
        "g2_expect": restricted_g2_expectation(rt),
        "depletion": depletion(rt),
    }
    values = {name: [] for name in targets}
    theta = rt.eta + rt.tau
    for n_max in n_max_list:
        basis = build_basis(modes, int(n_max))
        g0 = build_G0(basis, rt.F, rt.G)
        e0, gs = ground_state(g0)
        values["E0"].append(e0)
        g1 = build_G1tilde(basis, rt)
        values["e_pert_tilde"].append(rs_pt2(g0, g1, e0, gs))
        g2 = build_G2(basis, rt)
        values["g2_expect"].append(float(gs @ (g2 @ gs)))
        # the doubly-rotated vacuum is the ground state of the quadratic
        # form with unit gap and pairing -tanh(2(eta + tau))
        gd = build_G0(basis, np.ones(len(modes)), -np.tanh(2.0 * theta))
        _, gsd = ground_state(gd)
        values["depletion"].append(float(gsd @ (basis.occ.sum(axis=1) * gsd)))
    rows = []
    for name, closed in targets.items():
        fock = tuple(values[name])
        rows.append(
            OracleRow(
                name=name,
                closed_form=closed,
                fock_values=fock,
                rel_gaps=tuple(_gap(closed, f) for f in fock),
            )
        )
    return rows
