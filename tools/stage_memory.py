#!/usr/bin/env python3
"""Print the memory of each stage of one `energy` or `oracle` run as a
markdown table.

    PYTHONPATH=src python tools/stage_memory.py CONFIG.json

A config file with an `oracle` block stages the `oracle` command, any
other the `energy` run, `run_pipeline` on the config's first N.

Each `energy` stage is one function the pipeline calls: the lattice
enumeration, the scaled table, the convolver, the scattering solve and
`build_tables`, then each term `assemble_report` computes, in the order
of their first call.  A call made inside another stage belongs to that
stage.  Columns per stage: its calls; tracemalloc's peak during it and
what is still traced after it, both counted from the start of the run;
and the steps of VmHWM, RssAnon and RssFile in /proc/self/status across
it, summed over its calls (Linux only).  The last row is the whole run.
Tracemalloc's own tables are part of the resident set, so the RSS steps
read higher than in an untraced run.

The `oracle` stages are the mode set, the tables, `restrict_tables` and
the four closed forms, then for each cap `build_basis`, `build_G0`,
`ground_state`, `build_G1tilde`, `rs_pt2`, `build_G2` and the rotated
vacuum.  They run untraced, and each row holds the VmHWM, RssAnon and
RssFile steps alone: after the imports the resident set grows mostly by
code that numpy and LAPACK map on first use, which RssFile shows, each
page in the first stage that touches it.

OpenBLAS runs on one thread, as in the CLI.
"""

import os
import sys

# set before numpy loads, as `bosegas.cli` does
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import json  # noqa: E402
import tracemalloc  # noqa: E402
import types  # noqa: E402

from bosegas import corrections, oracle, pipeline  # noqa: E402
from bosegas.config import load_config  # noqa: E402
from bosegas.fock import _mode_pairs  # noqa: E402

STATUS_KEYS = ("VmHWM", "RssAnon", "RssFile")
MB = 1e6


def _status() -> list[float]:
    """VmHWM, RssAnon and RssFile of this process, in MB."""
    found = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in STATUS_KEYS:
                found[key] = int(rest.split()[0]) * 1024 / MB
    return [found[k] for k in STATUS_KEYS]


def _steps(before: list[float]) -> list[float]:
    """The steps of `_status()` since `before`."""
    return [a - b for a, b in zip(_status(), before)]


def _stage_functions() -> list[tuple[types.ModuleType, str]]:
    """Every bosegas function `run_pipeline` reaches through the
    `pipeline` and `corrections` namespaces, `assemble_report` aside."""
    out = []
    for mod in (pipeline, corrections):
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("bosegas.")
                    and name not in ("assemble_report", "run_pipeline",
                                     "run_tables")):
                out.append((mod, name))
    return out


def stage_rows(cfg) -> list[list]:
    """[stage, calls, peak MB, held MB, VmHWM, RssAnon, RssFile steps]
    for each stage of `run_pipeline(cfg)` in the order of first call,
    then a row for the whole run."""
    rows: dict[str, list] = {}
    depth = [0]

    def wrap(name, fn):
        def staged(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            before = _status()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                held, peak = tracemalloc.get_traced_memory()
                steps = _steps(before)
                row = rows.setdefault(name, [name, 0, 0.0, 0.0, 0.0, 0.0, 0.0])
                row[1] += 1
                row[2] = max(row[2], peak / MB)
                row[3] = held / MB
                for i, step in enumerate(steps):
                    row[4 + i] += step
                depth[0] -= 1
        return staged

    originals = _stage_functions()
    saved = [(mod, name, getattr(mod, name)) for mod, name in originals]
    for mod, name, fn in saved:
        setattr(mod, name, wrap(name, fn))
    tracemalloc.start()
    try:
        start = _status()
        pipeline.run_pipeline(cfg)
        held, peak = tracemalloc.get_traced_memory()
        # each stage resets the peak, so the run's is the largest seen
        peak = max([peak / MB] + [row[2] for row in rows.values()])
        whole = ["run_pipeline", 1, peak, held / MB]
        whole += _steps(start)
    finally:
        tracemalloc.stop()
        for mod, name, fn in saved:
            setattr(mod, name, fn)
    return list(rows.values()) + [whole]


# the functions `run_oracle` calls through the `oracle` namespace, each
# one stage; `_fock_values` runs once per cap and names its stages
ORACLE_STAGES = ("restrict_tables", "bogoliubov_ground_energy",
                 "restricted_e_pert_tilde", "restricted_g2_expectation",
                 "depletion", "build_basis", "build_G0", "ground_state",
                 "build_G1tilde", "rs_pt2", "build_G2", "_rotated_depletion")


def oracle_rows(cfg) -> list[list]:
    """[stage, VmHWM, RssAnon, RssFile steps] for each stage of the
    `oracle` command on cfg in call order, each cap's stages suffixed
    with it, then a row for the whole run."""
    rows: list[list] = []
    cap = [""]
    depth = [0]

    def run(name, fn, *args):
        if depth[0]:
            return fn(*args)
        depth[0] += 1
        before = _status()
        try:
            return fn(*args)
        finally:
            rows.append([name + cap[0]] + _steps(before))
            depth[0] -= 1

    def wrap(name, fn):
        if name == "_rotated_depletion":
            name = "rotated vacuum"
        return lambda *args: run(name, fn, *args)

    def per_cap(fn):
        def staged(rt, n_max):
            cap[0] = f" n={n_max}"
            try:
                return fn(rt, n_max)
            finally:
                cap[0] = ""
        return staged

    def mode_set():
        # as `bosegas oracle` builds them, with its warning's check
        modes = oracle.modes_from_config(cfg.oracle)
        _mode_pairs(modes)
        return modes

    saved = [(name, getattr(oracle, name))
             for name in ORACLE_STAGES + ("_fock_values",)]
    for name, fn in saved:
        setattr(oracle, name, per_cap(fn) if name == "_fock_values"
                else wrap(name, fn))
    try:
        start = _status()
        modes = run("mode set", mode_set)
        tables, _ = run("tables", pipeline.run_tables, cfg, cfg.N)
        oracle.run_oracle(tables, modes, cfg.oracle.n_max_list)
        whole = ["oracle"] + _steps(start)
    finally:
        for name, fn in saved:
            setattr(oracle, name, fn)
    return rows + [whole]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cfg = load_config(argv[0])
    with open(argv[0], encoding="utf-8") as fh:
        staged_oracle = "oracle" in json.load(fh)
    print(f"K = {cfg.cutoff_K:.6g}, K2 = {cfg.cutoff_K2:.6g}, N = {cfg.N}, "
          f"OPENBLAS_NUM_THREADS = {os.environ['OPENBLAS_NUM_THREADS']}\n")
    if staged_oracle:
        print("| stage | VmHWM step MB | RssAnon step MB | RssFile step MB |")
        print("|---|---|---|---|")
        for name, *vals in oracle_rows(cfg):
            print(f"| {name} | " + " | ".join(f"{v:.3f}" for v in vals) + " |")
        return 0
    print("| stage | calls | peak MB | held MB | VmHWM step MB "
          "| RssAnon step MB | RssFile step MB |")
    print("|---|---|---|---|---|---|---|")
    for name, calls, *vals in stage_rows(cfg):
        print(f"| {name} | {calls} | " + " | ".join(f"{v:.3f}" for v in vals)
              + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
