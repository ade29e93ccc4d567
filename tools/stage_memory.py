#!/usr/bin/env python3
"""Print the memory of each stage of one `energy` run as a markdown table.

    PYTHONPATH=src python tools/stage_memory.py CONFIG.json

The run is `run_pipeline` on the config's first N.  Each stage is one
function the pipeline calls: the lattice enumeration, the scaled table,
the convolver, the scattering solve and `build_tables`, then each term
`assemble_report` computes, in the order of their first call.  A call
made inside another stage belongs to that stage.  Columns per stage:
its calls; tracemalloc's peak during it and what is still traced after
it, both counted from the start of the run; and the steps of VmHWM,
RssAnon and RssFile in /proc/self/status across it, summed over its
calls (Linux only).  The last row is the whole run.

Tracemalloc's own tables are part of the resident set, so the RSS steps
read higher than in an untraced run.  OpenBLAS runs on one thread, as in
the CLI.
"""

import os
import sys

# set before numpy loads, as `bosegas.cli` does
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import tracemalloc  # noqa: E402
import types  # noqa: E402

from bosegas import corrections, pipeline  # noqa: E402
from bosegas.config import load_config  # noqa: E402

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
                steps = [a - b for a, b in zip(_status(), before)]
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
        whole += [a - b for a, b in zip(_status(), start)]
    finally:
        tracemalloc.stop()
        for mod, name, fn in saved:
            setattr(mod, name, fn)
    return list(rows.values()) + [whole]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cfg = load_config(argv[0])
    print(f"K = {cfg.cutoff_K:.6g}, K2 = {cfg.cutoff_K2:.6g}, N = {cfg.N}, "
          f"OPENBLAS_NUM_THREADS = {os.environ['OPENBLAS_NUM_THREADS']}\n")
    print("| stage | calls | peak MB | held MB | VmHWM step MB "
          "| RssAnon step MB | RssFile step MB |")
    print("|---|---|---|---|---|---|---|")
    for name, calls, *vals in stage_rows(cfg):
        print(f"| {name} | {calls} | " + " | ".join(f"{v:.3f}" for v in vals)
              + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
