"""Batch front end: energy, scan, verify, oracle.

Exit codes: 0 success, 1 runtime or invariant failure, 2 invalid or
unreadable config or unwritable `--out`.  `main` is the one exit path: it
loads the config, prints every warning, writes a command's text only once
the command has returned, and picks the exit code.

Every command runs on numpy alone; `verify` and `oracle` import their
modules when they run.  A list of N runs only under `scan`; the other
commands reject it rather than run its first entry.

The CLI process runs OpenBLAS on one thread: its dense work is small
matrix products, and the default pool's idle workers spin on a second
core without shortening the run (reference `energy` on 2 cores: CPU
0.79 -> 0.54 s, wall time unchanged, report bitwise equal).  A caller
who exports `OPENBLAS_NUM_THREADS` keeps that value; a library caller
that loads numpy before this module keeps OpenBLAS's default.
"""

from __future__ import annotations

import argparse
import os
import sys

# set before numpy loads: idle OpenBLAS workers cost CPU, save no wall time
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import RunConfig, load_config  # noqa: E402
from .errors import BosegasError, RejectedConfig  # noqa: E402
from .pipeline import run_pipeline, run_tables  # noqa: E402
from .reporting import csv_header, fmt, render_csv_row, report_to_json  # noqa: E402


def cmd_energy(cfg: RunConfig) -> tuple[str, list, int]:
    report = run_pipeline(cfg)
    return report_to_json(report, cfg.config_hash), list(report.warnings), 0


def cmd_scan(cfg: RunConfig) -> tuple[str, list, int]:
    if len(cfg.N_values) < 2:
        raise RejectedConfig("scan needs at least two values of N")
    lines = [f"# config {cfg.config_hash}", csv_header()]
    warnings = []
    failures = 0
    for N in cfg.N_values:
        try:
            report = run_pipeline(cfg, N)
            lines.append(render_csv_row(report))
            warnings += [f"N={N}: {w}" for w in report.warnings]
        except BosegasError as exc:
            failures += 1
            lines.append(f"# N={N} failed: {exc}")
    return "\n".join(lines), warnings, 0 if failures == 0 else 1


def cmd_verify(cfg: RunConfig) -> tuple[str, list, int]:
    from .verify import run_verify

    checks = run_verify(cfg)
    width = max(len(c.name) for c in checks)
    lines = []
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        detail = f"  ({c.detail})" if c.detail else ""
        lines.append(f"{c.name:<{width}}  {status}  margin={fmt(c.margin)}{detail}")
    ok = all(c.passed for c in checks)
    lines.append(f"{'all invariants' :<{width}}  {'pass' if ok else 'FAIL'}")
    return "\n".join(lines), [], 0 if ok else 1


def cmd_oracle(cfg: RunConfig) -> tuple[str, list, int]:
    from .fock import _mode_pairs
    from .oracle import modes_from_config, run_oracle

    oracle_cfg = cfg.oracle
    modes = modes_from_config(oracle_cfg)
    warnings = []
    if len(_mode_pairs(modes)) == 0:
        warnings.append(
            "the oracle mode set closes no p + q = k triple, so the "
            "e_pert_tilde row checks nothing of the cubic channel"
        )
    tables, _ = run_tables(cfg, cfg.N)
    run = run_oracle(tables, modes, oracle_cfg.n_max_list)
    lines = [
        f"# config {cfg.config_hash}  modes={len(modes)}  "
        f"n_max={list(oracle_cfg.n_max_list)}  dim={list(run.dims)}  "
        f"sector={list(run.sector_dims)}",
        "quantity,closed_form,"
        + ",".join(f"fock_n{n}" for n in oracle_cfg.n_max_list)
        + ","
        + ",".join(f"relgap_n{n}" for n in oracle_cfg.n_max_list),
    ]
    for row in run.rows:
        lines.append(
            ",".join(
                [row.name, fmt(row.closed_form)]
                + [fmt(v) for v in row.fock_values]
                + [fmt(g) for g in row.rel_gaps]
            )
        )
    return "\n".join(lines), warnings, 0


COMMANDS = {
    "energy": (cmd_energy, "one energy report (JSON)"),
    "scan": (cmd_scan, "CSV row per N in the config list"),
    "verify": (cmd_verify, "run the named invariant suite"),
    "oracle": (cmd_oracle, "closed form vs Fock comparison table"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bosegas",
        description="Torus Bose-gas energy expansion with brute-force oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    handler = COMMANDS[args.command][0]

    try:
        cfg = load_config(args.config)
        if args.command != "scan" and len(cfg.N_values) > 1:
            raise RejectedConfig("N lists run only under scan")
        for w in cfg.warnings:
            print(f"warning: {w}", file=sys.stderr)
        text, warnings, code = handler(cfg)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        return code
    except RejectedConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config or write output: {exc}", file=sys.stderr)
        return 2
    except BosegasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
