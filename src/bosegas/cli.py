"""Batch front end: energy, scan, verify, oracle.

Exit codes: 0 success, 1 runtime or invariant failure, 2 invalid
configuration.

`energy` and `scan` import numpy only; `verify` and `oracle` import their
modules, and with them scipy.sparse, when they run.
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import RunConfig, load_config
from .errors import BosegasError, RejectedConfig
from .pipeline import run_pipeline, run_tables
from .reporting import csv_header, fmt, render_csv_row, report_to_json


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_energy(cfg: RunConfig, out: str | None) -> int:
    report = run_pipeline(cfg)
    _write(report_to_json(report, cfg.config_hash) + "\n", out or cfg.out)
    for w in cfg.warnings + report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_scan(cfg: RunConfig, out: str | None) -> int:
    if len(cfg.N_values) < 2:
        raise RejectedConfig("scan needs at least two values of N")
    lines = [f"# config {cfg.config_hash}", csv_header()]
    failures = 0
    for N in cfg.N_values:
        try:
            report = run_pipeline(cfg, N)
            lines.append(render_csv_row(report))
        except BosegasError as exc:
            failures += 1
            lines.append(f"# N={N} failed: {exc}")
    _write("\n".join(lines) + "\n", out or cfg.out)
    return 0 if failures == 0 else 1


def cmd_verify(cfg: RunConfig, out: str | None) -> int:
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
    _write("\n".join(lines) + "\n", out or cfg.out)
    return 0 if ok else 1


def cmd_oracle(cfg: RunConfig, out: str | None) -> int:
    from .oracle import modes_from_config, run_oracle

    oracle_cfg = cfg.oracle
    n_run = oracle_cfg.N if oracle_cfg.N is not None else cfg.N
    modes = modes_from_config(oracle_cfg)
    tables, _ = run_tables(cfg, n_run)
    rows = run_oracle(tables, modes, oracle_cfg.n_max_list)
    lines = [
        f"# config {cfg.config_hash}  modes={len(modes)}  "
        f"n_max={list(oracle_cfg.n_max_list)}",
        "quantity,closed_form,"
        + ",".join(f"fock_n{n}" for n in oracle_cfg.n_max_list)
        + ","
        + ",".join(f"relgap_n{n}" for n in oracle_cfg.n_max_list),
    ]
    for row in rows:
        lines.append(
            ",".join(
                [row.name, fmt(row.closed_form)]
                + [fmt(v) for v in row.fock_values]
                + [fmt(g) for g in row.rel_gaps]
            )
        )
    _write("\n".join(lines) + "\n", out or cfg.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bosegas",
        description="Torus Bose-gas energy expansion with brute-force oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("energy", "one energy report (JSON)"),
        ("scan", "CSV row per N in the config list"),
        ("verify", "run the named invariant suite"),
        ("oracle", "closed form vs Fock comparison table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except RejectedConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    handler = {
        "energy": cmd_energy,
        "scan": cmd_scan,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
    }[args.command]
    try:
        return handler(cfg, args.out)
    except RejectedConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BosegasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
