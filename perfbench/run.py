#!/usr/bin/env python3
"""Benchmark for the bosegas CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/bosegas).
NAME is one of the workloads in perfbench/workloads.py, or `all` to run
each in turn.  The benchmark writes the seed-generated config, starts the
`bosegas` CLI in a fresh child process, waits for it (a closed loop with
one client: the next run starts only after the previous one exits), checks
the output with the workload's gate, and repeats until S seconds have
passed.  Child processes use the CLI's default threading (no more threads
than cores).  Scratch files go to .bench_work/ in the checkout.

--trace 0 reports the end-to-end metrics (medians over the runs):
  wall_s       wall time of one CLI child
  cpu_s        user + system CPU of the child, from wait4
  peak_rss_mb  the child's maximum resident set size
  setup_s      a fresh interpreter importing bosegas.cli and loading the
               workload's config, median of SETUP_SAMPLES spread over
               the run
fail_frac (runs that exited nonzero or failed their gate, over runs
attempted) is printed with them and carried by `failed`/`attempted`.

--trace 1 runs the workload once under perfbench/traced.py, which wraps
the public functions of every bosegas module, plus untraced runs for the
rest of the time, and reports the per-layer metrics derived from the
spans (see PER_LAYER) and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  perfbench/BASELINE.json holds the
figures measured on the commit the benchmark was written against.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ".bench_work"
# children still running this long after the start are killed, so one
# invocation stays well inside three minutes even if the program hangs
DEADLINE_S = 150.0
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import sys, bosegas.cli; from bosegas.config import load_config; "
    "load_config(sys.argv[1])"
)
CLI_CODE = "import sys; from bosegas.cli import main; sys.exit(main())"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}

# per-layer metric -> unit; <module>.<function>.<quantity> or
# <module>.<quantity>.  Times are inclusive ms unless named self_ms.
PER_LAYER = {
    "lattice_potential.enumerate_lattice.ms": "ms",
    "lattice_potential.enumerate_lattice.calls": "count",
    "lattice_potential.born2_sum.ms": "ms",
    "lattice_potential.born2_sum.calls": "count",
    "lattice_potential.M": "count",
    "lattice_potential.M2": "count",
    "scattering.solve_eta.ms": "ms",
    "scattering.solve_eta.self_ms": "ms",
    "scattering.solve_eta.iterations": "count",
    "scattering.make_convolver.ms": "ms",
    "scattering.make_convolver.calls": "count",
    "scattering.fft_grid_points": "count",
    "scattering.convolutions": "count",
    "scattering.grid_point_convolutions": "count",
    "scattering.ms_per_conv": "ms",
    "scattering.scattering_length.ms": "ms",
    "bogoliubov.build_tables.ms": "ms",
    "bogoliubov.build_tables.self_ms": "ms",
    "bogoliubov.e01.ms": "ms",
    "bogoliubov.e01.pairs": "count",
    "bogoliubov.e01.pairs_per_s": "1/s",
    "corrections.assemble_report.ms": "ms",
    "corrections.assemble_report.self_ms": "ms",
    "corrections.assemble_report.calls": "count",
    "corrections.e_pert_tilde.ms": "ms",
    "corrections.e_pert_tilde.pairs": "count",
    "corrections.e_pert_tilde.pairs_per_s": "1/s",
    "corrections.g2_expectation.ms": "ms",
    "corrections.g2_expectation.pairs": "count",
    "corrections.g2_expectation.pairs_per_s": "1/s",
    "corrections.c_constant.calls": "count",
    "sums.det_rows.ms": "ms",
    "sums.det_rows.rows": "count",
    "sums.det_rows.calls": "count",
    "fock.build_basis.ms": "ms",
    "fock.basis_dim.n5": "count",
    "fock.basis_dim.n6": "count",
    "fock.build_G0.ms": "ms",
    "fock.build_G1tilde.ms": "ms",
    "fock.build_G2.ms": "ms",
    "fock.ground_state.ms": "ms",
    "fock.ground_state.calls": "count",
    "fock.rs_pt2.ms": "ms",
    "fock.nnz": "count",
    "fock.nnz.n5": "count",
    "fock.nnz.n6": "count",
    "oracle.run_oracle.ms": "ms",
    "oracle.run_oracle.self_ms": "ms",
    "pipeline.run_tables.ms": "ms",
    "pipeline.run_tables.calls": "count",
    "pipeline.run_pipeline.ms": "ms",
    "config.load_config.ms": "ms",
    "reporting.render.ms": "ms",
    "share.pair_sums": "%",
    "share.scattering_lattice": "%",
    "share.fock": "%",
    "trace.wall_ms": "ms",
    "trace.untraced_wall_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
    "trace.absent": "count",
}

# functions the per-layer metrics read; any missing from the program is
# reported as absent (its metrics read 0) instead of failing the run
TRACED_FUNCTIONS = (
    "lattice_potential.enumerate_lattice", "lattice_potential.born2_sum",
    "scattering.solve_eta", "scattering.make_convolver",
    "scattering.scattering_length", "bogoliubov.build_tables",
    "bogoliubov.e01", "corrections.assemble_report",
    "corrections.e_pert_tilde", "corrections.g2_expectation",
    "corrections.c_constant", "sums.det_rows", "fock.build_basis",
    "fock.build_G0", "fock.build_G1tilde", "fock.build_G2",
    "fock.ground_state", "fock.rs_pt2", "oracle.run_oracle",
    "pipeline.run_tables", "pipeline.run_pipeline", "config.load_config",
    "reporting.render_csv_row", "reporting.report_to_json",
)
PAIR_SUMS = ("bogoliubov.e01", "corrections.e_pert_tilde",
             "corrections.g2_expectation")
FOCK_CAPS = (5, 6)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log: str, deadline: float) -> dict:
    """Start one child with its output in `log`.stdout / `log`.stderr, wait
    for it with wait4 and return its wall time, CPU time, peak RSS and exit
    code.  A child still running at `deadline` (a perf_counter value) is
    killed, so the benchmark always ends."""
    with open(log + ".stdout", "w", encoding="utf-8") as out, \
            open(log + ".stderr", "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def check_run(res: dict, gate, log: str, out_path: str, cfg: dict):
    """Failure reason for one CLI run, or None when its output passes."""
    if res["code"] != 0:
        with open(log + ".stderr", encoding="utf-8") as fh:
            tail = fh.read().strip().splitlines()[-1:] or [""]
        return f"exit code {res['code']}: {tail[0]}"
    try:
        with open(out_path, encoding="utf-8") as fh:
            return gate(fh.read(), cfg)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _union_ms(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total * 1000.0


def layer_metrics(doc: dict, traced_wall: float, untraced: list) -> dict:
    """Per-layer metrics from the traced child's spans."""
    spans = doc["spans"]
    wrapped = set(doc["wrapped"])
    by_name: dict = {}
    for i, (name, _, _, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
    child_ms = [0.0] * len(spans)
    for name, a, b, parent, _ in spans:
        if parent >= 0:
            child_ms[parent] += (b - a) * 1000.0

    def ms(fn):
        return sum(((spans[i][2] - spans[i][1]) * 1000.0
                    for i in by_name.get(fn, ())), 0.0)

    def self_ms(fn):
        return sum(((spans[i][2] - spans[i][1]) * 1000.0 - child_ms[i]
                    for i in by_name.get(fn, ())), 0.0)

    def calls(fn):
        return len(by_name.get(fn, ()))

    def attr_sum(fn, key, where=lambda attrs: True):
        return sum(spans[i][4].get(key, 0) for i in by_name.get(fn, ())
                   if where(spans[i][4]))

    def descendant_rows(i):
        # det_rows rows run under span i (pairs = rows x M2 row length)
        total = 0
        for j in by_name.get("sums.det_rows", ()):
            k = spans[j][3]
            while k >= 0 and k != i:
                k = spans[k][3]
            if k == i:
                total += spans[j][4].get("rows", 0)
        return total

    m = {}
    m["lattice_potential.enumerate_lattice.ms"] = ms(
        "lattice_potential.enumerate_lattice")
    m["lattice_potential.enumerate_lattice.calls"] = calls(
        "lattice_potential.enumerate_lattice")
    m["lattice_potential.born2_sum.ms"] = ms("lattice_potential.born2_sum")
    m["lattice_potential.born2_sum.calls"] = calls(
        "lattice_potential.born2_sum")
    m["lattice_potential.M"] = max(
        [spans[i][4].get("M", 0)
         for i in by_name.get("lattice_potential.enumerate_lattice", ())],
        default=0)
    m["lattice_potential.M2"] = max(
        [spans[i][4].get("M2", 0) for fn in PAIR_SUMS
         for i in by_name.get(fn, ())], default=0)

    solve_ms = ms("scattering.solve_eta")
    m["scattering.solve_eta.ms"] = solve_ms
    m["scattering.solve_eta.self_ms"] = self_ms("scattering.solve_eta")
    m["scattering.solve_eta.iterations"] = attr_sum(
        "scattering.solve_eta", "iterations")
    m["scattering.make_convolver.ms"] = ms("scattering.make_convolver")
    m["scattering.make_convolver.calls"] = calls("scattering.make_convolver")
    conv_spans = [spans[i][4] for i in by_name.get("scattering.make_convolver", ())]
    m["scattering.fft_grid_points"] = max(
        [a.get("fft_grid_points", 0) for a in conv_spans], default=0)
    m["scattering.convolutions"] = sum(a.get("convolutions", 0) for a in conv_spans)
    m["scattering.grid_point_convolutions"] = sum(
        a.get("fft_grid_points", 0) * a.get("convolutions", 0) for a in conv_spans)
    # convolutions applied inside the solver: one per iteration
    solver_convs = m["scattering.solve_eta.iterations"]
    m["scattering.ms_per_conv"] = solve_ms / solver_convs if solver_convs else 0.0
    m["scattering.scattering_length.ms"] = ms("scattering.scattering_length")

    m["bogoliubov.build_tables.ms"] = ms("bogoliubov.build_tables")
    m["bogoliubov.build_tables.self_ms"] = self_ms("bogoliubov.build_tables")
    for fn in PAIR_SUMS:
        pairs = sum(descendant_rows(i) * spans[i][4].get("M2", 0)
                    for i in by_name.get(fn, ()))
        t = ms(fn)
        m[f"{fn}.ms"] = t
        m[f"{fn}.pairs"] = pairs
        m[f"{fn}.pairs_per_s"] = pairs / (t / 1000.0) if t > 0 else 0.0
    m["corrections.assemble_report.ms"] = ms("corrections.assemble_report")
    m["corrections.assemble_report.self_ms"] = self_ms(
        "corrections.assemble_report")
    m["corrections.assemble_report.calls"] = calls("corrections.assemble_report")
    m["corrections.c_constant.calls"] = calls("corrections.c_constant")
    m["sums.det_rows.ms"] = ms("sums.det_rows")
    m["sums.det_rows.rows"] = attr_sum("sums.det_rows", "rows")
    m["sums.det_rows.calls"] = calls("sums.det_rows")

    for fn in ("build_basis", "build_G0", "build_G1tilde", "build_G2",
               "ground_state", "rs_pt2"):
        m[f"fock.{fn}.ms"] = ms(f"fock.{fn}")
    m["fock.ground_state.calls"] = calls("fock.ground_state")
    operators = [n for n in by_name if n.startswith("fock.build_")
                 and n != "fock.build_basis"]
    m["fock.nnz"] = sum(attr_sum(n, "nnz") for n in operators)
    for cap in FOCK_CAPS:
        m[f"fock.basis_dim.n{cap}"] = attr_sum(
            "fock.build_basis", "dim", lambda a, c=cap: a.get("cap") == c)
        m[f"fock.nnz.n{cap}"] = sum(
            attr_sum(n, "nnz", lambda a, c=cap: a.get("cap") == c)
            for n in operators)

    m["oracle.run_oracle.ms"] = ms("oracle.run_oracle")
    m["oracle.run_oracle.self_ms"] = self_ms("oracle.run_oracle")
    m["pipeline.run_tables.ms"] = ms("pipeline.run_tables")
    m["pipeline.run_tables.calls"] = calls("pipeline.run_tables")
    m["pipeline.run_pipeline.ms"] = ms("pipeline.run_pipeline")
    m["config.load_config.ms"] = ms("config.load_config")
    m["reporting.render.ms"] = (ms("reporting.render_csv_row")
                                + ms("reporting.report_to_json"))

    def share(pred):
        ivs = [(a, b) for name, a, b, _, _ in spans if pred(name)]
        return 100.0 * _union_ms(ivs) / (traced_wall * 1000.0)

    m["share.pair_sums"] = share(lambda n: n in PAIR_SUMS)
    m["share.scattering_lattice"] = share(
        lambda n: n.startswith(("scattering.", "lattice_potential.")))
    m["share.fock"] = share(lambda n: n.startswith("fock."))

    untraced_ms = statistics.median(untraced) * 1000.0
    m["trace.wall_ms"] = traced_wall * 1000.0
    m["trace.untraced_wall_ms"] = untraced_ms
    m["trace.overhead_ms"] = traced_wall * 1000.0 - untraced_ms
    m["trace.spans"] = len(spans)
    absent = [fn for fn in TRACED_FUNCTIONS if fn not in wrapped]
    m["trace.absent"] = len(absent)
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    command, make_config, gate = WORKLOADS[name]
    cfg = make_config(seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    cfg_path = os.path.join(WORK_DIR, f"{name}.json")
    out_path = os.path.join(WORK_DIR, f"{name}.out")
    log = os.path.join(WORK_DIR, name)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    print(f"workload={name} seed={seed} config={json.dumps(cfg)}")

    py = sys.executable
    cli = [py, "-c", CLI_CODE, command, "--config", cfg_path, "--out", out_path]
    # compile the bytecode once, untimed: users do not pay it per run
    deadline = time.perf_counter() + DEADLINE_S
    run_child([py, "-c", "import bosegas.cli"], log, deadline)

    runs, failures = [], []
    # a failure outside the CLI runs: marks the result incorrect without
    # counting as a failed run
    harness_error = None

    def attempt(argv):
        if os.path.exists(out_path):
            os.remove(out_path)
        res = run_child(argv, log, deadline)
        reason = check_run(res, gate, log, out_path, cfg)
        if reason:
            failures.append(reason)
            print(f"run {len(runs) + 1} FAILED: {reason}")
        runs.append(res)
        return res

    metrics = {}
    if trace:
        spans_path = os.path.join(WORK_DIR, f"{name}.spans.json")
        t0 = time.perf_counter()
        traced = attempt([py, os.path.join(HERE, "traced.py"), spans_path,
                          "--"] + cli[3:])
        untraced = []
        while not untraced or time.perf_counter() - t0 < seconds:
            untraced.append(attempt(cli)["wall_s"])
        try:
            with open(spans_path, encoding="utf-8") as fh:
                layer = layer_metrics(json.load(fh), traced["wall_s"], untraced)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            harness_error = f"no usable spans from the traced run: {exc!r}"
            print(f"FAILED: {harness_error}")
            layer = dict.fromkeys(PER_LAYER, 0.0)
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        # the set-up samples count against the measuring time and are
        # spread evenly over it, so that they see the same drift in
        # machine speed as the CLI runs
        t0 = time.perf_counter()
        setup_argv = [py, "-c", SETUP_CODE, cfg_path]
        setup = []

        def sample_setup(upto: float):
            while len(setup) < min(SETUP_SAMPLES, math.ceil(upto)):
                setup.append(run_child(setup_argv, log, deadline))

        while not runs or time.perf_counter() - t0 < seconds:
            sample_setup(max(1.0, SETUP_SAMPLES
                             * (time.perf_counter() - t0) / seconds))
            attempt(cli)
        sample_setup(SETUP_SAMPLES)
        if any(s["code"] != 0 for s in setup):
            harness_error = "the setup child exited nonzero"
            print(f"FAILED: {harness_error}")
        for key, unit in END_TO_END_UNITS.items():
            samples = setup if key == "setup_s" else runs
            key_src = "wall_s" if key == "setup_s" else key
            metrics[key] = {
                "value": statistics.median(s[key_src] for s in samples),
                "unit": unit,
            }
        print(f"runs={len(runs)} wall_s samples="
              f"{[round(r['wall_s'], 3) for r in runs]} "
              f"setup_s samples={[round(s['wall_s'], 3) for s in setup]}")

    fail_frac = len(failures) / len(runs)
    for key, m in metrics.items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
    print(f"{name} fail_frac = {fail_frac:.6g} ({len(failures)}/{len(runs)})")
    return {"correct": not failures and not harness_error, "attempted": len(runs),
            "failed": len(failures), "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("src/bosegas/cli.py", "tests/data/reference_report.json")
               if not os.path.isfile(p)]
    if missing:
        print(f"not a bosegas checkout (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
