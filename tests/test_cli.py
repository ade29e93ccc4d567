import ast
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bosegas
from bosegas.cli import main
from bosegas.config import OracleConfig, RunConfig, parse_config
from bosegas.errors import RejectedConfig
from bosegas.fock import _assemble
from bosegas.reporting import csv_header
from bosegas.sums import det_sum
from bosegas.verify import run_verify


BASE = {
    "N": 300,
    "beta": 0.75,
    "kappa": 0.1,
    "R": 0.25,
    "cutoff_K_over_2pi": 3,
    "cutoff_K2_over_2pi": 1.5,
}


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = dict(BASE)
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigValidation:
    def test_beta_above_one_rejected(self, tmp_path):
        path = write_config(tmp_path, beta=1.2)
        assert main(["energy", "--config", path]) == 2

    def test_beta_at_bounds_rejected(self):
        with pytest.raises(RejectedConfig):
            parse_config(dict(BASE, beta=0.0))
        with pytest.raises(RejectedConfig):
            parse_config(dict(BASE, beta=1.0))

    def test_negative_kappa_rejected(self):
        with pytest.raises(RejectedConfig):
            parse_config(dict(BASE, kappa=-0.1))

    def test_radius_outside_torus_rejected(self):
        with pytest.raises(RejectedConfig):
            parse_config(dict(BASE, R=0.3))

    def test_k2_above_k_rejected(self):
        with pytest.raises(RejectedConfig):
            parse_config(dict(BASE, cutoff_K2_over_2pi=5))

    @pytest.mark.parametrize("cutoffs", [
        {"cutoff_K2_over_2pi": 1.5000001},
        {"cutoff_K2_over_2pi": 3},
        # K < 4 pi leaves no K2 in [2 pi, K/2]
        {"cutoff_K_over_2pi": 1.3},
    ])
    def test_k2_above_half_k_exits_2(self, tmp_path, capsys, cutoffs):
        # the cubic pair sum reads p + q, up to 2 K2, in the K ball
        doc = {k: v for k, v in BASE.items() if k != "cutoff_K2_over_2pi"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(doc, **cutoffs)))
        assert main(["energy", "--config", str(path)]) == 2
        assert "config error: cutoff_K" in capsys.readouterr().err

    @pytest.mark.parametrize("k2", [{"cutoff_K2_over_2pi": 0.5},
                                    {"cutoff_K2_over_2pi": -0.5}])
    def test_k2_below_first_shell_exits_2(self, tmp_path, k2):
        doc = {k: v for k, v in BASE.items() if k != "cutoff_K2_over_2pi"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(doc, **k2)))
        assert main(["energy", "--config", str(path)]) == 2

    def test_scattering_block_exits_2(self, tmp_path, capsys):
        # the solver runs at its own tolerance and iteration cap: the block
        # that set them is an unknown key
        path = write_config(tmp_path, scattering={"tol": 1e-11})
        assert main(["energy", "--config", path]) == 2
        assert "unknown keys in configuration: ['scattering']" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("override", [
        {"beta": "abc"},
        {"kappa": None},
        {"kappa": float("nan")},
        {"R": [0.25]},
        {"cutoff_K_over_2pi": "x"},
        {"cutoff_K2_over_2pi": {}},
        {"scattering": {}},
        {"oracle": {"n_max": ["five"]}},
        {"oracle": {"n_max": []}},
        {"oracle": {"n_max": [-1]}},
        {"oracle": {"n_max": [300]}},
        {"oracle": {"n_max": [5.5]}},
        {"oracle": {"n_max": ["5"]}},
        {"oracle": {"n_max": [True]}},
        # K = 6 pi holds |n|^2 <= 9
        {"oracle": {"modes": {"vectors": [[2, 2, 2], [-2, -2, -2]]}}},
        {"oracle": {"modes": {"vectors": [[1.5, 0, 0]]}}},
        {"oracle": {"modes": {"vectors": [[10**400, 0, 0]]}}},
        {"oracle": {"N": "x"}},
        {"oracle": {"modes": {"nsq_max": "x"}}},
        {"oracle": {"modes": {"vectors": [[1, "a", 0]]}}},
        {"threads": "x"},
        {"out": 5},
        {"beta": 10**400},
        {"N": 10**400},
        {"cutoff_K_over_2pi": 1e308},
        {"oracle": {"N": 1}},
        # ball grids beyond the memory budget: 101^3, 20,001^3, overflow
        {"cutoff_K_over_2pi": 50},
        {"cutoff_K_over_2pi": 1e4},
        {"cutoff_K_over_2pi": 1.6e299},
        # a present key is validated, never replaced by its default
        {"cutoff_K_over_2pi": 0},
        {"cutoff_K2_over_2pi": 0},
        # the mode set is exactly one of a shell bound >= 1 or a non-empty
        # vector list
        {"oracle": {"modes": {}}},
        {"oracle": {"modes": {"nsq_max": 0}}},
        {"oracle": {"modes": {"vectors": []}}},
        {"oracle": {"modes": {"nsq_max": 2, "vectors": [[1, 0, 0], [-1, 0, 0]]}}},
        # misspelled nested keys
        {"oracle": {"modes": {"vector": [[1, 0, 0], [-1, 0, 0]]}}},
        {"oracle": {"modes": {"nsqmax": 2}}},
        {"oracle": {"nmax": [3]}},
        # a number is a JSON number: no bool, no numeric string
        {"kappa": True},
        {"R": "0.25"},
        {"cutoff_K_over_2pi": True, "cutoff_K2_over_2pi": 1},
        {"oracle": {"modes": {"nsq_max": True}}},
        # the output path is --out, the particle number is N
        {"out": "x.json"},
        {"oracle": {"N": 100}},
    ])
    def test_malformed_numeric_field_rejected(self, override):
        with pytest.raises(RejectedConfig):
            parse_config(dict(BASE, **override))

    @pytest.mark.parametrize("key,value", [("cutoff_K", 40), ("cutoff_K2", 10)])
    def test_absolute_cutoff_keys_rejected(self, key, value):
        # one spelling per cutoff: K and K2 are given over 2 pi
        doc = {k: v for k, v in BASE.items() if k != key + "_over_2pi"}
        with pytest.raises(RejectedConfig):
            parse_config(dict(doc, **{key: value}))

    def test_default_cutoffs(self):
        cfg = parse_config({k: BASE[k] for k in ("N", "beta", "kappa", "R")})
        assert cfg.cutoff_K == 40 * math.pi
        assert cfg.cutoff_K2 == 20 * math.pi
        # below K = 40 pi the default K2 is K/2
        doc = {k: BASE[k] for k in ("N", "beta", "kappa", "R")}
        cfg = parse_config(dict(doc, cutoff_K_over_2pi=6))
        assert cfg.cutoff_K2 == 6 * math.pi

    @pytest.mark.parametrize("k_over_2pi", [40, 49.99])
    def test_cutoff_within_grid_budget_accepted(self, k_over_2pi):
        # ball grids of 81^3 and 99^3 points
        assert parse_config(dict(BASE, cutoff_K_over_2pi=k_over_2pi))

    def test_unknown_key_rejected(self):
        with pytest.raises(RejectedConfig):
            parse_config(dict(BASE, junk=1))
        # the worker-count key went with the thread pool
        with pytest.raises(RejectedConfig):
            parse_config(dict(BASE, threads=2))

    def test_missing_file(self):
        assert main(["energy", "--config", "/nonexistent/cfg.json"]) == 2

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",                                     # not UTF-8
        b'{"N": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # nested too deep
    ], ids=["non_utf8", "nested_too_deep"])
    def test_undecodable_config_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert main(["energy", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_beta_outside_window_warns(self):
        cfg = parse_config(dict(BASE, beta=0.3))
        assert any("1/2" in w for w in cfg.warnings)

    def test_n_below_two_rejected(self):
        with pytest.raises(RejectedConfig):
            parse_config(dict(BASE, N=1))

    def test_hash_tracks_content(self):
        a = parse_config(dict(BASE))
        b = parse_config(dict(BASE, kappa=0.2))
        assert a.config_hash != b.config_hash

    def test_hash_is_eight_hex_digits_in_any_process(self):
        code = ("import json, sys; from bosegas.config import parse_config; "
                "print(parse_config(json.loads(sys.argv[1])).config_hash)")
        hashes = [
            subprocess.run(
                [sys.executable, "-c", code, json.dumps(BASE)],
                env=dict(child_env(), PYTHONHASHSEED=seed),
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for seed in ("1", "2")
        ]
        assert re.fullmatch("[0-9a-f]{8}", hashes[0])
        assert hashes == [parse_config(dict(BASE)).config_hash] * 2


class TestNList:
    @pytest.mark.parametrize("command", ["energy", "verify", "oracle"])
    def test_n_list_outside_scan_exits_2(self, tmp_path, capsys, command):
        path = write_config(tmp_path, N=[300, 600])
        assert main([command, "--config", path]) == 2
        assert "config error" in capsys.readouterr().err


class TestEnergy:
    def test_zero_coupling_all_zero_columns(self, tmp_path, capsys):
        path = write_config(tmp_path, kappa=0.0)
        assert main(["energy", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("a_box", "leading", "E00", "E01", "C1", "C2", "E_corr",
                    "g2_expect", "e_pert_tilde", "E0", "C_const",
                    "total_route_A", "total_route_B", "depletion"):
            assert float(doc[key]) == 0.0, key

    def test_report_embeds_hash_and_truncation(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["energy", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config_hash"]
        assert float(doc["cutoff_K"]) > float(doc["cutoff_K2"])
        assert "born2_tail" in doc and "E01_tail" in doc

    def test_terms_flatten_to_value_ball_tail(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["energy", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == sorted([
            "C1", "C2", "C_NB", "C_const", "E0", "E00", "E00_tail", "E01",
            "E01_ball", "E01_tail", "E_corr", "N", "R", "a_box",
            "a_tail_bound", "beta", "born2", "born2_ball", "born2_tail",
            "config_hash", "corr_minus_parts", "cutoff_K", "cutoff_K2",
            "depletion", "depletion_fraction", "e_pert_tilde",
            "e_pert_tilde_ball", "e_pert_tilde_tail", "g2_expect",
            "iterations", "kappa", "leading", "residual_norm",
            "route_discrepancy", "t_scatter_ms", "t_sums_ms",
            "total_route_A", "total_route_B", "warnings",
        ])
        # 17 significant digits round-trip, so the identity is exact
        for x in ("E01", "e_pert_tilde", "born2"):
            assert float(doc[x]) == (
                float(doc[x + "_ball"]) + float(doc[x + "_tail"])
            ), x


class TestScan:
    def test_single_n_rejected(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["scan", "--config", path]) == 2

    def test_csv_columns_fixed_order(self, tmp_path):
        out = tmp_path / "scan.csv"
        path = write_config(tmp_path, N=[300, 600])
        assert main(["scan", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == csv_header()
        assert lines[1].startswith(
            "N,beta,kappa,a_box,leading,E00,E01,C1,C2,E_corr,g2_expect,"
            "e_pert_tilde,E0,C_const,total_A,total_B,route_discrepancy,"
            "depletion,t_scatter_ms,t_sums_ms"
        )
        assert len(lines) == 4

    def test_zero_coupling_scan_zero_columns(self, tmp_path):
        out = tmp_path / "scan.csv"
        path = write_config(tmp_path, N=[300, 600], kappa=0.0)
        assert main(["scan", "--config", path, "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[2:]:
            cells = line.split(",")
            # every physics column after the run parameters is zero
            assert all(float(c) == 0.0 for c in cells[3:18])

    def test_determinism_bit_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        path = write_config(tmp_path, N=[300, 500])
        assert main(["scan", "--config", path, "--out", str(out1)]) == 0
        assert main(["scan", "--config", path, "--out", str(out2)]) == 0

        def physics(text):
            rows = []
            for line in text.splitlines()[2:]:
                rows.append(line.split(",")[:18])  # strip wall-time columns
            return rows

        assert physics(out1.read_text()) == physics(out2.read_text())


class TestWarnings:
    def test_out_of_window_beta_warns_on_stderr(self, tmp_path, capsys):
        path = write_config(tmp_path, beta=0.4)
        assert main(["energy", "--config", path]) == 0
        assert "1/2" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides", [
        ("scan", {"N": [300, 600]}),
        ("verify", {}),
        ("oracle", {"oracle": {"modes": {"nsq_max": 2}, "n_max": [3]}}),
    ], ids=["scan", "verify", "oracle"])
    def test_every_command_warns_on_stderr(self, tmp_path, capsys,
                                           command, overrides):
        path = write_config(tmp_path, beta=0.4, **overrides)
        main([command, "--config", path])
        assert "warning: beta = 0.4 is outside (1/2, 1)" in capsys.readouterr().err

    def test_scan_prints_each_rows_regime_warning(self, tmp_path, capsys):
        # K = 6 pi, K2 = 3 pi: |G|/F passes 1/2 at both N, stays below 1
        path = write_config(tmp_path, N=[300, 1000], kappa=20000.0)
        assert main(["scan", "--config", path]) == 0
        err = capsys.readouterr().err
        for N in (300, 1000):
            assert f"warning: N={N}: |G_p|/F_p <= 1/2 violated" in err
        assert err.count("warning: ") == 2


class TestOutput:
    @pytest.mark.parametrize("target", ["missing/out.json", "."],
                             ids=["missing_dir", "directory"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, target):
        out = str(tmp_path / target)
        path = write_config(tmp_path)
        assert main(["energy", "--config", path, "--out", out]) == 2
        assert out in capsys.readouterr().err

    def test_failed_run_leaves_out_untouched(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_bytes(b"previous run\n")
        # |G|/F passes 1 at this coupling: DiagonalizationFailure
        path = write_config(tmp_path, kappa=1e6)
        assert main(["energy", "--config", path, "--out", str(out)]) == 1
        assert out.read_bytes() == b"previous run\n"


class TestScanFailures:
    def test_row_failures_recorded_run_continues(self, tmp_path):
        out = tmp_path / "scan.csv"
        path = write_config(tmp_path, N=[300, 600], kappa=1e6)
        assert main(["scan", "--config", path, "--out", str(out)]) == 1
        text = out.read_text()
        assert text.count("failed") == 2  # both rows recorded, run continued


def _tables_mutant(**fields):
    """Mutant of the tables `verify` reads: each named field replaced by
    fields[name](tables).  It goes in through `bosegas.verify.run_tables`,
    so the rerun, on the real tables, fails as well."""
    def install(monkeypatch):
        real = bosegas.verify.run_tables

        def mutated(cfg, N):
            tables, t_scatter = real(cfg, N)
            changed = {name: f(tables) for name, f in fields.items()}
            return tables._replace(**changed), t_scatter

        monkeypatch.setattr("bosegas.verify.run_tables", mutated)
    return install


def _positive_pair_sum(monkeypatch):
    # e_pert_tilde's ball sum loses the sign of its -(6/N) prefactor
    real = bosegas.corrections.e_pert_tilde

    def flipped(*args):
        term = real(*args)
        return term._replace(ball=-term.ball)

    monkeypatch.setattr("bosegas.corrections.e_pert_tilde", flipped)


def _unsquared_depletion(monkeypatch):
    # the depletion sums sinh(eta + tau) instead of its square
    monkeypatch.setattr("bosegas.corrections.depletion",
                        lambda tables: det_sum(np.sinh(tables.eta + tables.tau)))


def _nonzero_tail_bound(monkeypatch):
    # a kappa = 0 report whose a_tail_bound, which no CSV column shows, is
    # not zero
    real = bosegas.verify.assemble_report
    monkeypatch.setattr(
        "bosegas.verify.assemble_report",
        lambda tables, K2: real(tables, K2)._replace(a_tail_bound=1e-30),
    )


def _dropped_cubic_channel(monkeypatch):
    # the Fock cubic channel is the zero operator
    monkeypatch.setattr(
        "bosegas.oracle.build_G1tilde",
        lambda basis, rt: _assemble(
            basis, np.zeros((0, 1), int), np.zeros((0, 1), int), []),
    )


def _drifting_rerun(monkeypatch):
    # the rerun's born2 tail, which no CSV column shows, moves by one part
    # in 1e12
    real = bosegas.verify.run_pipeline

    def drifting(cfg):
        report = real(cfg)
        born2 = report.born2
        return report._replace(born2=born2._replace(tail=born2.tail * (1.0 + 1e-12)))

    monkeypatch.setattr("bosegas.verify.run_pipeline", drifting)


# check name -> (overrides of BASE, mutant installer or None for a real
# input, whether the check must be the only one to fail)
MUTANTS = {
    # the solve diverges: NonConvergence
    "pipeline": ({"N": 10, "beta": 0.5, "kappa": 1e8, "cutoff_K_over_2pi": 4,
                  "cutoff_K2_over_2pi": 2}, None, True),
    "diagonalizable": ({"kappa": 1e5}, None, True),
    "hyperbolic_identity": ({}, _tables_mutant(ct=lambda t: t.ct * (1.0 + 1e-9)), False),
    "F_lower_bound": ({}, _tables_mutant(F=lambda t: 0.4 * t.F), False),
    "F_upper_bound": (
        {}, _tables_mutant(F=lambda t: 200.0 * (1.0 + t.table.at_zero) * t.F), False),
    "pairing_ratio": ({"kappa": 3e4}, None, True),
    "tau_identity": ({}, _tables_mutant(tau=lambda t: 2.0 * t.tau), False),
    # a wrong st passes hyperbolic_identity at the reference point
    "sinh_identity": ({}, _tables_mutant(st=lambda t: 2.0 * t.st), False),
    "dispersion_bound": ({}, _tables_mutant(e=lambda t: 0.5 * t.e), False),
    "e_pert_tilde_nonpositive": ({}, _positive_pair_sum, True),
    "corr_constant_positive": ({"kappa": 6e4}, None, False),
    "e_corr_negative": ({"kappa": 6e4}, None, False),
    # the scattering solution with the wrong sign
    "scattering_length_below_born0": (
        {}, _tables_mutant(sol=lambda t: t.sol._replace(eta=-t.sol.eta)), False),
    "depletion_nonnegative": ({}, _unsquared_depletion, True),
    "zero_coupling_collapse": ({"kappa": 0.0}, _nonzero_tail_bound, False),
    "rs_pt2_nonpositive": (
        {"N": 10**4, "cutoff_K_over_2pi": 4}, _dropped_cubic_channel, True),
    "deterministic_rerun": ({}, _drifting_rerun, True),
}


class TestVerify:
    def test_good_config_passes(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "deterministic_rerun" in out

    def test_out_of_regime_surfaces_named_failure(self, tmp_path, capsys):
        # the built-in family needs an enormous coupling before |G| >= F
        # (at kappa = 3e4 the maximum |G|/F is still 0.97)
        path = write_config(tmp_path, kappa=1e5)
        code = main(["verify", "--config", path])
        out = capsys.readouterr().out
        assert code == 1
        assert out.split()[:2] == ["diagonalizable", "FAIL"]
        assert "at lattice point (-2, -2, -1)" in out and "np.int64" not in out

    def test_zero_coupling_trivially_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, kappa=0.0)
        assert main(["verify", "--config", path]) == 0
        assert "zero_coupling_collapse" in capsys.readouterr().out

    @pytest.mark.parametrize("check", list(MUTANTS))
    def test_mutant_turns_its_check_red(self, monkeypatch, check):
        overrides, install, alone = MUTANTS[check]
        if install is not None:
            install(monkeypatch)
        checks = run_verify(parse_config(dict(BASE, **overrides)))
        failed = [c.name for c in checks if not c.passed]
        if alone:
            assert failed == [check]
        else:
            assert check in failed
        assert {c.name for c in checks} <= set(MUTANTS)
        assert all(type(c.passed) is bool for c in checks)

    def test_every_check_has_a_mutant(self):
        # a check that no input can fail certifies nothing: every name
        # `run_verify` can emit needs a row in MUTANTS
        tree = ast.parse(inspect.getsource(bosegas.verify))
        names = {
            ast.literal_eval(node.args[0]) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "Check"
        }
        assert names == set(MUTANTS)

    def test_tau_off_by_a_part_in_1e9_fails_tau_identity(self, monkeypatch):
        # the bound is relative to |G/F|: an absolute 1e-12 passed this
        # tau, whose identity residual is about 1e-9 |G/F|
        _tables_mutant(tau=lambda t: t.tau * (1.0 + 1e-9))(monkeypatch)
        checks = {c.name: c for c in run_verify(parse_config(BASE))}
        assert not checks["tau_identity"].passed
        assert checks["tau_identity"].margin > 1e6

    def test_rerun_moving_only_wall_times_passes(self, monkeypatch):
        real = bosegas.verify.run_pipeline

        def slow(cfg):
            return real(cfg)._replace(t_scatter_ms=1e6, t_sums_ms=-1.0)

        monkeypatch.setattr("bosegas.verify.run_pipeline", slow)
        failed = [c.name for c in run_verify(parse_config(BASE)) if not c.passed]
        assert failed == []


class TestConfigKnobs:
    def test_every_field_is_read(self):
        # a configuration field that no module reads is a knob that does
        # nothing
        pkg = os.path.dirname(bosegas.__file__)
        text = ""
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py") and name != "config.py":
                with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                    text += fh.read()
        fields = [f for cls in (RunConfig, OracleConfig) for f in cls._fields]
        unread = [f for f in fields if not re.search(rf"\.{f}\b", text)]
        assert unread == []


class TestOracle:
    def test_comparison_table(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            oracle={"modes": {"nsq_max": 1}, "n_max": [3, 5]},
        )
        assert main(["oracle", "--config", path]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        names = [l.split(",")[0] for l in lines[2:]]
        assert names == ["E0", "e_pert_tilde", "g2_expect", "depletion"]
        assert "relgap_n5" in lines[1]
        # on the first shell only opposite pairs carry zero momentum: the
        # vacuum and one pair (cap 3), plus one pair twice or two pairs
        # (cap 5); the maps permute the three axes' pairs
        assert lines[0].startswith("# config ")
        assert lines[0].endswith("  modes=6  n_max=[3, 5]  dim=[4, 10]  "
                                 "sector=[2, 4]")

    @pytest.mark.parametrize("nsq_max, warns", [(1, True), (2, False)])
    def test_warns_when_no_triple_closes(self, tmp_path, capsys, nsq_max, warns):
        path = write_config(
            tmp_path, oracle={"modes": {"nsq_max": nsq_max}, "n_max": [3]}
        )
        assert main(["oracle", "--config", path]) == 0
        err = capsys.readouterr().err
        assert ("warning: " in err and "triple" in err) == warns

    @pytest.mark.parametrize("command", ["energy", "oracle"])
    def test_vectors_outside_the_ball_exit_2(self, tmp_path, capsys, command):
        # K = 4 pi holds |n|^2 <= 4; the oracle reads its modes' tables
        # from the K ball, and the config is rejected before any solve
        vectors = {"vectors": [[3, 0, 0], [-3, 0, 0]]}
        path = write_config(tmp_path, cutoff_K_over_2pi=2, cutoff_K2_over_2pi=1,
                            oracle={"modes": vectors, "n_max": [3]})
        assert main([command, "--config", path]) == 2
        assert "oracle.modes.vectors" in capsys.readouterr().err
        # on the ball's edge the vectors are accepted
        assert parse_config(dict(BASE, oracle={"modes": vectors}))

    @pytest.mark.parametrize("nsq_max", [10, 10**6, 10**400])
    def test_mode_shells_over_the_cap_exit_2(self, tmp_path, capsys, nsq_max):
        # K = 6 pi holds |n|^2 <= 9, and the shells are checked against it
        # before any enumeration: 10**6 would be a 2001^3 one
        path = write_config(
            tmp_path, oracle={"modes": {"nsq_max": nsq_max}, "n_max": [3]}
        )
        t0 = time.perf_counter()
        assert main(["oracle", "--config", path]) == 2
        assert time.perf_counter() - t0 < 5.0
        assert "oracle.modes.nsq_max" in capsys.readouterr().err

    def test_32_mode_shells_run(self, tmp_path, capsys):
        # the 32 modes |n|^2 <= 4, above the former cap of 30 modes
        path = write_config(
            tmp_path, oracle={"modes": {"nsq_max": 4}, "n_max": [3, 4, 5]}
        )
        assert main(["oracle", "--config", path]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(
            "  modes=32  n_max=[3, 4, 5]  dim=[91, 543, 2775]  "
            "sector=[11, 46, 132]")


HAS_PROC_TASKS = os.path.isdir("/proc/self/task")


def child_env(blas_threads=None):
    """The test process's environment with src/ on the path and
    OPENBLAS_NUM_THREADS set to `blas_threads`, or unset for None.
    Importing bosegas.cli here has already written its own value into
    os.environ, so the child's is chosen explicitly."""
    src = os.path.dirname(os.path.dirname(bosegas.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


class TestImports:
    """No command imports scipy, and `energy` and `scan` load none of the
    modules `verify` and `oracle` import when they run.  No command loads
    OpenSSL, numpy's polynomial package or dataclasses.  The CLI caps
    OpenBLAS at one thread unless the caller sets it."""

    LAZY = ("bosegas.fock", "bosegas.oracle", "bosegas.verify")
    UNUSED = ("hashlib", "_hashlib", "numpy.polynomial", "dataclasses")
    SMALL_ORACLE = {"modes": {"nsq_max": 1}, "n_max": [3]}

    @classmethod
    def run_child(cls, tmp_path, command, blas_threads=None, watch=LAZY,
                  **overrides):
        """[exit code, scipy loaded, thread count, modules of `watch`
        loaded]."""
        path = write_config(tmp_path, **overrides)
        out = str(tmp_path / "out.txt")
        code = (
            "import json, os, sys\n"
            "from bosegas.cli import main\n"
            f"rc = main([{command!r}, '--config', {path!r}, '--out', {out!r}])\n"
            "tasks = '/proc/self/task'\n"
            "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
            f"loaded = [m for m in {watch!r} if m in sys.modules]\n"
            "print(json.dumps([rc, 'scipy' in sys.modules, threads, loaded]))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], env=child_env(blas_threads),
            capture_output=True, text=True, check=True,
        )
        return json.loads(res.stdout.splitlines()[-1])

    @pytest.mark.parametrize("command, overrides, lazy", [
        ("energy", {}, []),
        ("scan", {"N": [300, 600]}, []),
        ("verify", {}, list(LAZY)),
        ("oracle", {"oracle": SMALL_ORACLE}, list(LAZY[:2])),
    ], ids=["energy", "scan", "verify", "oracle"])
    def test_loads_no_scipy(self, tmp_path, command, overrides, lazy):
        rc, scipy_loaded, _, loaded = self.run_child(tmp_path, command,
                                                     **overrides)
        assert rc == 0
        assert not scipy_loaded
        assert loaded == lazy

    @pytest.mark.parametrize("command", ["energy", "oracle"])
    def test_cold_start_loads_only_what_runs(self, tmp_path, command):
        rc, _, _, loaded = self.run_child(
            tmp_path, command, watch=self.UNUSED, oracle=self.SMALL_ORACLE
        )
        assert rc == 0
        assert loaded == []

    @pytest.mark.skipif(not HAS_PROC_TASKS, reason="no /proc/self/task")
    @pytest.mark.parametrize("command", ["energy", "oracle"])
    def test_one_thread_by_default(self, tmp_path, command):
        rc, _, threads, _ = self.run_child(tmp_path, command,
                                           oracle=self.SMALL_ORACLE)
        assert rc == 0
        assert threads == 1

    @pytest.mark.skipif(not HAS_PROC_TASKS, reason="no /proc/self/task")
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core")
    def test_caller_thread_count_kept(self, tmp_path):
        rc, _, threads, _ = self.run_child(tmp_path, "energy", blas_threads=2)
        assert rc == 0
        assert threads > 1


class TestThreadDeterminism:
    """`energy` at the reference point and `oracle` at the oracle-fock
    workload's seed-101 config print the same bytes under one and two
    OpenBLAS threads, timing fields aside."""

    @staticmethod
    def run_cli(tmp_path, command, config, blas_threads):
        path = tmp_path / f"{command}-{blas_threads}.json"
        path.write_text(json.dumps(config))
        res = subprocess.run(
            [sys.executable, "-m", "bosegas.cli", command, "--config", str(path)],
            env=child_env(blas_threads), capture_output=True, text=True,
            check=True,
        )
        return re.sub(r'"t_\w+_ms": "[^"]*"', '"t_ms"', res.stdout)

    def test_energy_report_bitwise(self, tmp_path):
        config = _workloads()["energy_config"](101)
        one, two = (self.run_cli(tmp_path, "energy", config, n) for n in (1, 2))
        assert one.count('"t_ms"') == 2
        assert one == two

    def test_oracle_table_bytewise(self, tmp_path):
        config = _workloads()["oracle_config"](101)
        assert (self.run_cli(tmp_path, "oracle", config, 1)
                == self.run_cli(tmp_path, "oracle", config, 2))


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


def _perfbench_source(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return fh.read()


def _workloads():
    """The names `perfbench/workloads.py` defines, run from its text."""
    scope = {"__name__": "workloads"}
    exec(compile(_perfbench_source("workloads.py"), "workloads.py", "exec"),
         scope)
    return scope


class TestBenchmarkInputs:
    """What the benchmark harness reads of the package still exists.  The
    harness files are read as text and never imported, so nothing is
    written under perfbench/."""

    def test_traced_functions_are_module_functions(self):
        tree = ast.parse(_perfbench_source("run.py"))
        names = next(
            ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) == "TRACED_FUNCTIONS"
        )
        missing = []
        for name in names:
            module, _, attr = name.partition(".")
            mod = importlib.import_module(f"bosegas.{module}")
            fn = getattr(mod, attr, None)
            if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                missing.append(name)
        assert names and missing == []

    def test_workload_configs_parse(self):
        for _, make_config, _ in _workloads()["WORKLOADS"].values():
            for seed in range(20):
                parse_config(make_config(seed))


# Property tests over configuration documents.  Runs are derandomized, so
# the suite draws the same examples every time, and keep no example
# database on disk.
PROPERTY = settings(deadline=None, derandomize=True, database=None)
# `scattering`, `tol` and `max_iter` are keys of no block: their draws
# exercise the unknown-key rejection
KEYS = ("N", "beta", "kappa", "R", "cutoff_K_over_2pi", "cutoff_K2_over_2pi",
        "scattering", "oracle")
SUBKEYS = ("tol", "max_iter", "modes", "nsq_max", "vectors", "n_max",
           "rel_tol_pert", "rel_tol_g2")
# 10**400 is a JSON number that no float holds
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# nested blocks with the keys the validator reads, so draws get past the
# top level
BLOCK = st.dictionaries(
    st.sampled_from(SUBKEYS),
    JSON_VALUE | st.dictionaries(st.sampled_from(SUBKEYS), JSON_VALUE, max_size=2),
    max_size=4,
)
# BASE with up to two keys dropped and a few keys set to any JSON value
CONFIG_DOC = st.tuples(
    st.sets(st.sampled_from(sorted(BASE)), max_size=2),
    st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4),
                    JSON_VALUE | BLOCK, max_size=3),
).map(lambda t: {**{k: v for k, v in BASE.items() if k not in t[0]}, **t[1]})


# documents that mostly pass validation, with K <= 6 * 2 pi and K2 up to
# half of that, so that every run stays small
SMALL_RUN_DOC = st.fixed_dictionaries(
    {
        "N": st.integers(min_value=-1) | st.just(10**400)
        | st.lists(st.integers(min_value=2), max_size=3),
        "beta": st.floats(min_value=0.0, max_value=1.0),
        "kappa": st.floats(min_value=0.0) | st.floats(min_value=0.0, max_value=10.0),
        "R": st.floats(min_value=0.0, max_value=0.25, exclude_min=True),
        "cutoff_K_over_2pi": st.floats(min_value=1.0, max_value=6.0),
    },
    optional={
        "cutoff_K2_over_2pi": st.floats(min_value=0.0, max_value=3.0),
    },
)


class TestConfigProperties:
    @settings(PROPERTY, max_examples=200)
    @given(doc=CONFIG_DOC)
    def test_any_json_object_parses_or_is_rejected(self, doc):
        try:
            parse_config(doc)
        except RejectedConfig:
            pass

    # out-of-regime couplings overflow on the way to their exit code 1
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(PROPERTY, max_examples=60)
    @given(doc=SMALL_RUN_DOC)
    def test_energy_exit_code_is_0_1_or_2(self, doc):
        try:
            parse_config(doc)
        except RejectedConfig:
            assume(False)  # the first property covers rejection
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            rc = main(["energy", "--config", path, "--out", os.path.join(tmp, "o")])
        assert rc in (0, 1, 2)
