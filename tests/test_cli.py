import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bosegas
from bosegas.cli import main
from bosegas.config import OracleConfig, RunConfig, parse_config
from bosegas.errors import RejectedConfig
from bosegas.fock import _Assembler
from bosegas.reporting import csv_header
from bosegas.verify import run_verify


BASE = {
    "N": 300,
    "beta": 0.75,
    "kappa": 0.1,
    "R": 0.25,
    "cutoff_K_over_2pi": 3,
    "cutoff_K2_over_2pi": 2,
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

    @pytest.mark.parametrize("k2", [{"cutoff_K2_over_2pi": 0.5}, {"cutoff_K2": -3}])
    def test_k2_below_first_shell_exits_2(self, tmp_path, k2):
        doc = {k: v for k, v in BASE.items() if k != "cutoff_K2_over_2pi"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(doc, **k2)))
        assert main(["energy", "--config", str(path)]) == 2

    def test_non_numeric_tol_exits_2(self, tmp_path):
        path = write_config(tmp_path, scattering={"tol": "abc"})
        assert main(["energy", "--config", path]) == 2

    @pytest.mark.parametrize("override", [
        {"beta": "abc"},
        {"kappa": None},
        {"kappa": float("nan")},
        {"R": [0.25]},
        {"cutoff_K_over_2pi": "x"},
        {"cutoff_K2_over_2pi": {}},
        {"scattering": {"max_iter": "many"}},
        {"oracle": {"n_max": ["five"]}},
        {"oracle": {"n_max": []}},
        {"oracle": {"n_max": [-1]}},
        {"oracle": {"n_max": [300]}},
        {"oracle": {"n_max": [5.5]}},
        {"oracle": {"n_max": ["5"]}},
        {"oracle": {"n_max": [True]}},
        {"scattering": {"max_iter": 5.5}},
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
        # pair cubes beyond the memory budget: 201^3, 40,001^3, overflow
        {"cutoff_K_over_2pi": 50},
        {"cutoff_K_over_2pi": 1e4},
        {"cutoff_K": 1e300},
    ])
    def test_malformed_numeric_field_rejected(self, override):
        with pytest.raises(RejectedConfig):
            parse_config(dict(BASE, **override))

    @pytest.mark.parametrize("k_over_2pi", [40, 49.99])
    def test_cutoff_within_grid_budget_accepted(self, k_over_2pi):
        # pair cubes of 161^3 and 197^3 points
        assert parse_config(dict(BASE, cutoff_K_over_2pi=k_over_2pi))

    def test_unknown_key_rejected(self):
        with pytest.raises(RejectedConfig):
            parse_config(dict(BASE, junk=1))
        # the worker-count key went with the thread pool
        with pytest.raises(RejectedConfig):
            parse_config(dict(BASE, threads=2))

    def test_missing_file(self):
        assert main(["energy", "--config", "/nonexistent/cfg.json"]) == 2

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


class TestScan:
    def test_single_n_rejected(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["scan", "--config", path]) == 2

    def test_csv_columns_fixed_order(self, tmp_path):
        out = tmp_path / "scan.csv"
        path = write_config(tmp_path, N=[300, 600], out=str(out))
        assert main(["scan", "--config", path]) == 0
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
        path = write_config(tmp_path, N=[300, 600], kappa=0.0, out=str(out))
        assert main(["scan", "--config", path]) == 0
        for line in out.read_text().splitlines()[2:]:
            cells = line.split(",")
            # every physics column after the run parameters is zero
            assert all(float(c) == 0.0 for c in cells[3:18])

    def test_determinism_bit_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        p1 = write_config(tmp_path, "c1.json", N=[300, 500], out=str(out1))
        p2 = write_config(tmp_path, "c2.json", N=[300, 500], out=str(out2))
        assert main(["scan", "--config", p1]) == 0
        assert main(["scan", "--config", p2]) == 0

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


class TestScanFailures:
    def test_row_failures_recorded_run_continues(self, tmp_path):
        out = tmp_path / "scan.csv"
        path = write_config(tmp_path, N=[300, 600], out=str(out),
                            scattering={"tol": 1e-30, "max_iter": 2})
        assert main(["scan", "--config", path]) == 1
        text = out.read_text()
        assert text.count("failed") == 2  # both rows recorded, run continued


class TestVerify:
    def test_good_config_passes(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "deterministic_rerun" in out

    def test_out_of_regime_surfaces_named_failure(self, tmp_path, capsys):
        # the built-in family needs an enormous coupling before |G| >= F
        path = write_config(tmp_path, kappa=30000.0)
        code = main(["verify", "--config", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "diagonalizable" in out and "FAIL" in out

    def test_zero_coupling_trivially_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, kappa=0.0)
        assert main(["verify", "--config", path]) == 0
        assert "zero_coupling_collapse" in capsys.readouterr().out

    def test_dropped_cubic_channel_fails_the_probe(self, monkeypatch):
        # mutant: the Fock cubic channel is the zero operator
        monkeypatch.setattr(
            "bosegas.oracle.build_G1tilde",
            lambda basis, rt: _Assembler(basis).build({"kind": "cubic"}),
        )
        cfg = parse_config(dict(BASE, N=10**4, cutoff_K_over_2pi=4))
        failed = [c.name for c in run_verify(cfg) if not c.passed]
        assert failed == ["rs_pt2_nonpositive"]

    def test_one_shell_ball_fails_the_probe(self, tmp_path, capsys):
        # below 2 pi sqrt 2 only |n| = 1 modes exist and no cubic triple
        # closes, so the probe's pt2 is 0
        doc = {k: v for k, v in BASE.items() if k != "cutoff_K2_over_2pi"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(doc, cutoff_K_over_2pi=1.3)))
        assert main(["verify", "--config", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [l.split()[0] for l in lines if " FAIL " in l]
        assert failed == ["rs_pt2_nonpositive"]


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
        fields = [f.name for cls in (RunConfig, OracleConfig)
                  for f in dataclasses.fields(cls)]
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

    @pytest.mark.parametrize("nsq_max", [4, 10**6, 10**400])
    def test_mode_shells_over_the_cap_exit_2(self, tmp_path, capsys, nsq_max):
        # 10**6 would be a 2001^3 enumeration if the cap were checked after it
        path = write_config(
            tmp_path, oracle={"modes": {"nsq_max": nsq_max}, "n_max": [3]}
        )
        t0 = time.perf_counter()
        assert main(["oracle", "--config", path]) == 2
        assert time.perf_counter() - t0 < 5.0
        assert "modes" in capsys.readouterr().err


class TestImports:
    """energy/scan import numpy only; scipy loads with oracle and verify."""

    @staticmethod
    def run_child(tmp_path, command, **overrides):
        path = write_config(tmp_path, out=str(tmp_path / "out.txt"), **overrides)
        code = (
            "import json, sys\n"
            "from bosegas.cli import main\n"
            f"rc = main([{command!r}, '--config', {path!r}])\n"
            "print(json.dumps([rc, 'scipy' in sys.modules]))\n"
        )
        src = os.path.dirname(os.path.dirname(bosegas.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        res = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        return json.loads(res.stdout.splitlines()[-1])

    def test_energy_loads_no_scipy(self, tmp_path):
        rc, scipy_loaded = self.run_child(tmp_path, "energy")
        assert rc == 0
        assert not scipy_loaded

    def test_oracle_still_runs(self, tmp_path):
        rc, scipy_loaded = self.run_child(
            tmp_path, "oracle", oracle={"modes": {"nsq_max": 1}, "n_max": [3]}
        )
        assert rc == 0
        assert scipy_loaded


# Property tests over configuration documents.  Runs are derandomized, so
# the suite draws the same examples every time, and keep no example
# database on disk.
PROPERTY = settings(deadline=None, derandomize=True, database=None)
KEYS = ("N", "beta", "kappa", "R", "cutoff_K", "cutoff_K_over_2pi", "cutoff_K2",
        "cutoff_K2_over_2pi", "scattering", "oracle", "out")
SUBKEYS = ("tol", "max_iter", "modes", "nsq_max", "vectors", "n_max", "N",
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


# documents that mostly pass validation, with K <= 6 * 2 pi and at most 300
# solver iterations so that every run stays small
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
        "cutoff_K2_over_2pi": st.floats(min_value=0.0, max_value=6.0),
        "scattering": st.fixed_dictionaries({}, optional={
            "tol": st.floats(min_value=0.0),
            "max_iter": st.integers(min_value=0, max_value=300),
        }),
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
