import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from memwalk import montecarlo
from memwalk.cli import RunConfig, main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
SRC = Path(__file__).resolve().parent.parent / "src"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTheoryCommand:
    def test_critical_point_document(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--d", "1", "--theta", "1", "--p", "0.75")
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "critical"
        assert doc["critical_probability"] == 0.75
        assert doc["params"]["K"] == 2
        assert "critical" in doc and "diffusive" not in doc

    def test_no_transition_document(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--d", "1", "--theta", "0", "--p", "0.7")
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "no-transition"
        assert doc["critical_probability"] is None
        assert doc["lln_limit"] == [pytest.approx(0.4)]
        assert "critical" not in doc and "superdiffusive" not in doc

    def test_superdiffusive_document(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--d", "1", "--theta", "1", "--p", "0.9")
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "superdiffusive"
        assert doc["superdiffusive"]["exponent"] == pytest.approx(1.6)

    def test_invalid_params_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "theory", "--d", "1", "--theta", "1", "--p", "1.5")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("p", ["0.6", "0.75", "0.9"])
    def test_output_matches_documented_schema(self, capsys, p):
        schema = load_schema("theory")
        code, out, _ = run_cli(capsys, "theory", "--d", "2", "--theta", "1", "--p", p)
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


class TestSimulateCommand:
    def test_csv_shape_and_determinism(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for path in (out_a, out_b):
            code = main([
                "simulate", "--d", "2", "--theta", "0.8", "--p", "0.6",
                "--steps", "200", "--checkpoints", "20,200", "--reps", "40",
                "--seed", "11", "--out", str(path),
            ])
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        d = 2
        expected_cols = 1 + 1 + d + d * (d + 1) // 2 + d
        header = lines[0].split(",")
        assert header[:2] == ["n", "rep_count"]
        assert len(header) == expected_cols
        assert len(lines) == 3
        for line in lines[1:]:
            assert len(line.split(",")) == expected_cols

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "w.csv"
        main([
            "simulate", "--d", "1", "--theta", "1", "--p", "0.6",
            "--steps", "50", "--checkpoints", "50", "--reps", "10",
            "--seed", "1", "--out", str(path),
        ])
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_worker_flag_leaves_bytes_unchanged(self, tmp_path):
        outputs = []
        for workers, name in [("1", "w1.csv"), ("2", "w2.csv")]:
            path = tmp_path / name
            code = main([
                "simulate", "--d", "1", "--theta", "1", "--p", "0.6",
                "--steps", "100", "--checkpoints", "100", "--reps", "30",
                "--seed", "4", "--workers", workers, "--out", str(path),
            ])
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_pooled_run_exits_cleanly(self, tmp_path):
        # the pool's workers outlive each call; at exit they must end quietly,
        # and communicate() returns only once no worker holds the pipes
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        argv = [sys.executable, "-m", "memwalk", "simulate", "--d", "1", "--theta", "1", "--p", "0.6",
                "--steps", "100", "--checkpoints", "10,100", "--reps", "30", "--seed", "4",
                "--workers", "2", "--out", str(tmp_path / "w2.csv")]
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        assert (proc.returncode, out, err) == (0, "", "")
        assert main(argv[3:-4] + ["--workers", "1", "--out", str(tmp_path / "w1.csv")]) == 0
        assert (tmp_path / "w2.csv").read_bytes() == (tmp_path / "w1.csv").read_bytes()

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--d", "1", "--theta", "1", "--p", "0.6",
            "--steps", "10", "--reps", "4", "--seed", "0",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 1


class TestVerifyCommand:
    def test_lln_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--tag", "lln", "--d", "1", "--theta", "0.3",
            "--p", "0.8", "--steps", "5000", "--reps", "100", "--seed", "123",
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["tag"] == "lln"
        jsonschema.validate(report, load_schema("verify"))

    def test_regime_mismatch_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--tag", "clt-critical", "--d", "1",
            "--theta", "1", "--p", "0.6", "--reps", "50", "--steps", "100",
        )
        assert code == 1

    def test_statistical_fail_exit_two(self, capsys):
        # n log n scaling has not set in yet at n = 3..30 (the exact
        # ratios are 1.67 and 1.17), so the 15 percent critical-ratio
        # gate honestly fails at this budget
        code, out, _ = run_cli(
            capsys, "verify", "--tag", "clt-critical", "--d", "1",
            "--theta", "1", "--p", "0.75", "--steps", "30",
            "--checkpoints", "3,30", "--reps", "2000", "--seed", "7",
        )
        assert code == 2
        assert json.loads(out)["passed"] is False

    def test_checkpoint_order_does_not_change_the_report(self, capsys):
        argv = ["verify", "--tag", "clt-critical", "--d", "1", "--theta", "1", "--p", "0.75",
                "--steps", "30", "--reps", "2000", "--seed", "7"]
        _, ascending, _ = run_cli(capsys, *argv, "--checkpoints", "3,30")
        _, descending, _ = run_cli(capsys, *argv, "--checkpoints", "30,3")
        assert ascending == descending

    def test_single_checkpoint_rejected(self, capsys):
        # one checkpoint would compare the n log n ratio with itself
        code, out, err = run_cli(
            capsys, "verify", "--tag", "clt-critical", "--d", "1", "--theta", "1", "--p", "0.75",
            "--checkpoints", "3000", "--reps", "1000", "--seed", "7",
        )
        assert code == 1 and out == ""
        assert "two distinct checkpoints" in err

    def test_config_reports_the_steps_run(self, capsys):
        # both tags run to their last checkpoint, whatever --steps says
        common = ["--d", "1", "--theta", "1", "--steps", "2000", "--reps", "200", "--seed", "7"]
        _, out, _ = run_cli(capsys, "verify", "--tag", "clt-critical", "--p", "0.75", *common)
        assert json.loads(out)["config"]["n_steps"] == 10_000  # default checkpoints 1 000, 10 000
        _, out, _ = run_cli(capsys, "verify", "--tag", "superdiffusive", "--p", "0.9",
                            "--checkpoints", "10,100,1000", *common)
        assert json.loads(out)["config"]["n_steps"] == 1_000

    def test_superdiffusive_small_budget(self, capsys):
        # the default checkpoints span two decades below 1e4 steps too
        code, out, _ = run_cli(
            capsys, "verify", "--tag", "superdiffusive", "--d", "1", "--theta", "1",
            "--p", "0.9", "--steps", "2000", "--reps", "200", "--seed", "3",
        )
        assert code in (0, 2)
        jsonschema.validate(json.loads(out), load_schema("verify"))

    def test_missing_tag(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--d", "1", "--theta", "1", "--p", "0.6")
        assert code == 1

    def test_unset_sizes_take_the_tag_budget(self, capsys):
        # the README command: no --steps or --reps
        code, out, _ = run_cli(
            capsys, "verify", "--tag", "lln", "--d", "1", "--theta", "0.3", "--p", "0.8", "--seed", "7",
        )
        assert code == 0
        config = json.loads(out)["config"]
        budget = montecarlo.default_budget("lln")
        assert (config["n_steps"], config["replicas"]) == (budget.n_steps, budget.replicas) == (100_000, 200)

    def test_zero_steps_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--tag", "lln", "--d", "1", "--theta", "0.3", "--p", "0.8",
            "--steps", "0", "--reps", "10",
        )
        assert code == 1
        assert "n_steps" in err

    def test_schema_tags_match_verifier_table(self):
        tags = load_schema("verify")["properties"]["tag"]["enum"]
        assert sorted(tags) == sorted(montecarlo._VERIFIERS)


class TestPhaseDiagramCommand:
    def test_grid_csv(self, capsys, tmp_path):
        path = tmp_path / "pd.csv"
        code = main([
            "phase-diagram", "--d", "1", "--theta-grid", "1.0",
            "--p-grid", "0.5,0.9", "--steps", "10000", "--reps", "300",
            "--seed", "21", "--out", str(path),
        ])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "p,theta,regime,p_c,exponent_hat,exponent_se"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        by_p = {float(r[0]): r for r in rows}
        assert by_p[0.5][2] == "diffusive"
        assert by_p[0.9][2] == "superdiffusive"
        assert float(by_p[0.5][3]) == 0.75
        # p = 1/K row estimates a diffusive exponent near 1
        assert abs(float(by_p[0.5][4]) - 1.0) < 0.25
        assert abs(float(by_p[0.9][4]) - 1.6) < 0.25

    def test_empty_grid_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "phase-diagram", "--d", "1")
        assert code == 1


class TestOracleCommand:
    def test_dump_small_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--d", "1", "--theta", "1", "--p", "0.75", "--steps", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2
        assert len(doc["paths"]) == 4
        total = sum(entry["probability"] for entry in doc["paths"])
        assert total == pytest.approx(1.0, abs=1e-12)
        jsonschema.validate(doc, load_schema("oracle"))

    def test_refuses_large_instance(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "--d", "3", "--theta", "1", "--p", "0.5", "--steps", "12",
        )
        assert code == 1


class TestConfigRoundTrip:
    def test_lossless_json(self):
        cfg = RunConfig(
            subcommand="simulate", d=2, lazy=True, p=0.7, theta=0.9,
            init="fixed:1", n_steps=500, checkpoints=[10, 500], replicas=64,
            seed=99, workers=2, out="x.csv",
        )
        assert RunConfig.from_json(cfg.to_json()) == cfg

    def test_config_file_drives_run(self, capsys, tmp_path):
        cfg = RunConfig(subcommand="theory", d=1, p=0.75, theta=1.0)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        code, out, _ = run_cli(capsys, "theory", "--config", str(path))
        assert code == 0
        assert json.loads(out)["regime"] == "critical"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = RunConfig(subcommand="theory", d=1, p=0.75, theta=1.0)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        code, out, _ = run_cli(capsys, "theory", "--config", str(path), "--p", "0.6")
        assert code == 0
        assert json.loads(out)["regime"] == "diffusive"

    def test_unknown_config_keys_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"subcommand": "theory", "bogus": 1}')
        code, _, _ = run_cli(capsys, "theory", "--config", str(path))
        assert code == 1


class TestUsageContract:
    def test_unknown_flag_is_hard_error(self, capsys):
        code, _, _ = run_cli(capsys, "theory", "--d", "1", "--theta", "1", "--p", "0.5", "--bogus")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        for name in ("theory", "simulate", "verify", "phase-diagram", "oracle"):
            assert name in out

    def test_subcommand_help_lists_flags(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--help")
        assert code == 0
        for flag in ("--d", "--lazy", "--p", "--theta", "--init", "--steps",
                     "--checkpoints", "--reps", "--seed", "--workers", "--out"):
            assert flag in out
