import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import subprocess_env
from memwalk import montecarlo, oracle
from memwalk.cli import RunConfig, build_parser, main
from memwalk.model import InitialSpec, validate_params

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


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

    def test_runs_without_scipy(self):
        # the superdiffusive document reaches the Hurwitz-zeta tails
        script = (
            "import sys\n"
            "import memwalk\n"
            "from memwalk import cli\n"
            "code = cli.main(['theory', '--d', '1', '--theta', '1', '--p', '0.9'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(), capture_output=True,
                              text=True, timeout=60)
        assert proc.stderr == "0 []\n"
        assert "weight_square_series" in json.loads(proc.stdout)["superdiffusive"]

    def test_invalid_params_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "theory", "--d", "1", "--theta", "1", "--p", "1.5")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("init", ["bogus", "fixed:99", "custom:/nonexistent"])
    def test_bad_init_exits_one_at_a_diffusive_point(self, capsys, init):
        # the diffusive document never reads the start, but a bad one is still an error
        code, out, err = run_cli(capsys, "theory", "--d", "1", "--theta", "1", "--p", "0.6", "--init", init)
        assert (code, out) == (1, "")
        assert err.startswith("memwalk: error:")

    @pytest.mark.parametrize("p", ["0.6", "0.75", "0.9"])
    def test_output_matches_documented_schema(self, capsys, p):
        schema = load_schema("theory")
        code, out, _ = run_cli(capsys, "theory", "--d", "2", "--theta", "1", "--p", p)
        assert code == 0
        jsonschema.validate(json.loads(out), schema)

    def test_fully_persistent_point_has_no_lln_limit(self, capsys):
        # theta = p = 1: S_n / n tends to the random first step, so there is no deterministic limit
        code, out, _ = run_cli(capsys, "theory", "--d", "1", "--theta", "1", "--p", "1")
        assert code == 0
        jsonschema.validate(json.loads(out), load_schema("theory"))
        assert '"lln_limit": null' in out


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

    def test_walks_stop_at_the_last_checkpoint(self, monkeypatch, tmp_path):
        steps_run = []
        block = montecarlo._simulate_block

        def spy(params, init, marks, *rest):
            steps_run.append(marks[-1])
            return block(params, init, marks, *rest)

        monkeypatch.setattr(montecarlo, "_simulate_block", spy)
        paths = []
        for steps in ("10000", "100"):
            paths.append(tmp_path / f"{steps}.csv")
            code = main([
                "simulate", "--d", "2", "--theta", "0.8", "--p", "0.6", "--steps", steps,
                "--checkpoints", "100", "--reps", "30", "--seed", "3", "--out", str(paths[-1]),
            ])
            assert code == 0
        assert steps_run == [100, 100]
        assert paths[0].read_bytes() == paths[1].read_bytes()

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
        env = subprocess_env()
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
        # without checkpoints clt-critical runs --steps (its marks are 200 and 2 000);
        # with them a run ends at its last checkpoint, whatever --steps says
        common = ["--d", "1", "--theta", "1", "--steps", "2000", "--reps", "200", "--seed", "7"]
        _, out, _ = run_cli(capsys, "verify", "--tag", "clt-critical", "--p", "0.75", *common)
        assert json.loads(out)["config"]["n_steps"] == 2_000
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

    def test_moments_corner_with_zero_limit_passes(self, capsys):
        # from a fixed first step at theta = p = 1 the walk is deterministic:
        # the limit second moment and the sample's are both exactly 0
        code, out, _ = run_cli(
            capsys, "verify", "--tag", "moments", "--d", "1", "--theta", "1", "--p", "1",
            "--init", "fixed:0", "--steps", "200", "--reps", "100",
        )

        def reject(constant):
            raise ValueError(f"{constant} in verify JSON")

        report = json.loads(out, parse_constant=reject)
        assert code == 0
        assert report["discrepancy"]["second_moment_rel"] == 0.0

    def test_infinite_gate_reads_null(self, capsys):
        # at theta = 0, p = 1 the limit covariance is 0 but the sample's is not:
        # both gates read inf, which strict JSON writes as null
        code, out, _ = run_cli(
            capsys, "verify", "--tag", "clt-diffusive", "--d", "1", "--theta", "0", "--p", "1",
            "--steps", "200", "--reps", "1000",
        )

        def reject(constant):
            raise ValueError(f"{constant} in verify JSON")

        report = json.loads(out, parse_constant=reject)
        assert code == 2 and report["passed"] is False
        assert report["discrepancy"]["covariance_se_units"] == [[None]]
        assert report["discrepancy"]["cross_time_rel"] is None

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

    def test_default_steps_estimate_an_exponent(self, capsys):
        # 1 000 steps: the checkpoints start at 10, so they span two decades
        code, out, _ = run_cli(
            capsys, "phase-diagram", "--d", "1", "--theta-grid", "1.0", "--p-grid", "0.6,0.9", "--seed", "3",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 2 and all(np.isfinite(float(r[4])) for r in rows)

    def test_short_run_exits_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "phase-diagram", "--d", "1", "--theta-grid", "1.0", "--p-grid", "0.6", "--steps", "50",
            "--reps", "20", "--seed", "3",
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 2

    def test_grid_range_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "phase-diagram", "--d", "1", "--theta-grid", "1.0", "--p-grid", "0.5:0.9:3", "--steps", "50",
            "--reps", "20", "--seed", "3",
        )
        assert code == 0
        assert [float(line.split(",")[0]) for line in out.splitlines()[1:]] == list(np.linspace(0.5, 0.9, 3))

    def test_grid_range_needs_a_count(self, capsys):
        code, out, err = run_cli(capsys, "phase-diagram", "--d", "1", "--theta-grid", "1.0", "--p-grid", "0.5:0.9")
        assert (code, out) == (1, "")
        assert "--p-grid" in err

    def test_empty_grid_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "phase-diagram", "--d", "1")
        assert code == 1

    @pytest.mark.parametrize("grid, message", [
        (["--theta-grid", "1", "--p-grid", "0.5,1.5"], "p must lie in [0, 1], got 1.5"),
        (["--theta-grid", "1,1.5", "--p-grid", "0.5"], "theta must lie in [0, 1], got 1.5"),
    ])
    def test_every_point_checked_before_the_first_walk(self, capsys, monkeypatch, grid, message):
        def fail(*args, **kwargs):
            raise AssertionError("a point walked before the grid was checked")

        monkeypatch.setattr(montecarlo, "run_ensemble", fail)
        code, out, err = run_cli(capsys, "phase-diagram", "--d", "1", *grid, "--steps", "100000", "--reps", "200")
        assert (code, out, err) == (1, "", f"memwalk: error: {message}\n")


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

    @pytest.mark.parametrize("d, lazy, p, theta, steps", [
        (1, False, 0.75, 1.0, (1, 2, 5, 12)),
        (1, False, 1e-300, 0.4, (3,)),  # subnormal and zero path probabilities
        (1, True, 0.5, 0.6, (1, 2, 7)),
        (2, False, 1.0, 1.0, (1, 2, 6)),  # p = theta = 1: most paths have probability 0
        (2, True, 0.2, 0.3, (1, 2, 5)),
    ])
    def test_bytes_match_the_indented_json_encoder(self, capsys, tmp_path, d, lazy, p, theta, steps):
        # the paths are rendered by hand; every byte must be what json.dumps(indent=2) writes
        params = validate_params(d, lazy, p, theta)
        K = params.K
        custom = np.arange(1, K + 1) / (K * (K + 1) / 2)
        (tmp_path / "probs.json").write_text(json.dumps(custom.tolist()))
        starts = {"uniform": InitialSpec.uniform(), f"fixed:{K - 1}": InitialSpec.fixed(K - 1),
                  f"custom:{tmp_path / 'probs.json'}": InitialSpec.custom(custom)}
        for n in steps:
            for flag, init in starts.items():
                dist = oracle.enumerate_paths(params, init, n)
                doc = {
                    "params": {"d": d, "lazy": lazy, "K": K, "p": p, "theta": theta},
                    "n": n,
                    "paths": [{"sequence": list(seq), "probability": prob} for seq, prob in dist.sequences()],
                    **montecarlo.json_ready(dataclasses.asdict(oracle.exact_marginals(params, init, n))),
                }
                argv = ["--d", str(d), "--p", repr(p), "--theta", repr(theta), "--steps", str(n), "--init", flag]
                code, out, err = run_cli(capsys, "oracle", *argv, *(["--lazy"] if lazy else []))
                assert (code, err) == (0, "")
                assert out == json.dumps(doc, indent=2) + "\n"

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

    def test_simulate_file_checkpoints_ignored_by_lln(self, capsys, tmp_path):
        # lln reads no checkpoints: a file's are dropped, the flag is still refused
        cfg = RunConfig(subcommand="simulate", d=1, p=0.8, theta=0.3, n_steps=2000,
                        checkpoints=[100, 2000], replicas=100, seed=123)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        code, out, err = run_cli(capsys, "verify", "--tag", "lln", "--config", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["n_steps"] == 2000
        code, out, err = run_cli(capsys, "verify", "--tag", "lln", "--config", str(path), "--checkpoints", "100,2000")
        assert (code, out) == (1, "")
        assert "reads no checkpoints" in err

    def test_file_checkpoints_reach_clt_critical(self, capsys, tmp_path):
        cfg = RunConfig(subcommand="verify", tag="clt-critical", d=1, p=0.75, theta=1.0,
                        checkpoints=[3, 30], replicas=2000, seed=7)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        code, out, _ = run_cli(capsys, "verify", "--config", str(path))
        assert code == 2  # the same verdict as test_statistical_fail_exit_two
        assert json.loads(out)["config"]["n_steps"] == 30

    def test_unknown_config_keys_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"subcommand": "theory", "bogus": 1}')
        code, _, _ = run_cli(capsys, "theory", "--config", str(path))
        assert code == 1

    def test_config_without_subcommand_runs_the_named_one(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"d": 1, "p": 0.75}')
        code, out, err = run_cli(capsys, "theory", "--config", str(path))
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "theory", "--d", "1", "--p", "0.75")[1]

    def test_config_that_is_not_an_object_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[]")
        code, out, err = run_cli(capsys, "theory", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("memwalk: error:") and "JSON object" in err

    @pytest.mark.parametrize("command, key, other", [
        ("simulate", "checkpoints", {}),
        ("phase-diagram", "p_grid", {"theta_grid": [1.0]}),
        ("phase-diagram", "theta_grid", {"p_grid": [0.9]}),
    ])
    def test_config_list_key_holding_a_number_rejected(self, capsys, tmp_path, command, key, other):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"subcommand": command, key: 5, **other}))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("memwalk: error:") and repr(key) in err

    def test_custom_init_file_holding_a_number_rejected(self, capsys, tmp_path):
        path = tmp_path / "probs.json"
        path.write_text("5")
        code, out, err = run_cli(capsys, "theory", "--p", "0.9", "--init", f"custom:{path}")
        assert (code, out) == (1, "")
        assert err.startswith("memwalk: error:") and str(path) in err


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

    @pytest.mark.parametrize("command, flag", [
        *[("theory", flag) for flag in ("--steps", "--checkpoints", "--reps", "--seed", "--workers")],
        *[("oracle", flag) for flag in ("--checkpoints", "--reps", "--seed", "--workers")],
        *[("phase-diagram", flag) for flag in ("--p", "--theta", "--checkpoints")],
    ])
    def test_unread_flag_rejected(self, capsys, command, flag):
        # each of these runs with the flag left out; with abbreviations
        # allowed, phase-diagram would take --p for --p-grid and run
        valid = {
            "theory": ["--d", "1", "--theta", "1", "--p", "0.75"],
            "oracle": ["--d", "1", "--theta", "1", "--p", "0.75", "--steps", "2"],
            "phase-diagram": ["--d", "1", "--p-grid", "0.6", "--theta-grid", "1", "--steps", "50", "--reps", "20"],
        }
        code, out, err = run_cli(capsys, command, *valid[command], flag, "1")
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {flag}" in err

    def test_abbreviated_flag_rejected(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--d", "1", "--theta", "1", "--p", "0.6", "--steps", "10",
                                 "--rep", "10")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --rep" in err

    @pytest.mark.parametrize("command", [
        ["verify", "--tag", "superdiffusive", "--d", "1", "--p", "0.9"],
        ["phase-diagram", "--d", "1", "--theta-grid", "1", "--p-grid", "0.9"],
    ], ids=["verify", "phase-diagram"])
    @pytest.mark.parametrize("steps", ["0", "-5"])
    @pytest.mark.filterwarnings("error")
    def test_steps_below_one_rejected_before_the_checkpoints(self, capsys, command, steps):
        code, out, err = run_cli(capsys, *command, "--steps", steps)
        assert (code, out, err) == (1, "", "memwalk: error: n_steps must be >= 1\n")

    def test_checkpoints_rejected_by_a_tag_that_ignores_them(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--tag", "lln", "--d", "1", "--theta", "0.3", "--p", "0.8",
                                 "--steps", "10", "--reps", "10", "--checkpoints", "10")
        assert (code, out) == (1, "")
        assert "reads no checkpoints" in err

    def test_reused_parser_matches_fresh_processes(self, capsys, tmp_path):
        # the parser is built once per process; no call may leave state for the next
        path = tmp_path / "cfg.json"
        path.write_text(RunConfig(subcommand="simulate", d=1, p=0.8, theta=0.3, n_steps=200,
                                  checkpoints=[100, 200], replicas=20, seed=5).to_json())
        calls = [
            ["simulate", "--d", "1", "--lazy", "--theta", "0.3", "--p", "0.8", "--steps", "50",
             "--checkpoints", "10,50", "--reps", "20", "--seed", "4"],
            ["verify", "--tag", "lln", "--config", str(path)],
            ["theory", "--d", "1", "--theta", "1", "--p", "0.75", "--steps", "10"],
            ["oracle", "--d", "1", "--theta", "1", "--p", "0.75", "--steps", "3"],
        ]
        in_process = [run_cli(capsys, *argv)[:2] for argv in calls]
        assert build_parser() is build_parser()
        fresh = [subprocess.run([sys.executable, "-m", "memwalk", *argv], capture_output=True, text=True,
                                env=subprocess_env(), timeout=120) for argv in calls]
        assert in_process == [(proc.returncode, proc.stdout) for proc in fresh]
        assert [code for code, _ in in_process] == [0, 0, 1, 0]

    def test_subcommand_help_lists_flags(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--help")
        assert code == 0
        for flag in ("--d", "--lazy", "--p", "--theta", "--init", "--steps",
                     "--checkpoints", "--reps", "--seed", "--workers", "--out"):
            assert flag in out
