"""Command-line contract: exit codes, output files, determinism, key hygiene."""

import json

import pytest

from evobeam.arrays import ArrayConstraints, DoASet
from evobeam.cli import main
from evobeam.optimize import OptimizerConfig, Strategy, fixed_baseline, optimize_movable
from evobeam.reporting import read_events_json, read_metrics_csv

from conftest import SENTINEL_KEY

GOOD_CONFIG = """\
schema_version: 1
seed: 7
trajectory:
  num_steps: 3
  initial_angles: [60.0, 90.0, 120.0]
  drift:
    kind: random_walk
    sigma_deg_per_step: 1.0
optimizer:
  restarts: 4
"""


def write_config(tmp_path, text=GOOD_CONFIG, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_args(config, tmp_path, *extra):
    return [
        "run",
        "--config", str(config),
        "--metrics-out", str(tmp_path / "metrics.csv"),
        "--events-out", str(tmp_path / "events.json"),
        "--quiet",
        *extra,
    ]


class TestRun:
    def test_successful_run_writes_both_files(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(run_args(config, tmp_path))
        assert code == 0
        records = read_metrics_csv(tmp_path / "metrics.csv")
        assert len(records) == 3
        events, aborts = read_events_json(tmp_path / "events.json")
        assert len(events) >= 1  # the initial deployment at least
        assert aborts == ()

    def test_reruns_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        first = tmp_path / "first"
        second = tmp_path / "second"
        for out in (first, second):
            out.mkdir()
            assert main(run_args(config, out, "--seed", "42")) == 0
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()
        assert (first / "events.json").read_bytes() == (second / "events.json").read_bytes()

    def test_seed_override_changes_the_output(self, tmp_path):
        config = write_config(tmp_path)
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out, seed in ((a, "1"), (b, "2")):
            out.mkdir()
            assert main(run_args(config, out, "--seed", seed)) == 0
        assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()

    def test_steps_override(self, tmp_path):
        config = write_config(tmp_path)
        assert main(run_args(config, tmp_path, "--steps", "5")) == 0
        assert len(read_metrics_csv(tmp_path / "metrics.csv")) == 5

    def test_summary_lists_events(self, tmp_path, capsys):
        config = write_config(tmp_path)
        args = run_args(config, tmp_path)
        args.remove("--quiet")
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "steps: 3" in out
        assert "HardwareChange" in out

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(run_args(tmp_path / "nope.yaml", tmp_path))
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_field_exits_2_and_names_the_path(self, tmp_path, capsys):
        bad = GOOD_CONFIG + "constraints:\n  min_spacing: -1.0\n"
        config = write_config(tmp_path, bad)
        code = main(run_args(config, tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "constraints" in err and "min_spacing" in err

    @pytest.mark.parametrize(
        "field", ["restarts", "max_outer_iterations", "max_step_halvings"]
    )
    def test_non_integer_optimizer_count_exits_2_naming_the_field(
        self, tmp_path, capsys, field
    ):
        bad = GOOD_CONFIG.replace("restarts: 4", f"{field}: 1.5")
        config = write_config(tmp_path, bad)
        assert main(run_args(config, tmp_path)) == 2
        assert f"optimizer.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["step_size", "grid_resolution", "gain_tolerance_db"])
    def test_non_finite_optimizer_float_exits_2_naming_the_field(
        self, tmp_path, capsys, field
    ):
        bad = GOOD_CONFIG.replace("restarts: 4", f"{field}: .inf")
        config = write_config(tmp_path, bad)
        assert main(run_args(config, tmp_path)) == 2
        assert f"optimizer.{field}" in capsys.readouterr().err

    def test_unknown_key_exits_2_and_names_the_key(self, tmp_path, capsys):
        config = write_config(tmp_path, GOOD_CONFIG + "turbo: true\n")
        assert main(run_args(config, tmp_path)) == 2
        assert "turbo" in capsys.readouterr().err

    def test_infeasible_constraints_exit_2(self, tmp_path, capsys):
        bad = GOOD_CONFIG + "constraints:\n  num_elements: 64\n  position_bound: 0.1\n"
        config = write_config(tmp_path, bad)
        assert main(run_args(config, tmp_path)) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unwritable_metrics_path_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path)
        args = [
            "run",
            "--config", str(config),
            "--metrics-out", str(tmp_path / "missing_dir" / "metrics.csv"),
            "--events-out", str(tmp_path / "events.json"),
            "--quiet",
        ]
        assert main(args) == 3
        assert "output error" in capsys.readouterr().err

    def test_degradation_events_do_not_fail_the_exit_code(self, tmp_path):
        config_text = """\
schema_version: 1
seed: 3
trajectory:
  num_steps: 14
  initial_angles: [60.0, 85.0, 110.0]
  drift:
    kind: scripted
    waypoints:
      - [60.0, 85.0, 110.0]
      - [60.0, 85.0, 110.0]
      - [60.0, 85.0, 110.0]
      - [60.0, 85.0, 110.0]
      - [60.0, 85.0, 110.0]
      - [60.0, 85.0, 110.0]
      - [60.0, 85.0, 110.0]
      - [60.0, 85.0, 110.0]
      - [60.0, 85.0, 110.0]
      - [60.0, 85.0, 110.0]
      - [100.0, 125.0, 150.0]
      - [100.0, 125.0, 150.0]
      - [100.0, 125.0, 150.0]
      - [100.0, 125.0, 150.0]
optimizer:
  restarts: 4
"""
        config = write_config(tmp_path, config_text)
        assert main(run_args(config, tmp_path)) == 0
        events, _ = read_events_json(tmp_path / "events.json")
        assert any(e.trigger_step == 10 for e in events)


class TestOptimizeAndBaseline:
    def test_single_user_matches_the_library(self, capsys):
        assert main(["optimize", "90", "--restarts", "2"]) == 0
        out = capsys.readouterr().out
        assert "9.030900" in out  # 10*log10(8)

    def test_baseline_single_user(self, capsys):
        assert main(["baseline", "90"]) == 0
        out = capsys.readouterr().out
        assert "9.030900" in out

    def test_optimize_output_matches_library_result(self, capsys):
        angles = (50.0, 90.0, 130.0)
        assert main([
            "optimize", *[str(a) for a in angles],
            "--restarts", "4", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        solution = optimize_movable(
            DoASet(angles),
            OptimizerConfig(restarts=4, seed=5),
            ArrayConstraints(),
        )
        assert f"{solution.gain_db:.6f}" in out

    def test_optimize_beats_printed_baseline(self, capsys):
        assert main(["optimize", "70", "110", "--restarts", "4"]) == 0
        out = capsys.readouterr().out
        lines = {line.split(":")[0]: line for line in out.splitlines() if ":" in line}
        gain = float(lines["gain"].split(":")[1].split()[0])
        fixed = float(lines["fixed baseline"].split(":")[1].split()[0])
        assert gain >= fixed - 1e-9

    def test_strategy_coordinate_is_accepted(self, capsys):
        assert main(["optimize", "80", "100", "--strategy", "coordinate",
                     "--restarts", "2"]) == 0
        assert "coordinate" in capsys.readouterr().out

    def test_strategy_auto_picks_the_better_gain(self, capsys):
        assert main(["optimize", "60", "90", "120", "--strategy", "auto",
                     "--restarts", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        printed = float(
            [l for l in out.splitlines() if l.startswith("gain:")][0]
            .split(":")[1].split()[0]
        )
        doas = DoASet((60.0, 90.0, 120.0))
        constraints = ArrayConstraints()
        best = max(
            (
                optimize_movable(
                    doas, OptimizerConfig(strategy=s, restarts=2, seed=3), constraints
                )
                for s in (Strategy.GRADIENT, Strategy.COORDINATE)
            ),
            key=lambda s: s.gain_db,
        )
        assert printed == pytest.approx(best.gain_db, abs=1e-6)

    def test_baseline_matches_library_gain(self, capsys):
        angles = (40.0, 90.0, 140.0)
        assert main(["baseline", *[str(a) for a in angles]]) == 0
        out = capsys.readouterr().out
        expected = fixed_baseline(DoASet(angles), ArrayConstraints())
        assert f"{expected.gain_db:.6f}" in out

    def test_out_of_range_angle_exits_2(self, capsys):
        assert main(["optimize", "190"]) == 2
        assert "configuration error" in capsys.readouterr().err


class TestLlmFlag:
    def llm_config(self, tmp_path, url):
        text = GOOD_CONFIG + (
            "llm:\n"
            f"  base_url: {url}\n"
            "  model_name: routing-model\n"
            "  api_key_env: EVOBEAM_API_KEY\n"
        )
        return write_config(tmp_path, text)

    def test_llm_flag_without_section_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(run_args(config, tmp_path, "--llm")) == 2
        assert "llm" in capsys.readouterr().err

    def test_llm_flag_without_api_key_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("EVOBEAM_API_KEY", raising=False)
        config = self.llm_config(tmp_path, "http://127.0.0.1:1/v1")
        assert main(run_args(config, tmp_path, "--llm")) == 2
        assert "EVOBEAM_API_KEY" in capsys.readouterr().err

    def test_llm_run_matches_plain_run(self, tmp_path, monkeypatch, endpoint):
        monkeypatch.setenv("EVOBEAM_API_KEY", SENTINEL_KEY)
        endpoint.reply_content("DataCollection")  # usually illegal, so fallback
        config = self.llm_config(tmp_path, endpoint.url)
        plain = tmp_path / "plain"
        routed = tmp_path / "routed"
        plain.mkdir()
        routed.mkdir()
        assert main(run_args(config, plain)) == 0
        assert main(run_args(config, routed, "--llm")) == 0
        assert (plain / "metrics.csv").read_bytes() == (routed / "metrics.csv").read_bytes()
        assert (plain / "events.json").read_bytes() == (routed / "events.json").read_bytes()
        assert len(endpoint.seen) > 0

    def test_no_key_material_leaks(self, tmp_path, monkeypatch, capsys, endpoint):
        monkeypatch.setenv("EVOBEAM_API_KEY", SENTINEL_KEY)
        endpoint.reply_content("Training")
        config = self.llm_config(tmp_path, endpoint.url)
        args = run_args(config, tmp_path, "--llm")
        args.remove("--quiet")
        assert main(args) == 0
        captured = capsys.readouterr()
        for blob in (
            captured.out,
            captured.err,
            (tmp_path / "metrics.csv").read_text(),
            (tmp_path / "events.json").read_text(),
        ):
            assert SENTINEL_KEY not in blob
        # the key must still have reached the endpoint itself
        assert any(SENTINEL_KEY in r["authorization"] for r in endpoint.seen)

    def test_summary_reports_acceptance_counts(self, tmp_path, monkeypatch, capsys, endpoint):
        monkeypatch.setenv("EVOBEAM_API_KEY", SENTINEL_KEY)
        endpoint.reply_content("garbage answer")
        config = self.llm_config(tmp_path, endpoint.url)
        args = run_args(config, tmp_path, "--llm")
        args.remove("--quiet")
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "llm routing: 0/" in out


class TestEventsFile:
    def test_events_document_shape(self, tmp_path):
        config = write_config(tmp_path)
        assert main(run_args(config, tmp_path)) == 0
        document = json.loads((tmp_path / "events.json").read_text())
        assert set(document) == {"schema_version", "events", "aborts"}
        event = document["events"][0]
        assert event["reason"] == "HardwareChange"
        assert event["agent_sequence"][0] == "DataCollection"
        assert event["agent_sequence"][-1] == "Deployment"
