"""Command-line contract: exit codes, output files, determinism, key hygiene."""

import contextlib
import io
import json
import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from evobeam import cli, lifecycle
from evobeam.arrays import ArrayConstraints, DoASet
from evobeam.cli import main
from evobeam.channel import MAX_STEPS
from evobeam.errors import ConfigurationError, ValidationError
from evobeam.optimize import MAX_RESTARTS, OptimizerConfig, fixed_baseline, optimize_movable
from evobeam.reporting import read_events_json, read_metrics_csv
from evobeam.scenario import MAX_RETRIES, MAX_TIMEOUT_S

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


SCRIPTED_CONFIG = """\
schema_version: 1
trajectory:
  num_steps: 3
  initial_angles: [60.0, 90.0, 120.0]
  drift:
    kind: scripted
    waypoints: [[60.0, 90.0, 120.0], [61.0, 90.0, 120.0], [62.0, 90.0, 120.0]]
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
        "path, value",
        [
            ("seed", math.inf),
            ("seed", math.nan),
            ("trajectory.num_steps", math.inf),
            ("trajectory.num_steps", math.nan),
            ("constraints.num_elements", math.inf),
            ("constraints.num_elements", math.nan),
            ("optimizer.restarts", 1.5),
            ("optimizer.restarts", math.inf),
            ("llm.max_retries", 1.5),
            ("llm.max_retries", True),
            ("llm.max_retries", MAX_RETRIES + 1),
            ("llm.timeout_s", math.inf),
            ("llm.timeout_s", MAX_TIMEOUT_S * 2),
            ("llm.timeout_s", 1.0e300),
        ],
        ids=str,
    )
    def test_bad_number_exits_2_naming_the_field(
        self, tmp_path, capsys, monkeypatch, path, value
    ):
        document = yaml.safe_load(GOOD_CONFIG)
        document["llm"] = {"base_url": "http://127.0.0.1:1/v1", "model_name": "m"}
        *sections, key = path.split(".")
        node = document
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = value
        config = write_config(tmp_path, yaml.safe_dump(document))
        monkeypatch.setenv("EVOBEAM_API_KEY", SENTINEL_KEY)
        assert main(run_args(config, tmp_path, "--llm")) == 2
        assert f"configuration error: {path}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, message",
        [
            (
                "monitoring:\n  relative_drop_threshold_db: 3.0\n",
                "monitoring: unknown configuration section",
            ),
            (
                "estimation:\n  grid_resolution_deg: 0.5\n",
                "estimation: unknown configuration section",
            ),
            ("csi:\n  snr_db: 10.0\n  num_snapshots: 200\n", "csi.num_snapshots: unknown field"),
            (
                "trajectory:\n  initial_angles: [60.0, 90.0, 120.0]\n  angle_bounds: [5.0, 175.0]\n",
                "trajectory.angle_bounds: unknown field",
            ),
        ],
        ids=["monitoring", "estimation", "num_snapshots", "angle_bounds"],
    )
    def test_fixed_sensing_setting_exits_2_before_the_episode_runs(
        self, tmp_path, capsys, monkeypatch, section, message
    ):
        # the drop threshold, snapshot count, scan grid and angle bounds are
        # constants, so a config that sets one is rejected, not ignored
        def no_episode(*args, **kwargs):
            raise AssertionError("the episode must not start")

        monkeypatch.setattr(cli, "run_episode", no_episode)
        text = "schema_version: 1\n" + section
        if not section.startswith("trajectory"):
            text += "trajectory:\n  initial_angles: [60.0, 90.0, 120.0]\n"
        config = write_config(tmp_path, text)
        assert main(run_args(config, tmp_path)) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, path",
        [
            ("optimizer:\n  restarts: 1000000000000000\n", "optimizer.restarts"),
            (
                "constraints:\n  num_elements: 1000000000\n  position_bound: 1.0e+9\n",
                "constraints.num_elements",
            ),
            ("csi:\n  snr_db: -1.0e+308\n", "csi.snr_db"),
        ],
        ids=["restarts", "num_elements", "snr_db"],
    )
    def test_value_that_cannot_run_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch, section, path
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("nothing may be solved")

        monkeypatch.setattr(lifecycle, "optimize_movable", no_solve)
        text = GOOD_CONFIG.replace("optimizer:\n  restarts: 4\n", "") + section
        config = write_config(tmp_path, text)
        assert main(run_args(config, tmp_path)) == 2
        assert f"configuration error: {path}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("strategy", "coordinate"),
            ("seed", 3),
            ("grid_resolution", 0.01),
            ("step_size", 0.05),
            ("max_outer_iterations", 500),
            ("gain_tolerance_db", 1.0e-6),
            ("max_step_halvings", 20),
        ],
    )
    def test_unknown_optimizer_field_exits_2(self, tmp_path, capsys, field, value):
        config = write_config(tmp_path, GOOD_CONFIG + f"  {field}: {value}\n")
        assert main(run_args(config, tmp_path)) == 2
        assert f"configuration error: optimizer.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, path, text",
        [
            ("--steps=0", "trajectory.num_steps", GOOD_CONFIG),
            (f"--steps={MAX_STEPS + 1}", "trajectory.num_steps", GOOD_CONFIG),
            ("--steps=1000000000", "trajectory.num_steps", GOOD_CONFIG),
            ("--snr=-1e308", "csi.snr_db", GOOD_CONFIG),
            ("--steps=5", "trajectory.drift.waypoints", SCRIPTED_CONFIG),
        ],
    )
    def test_override_that_cannot_run_exits_2_naming_the_field(
        self, tmp_path, capsys, monkeypatch, flag, path, text
    ):
        def no_episode(*args, **kwargs):
            raise AssertionError("the episode must not start")

        monkeypatch.setattr(cli, "run_episode", no_episode)
        config = write_config(tmp_path, text)
        assert main(run_args(config, tmp_path, flag)) == 2
        assert f"configuration error: {path}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("error", [ValidationError, ConfigurationError])
    def test_an_error_the_run_raises_exits_1(self, tmp_path, capsys, monkeypatch, error):
        # the loader accepted the file, so an error from inside the run is
        # a defect of the program, not a configuration problem
        def broken_run(*args, **kwargs):
            raise error("adjacent spacing 0.06 below minimum 0.0625")

        monkeypatch.setattr(cli, "run_episode", broken_run)
        assert main(run_args(write_config(tmp_path), tmp_path)) == 1
        assert capsys.readouterr().err == "error: adjacent spacing 0.06 below minimum 0.0625\n"

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

    def test_optimize_prints_no_strategy_line(self, capsys):
        assert main(["optimize", "80", "100", "--restarts", "2"]) == 0
        out = capsys.readouterr().out
        assert [l.split(":")[0] for l in out.splitlines()] == [
            "directions (deg)", "positions (wavelengths)", "gain", "fixed baseline",
        ]

    def test_optimize_on_a_wide_array_matches_library_result(self, capsys):
        angles = (40.0, 70.0, 100.0, 130.0, 160.0)
        assert main([
            "optimize", *[str(a) for a in angles],
            "--num-elements", "16", "--restarts", "2", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        solution = optimize_movable(
            DoASet(angles),
            OptimizerConfig(restarts=2, seed=1),
            ArrayConstraints(num_elements=16),
        )
        assert f"gain: {solution.gain_db:.6f} dB" in out

    def test_optimize_has_no_strategy_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "80", "100", "--strategy", "gradient"])
        assert exc.value.code == 2
        assert "--strategy" in capsys.readouterr().err

    def test_baseline_matches_library_gain(self, capsys):
        angles = (40.0, 90.0, 140.0)
        assert main(["baseline", *[str(a) for a in angles]]) == 0
        out = capsys.readouterr().out
        expected = fixed_baseline(DoASet(angles), ArrayConstraints())
        assert f"{expected.gain_db:.6f}" in out

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--restarts", "1000000000000000"], "optimizer.restarts"),
            (["--num-elements", "1000000000", "--position-bound", "1e9"], "num_elements"),
            (["--seed=-5"], "optimizer.seed"),
        ],
    )
    def test_count_out_of_range_exits_2_before_the_solve(
        self, capsys, monkeypatch, flags, name
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("nothing may be solved")

        monkeypatch.setattr(cli, "optimize_movable", no_solve)
        assert main(["optimize", "60", "90", *flags]) == 2
        assert f"configuration error: {name}" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None)
    @given(
        angle=st.floats(1.0, 179.0),
        seed=st.one_of(st.integers(max_value=-1), st.just(0), st.integers(2**64, 2**200)),
        restarts=st.sampled_from([-1, 0, 1, 2, MAX_RESTARTS + 1]),
    )
    def test_optimize_runs_or_exits_2(self, angle, seed, restarts):
        """Every seed and restart count evobeam optimize parses runs or exits 2."""
        args = [
            "optimize", repr(angle), "--num-elements=3",
            f"--seed={seed}", f"--restarts={restarts}",
        ]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
        runs = seed >= 0 and 1 <= restarts <= MAX_RESTARTS
        assert code == (0 if runs else 2), err.getvalue()

    @pytest.mark.parametrize("command", ["optimize", "baseline"])
    @pytest.mark.parametrize("error", [ValidationError, ConfigurationError])
    def test_an_error_the_solve_raises_exits_1(self, capsys, monkeypatch, command, error):
        def broken_solve(*args, **kwargs):
            raise error("solver fault")

        monkeypatch.setattr(cli, "fixed_baseline", broken_solve)
        assert main([command, "60", "90"]) == 1
        assert capsys.readouterr().err == "error: solver fault\n"

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

    @pytest.mark.parametrize("extra", [(), ("--llm",)], ids=["plain", "llm"])
    def test_api_key_in_the_config_exits_2(self, tmp_path, capsys, monkeypatch, extra):
        monkeypatch.setenv("EVOBEAM_API_KEY", SENTINEL_KEY)
        path = self.llm_config(tmp_path, "http://127.0.0.1:1/v1")
        path.write_text(path.read_text() + "  api_key: sk-in-a-file\n")
        assert main(run_args(path, tmp_path, *extra)) == 2
        err = capsys.readouterr().err
        assert "configuration error: llm.api_key: unknown field" in err
        assert "sk-in-a-file" not in err

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
