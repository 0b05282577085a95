"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from importlib import resources

import pytest

from repopsim.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, cli_main
from repopsim.io import TRAJECTORY_HEADER

BASELINE_PATH = str(resources.files("repopsim").joinpath("data/baseline.json"))


def write_config_file(tmp_path, name="run.json", **overrides):
    document = {
        "weeks": 1,
        "initial_counts": [371270035, 210386353, 37127004],
        "initial_pulses": 1,
    }
    document.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def run_course(tmp_path, name="course.csv", **overrides):
    config = write_config_file(tmp_path, **overrides)
    out = tmp_path / name
    assert cli_main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
    return out


class TestRun:
    def test_writes_trajectory(self, tmp_path, capsys):
        out = run_course(tmp_path)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == 1 + 12
        assert "12 records" in capsys.readouterr().out

    def test_uses_config_output_when_no_flag(self, tmp_path):
        destination = tmp_path / "from_config.csv"
        config = write_config_file(tmp_path, output=str(destination))
        assert cli_main(["run", "--config", config]) == EXIT_OK
        assert destination.exists()

    def test_missing_destination_is_validation_error(self, tmp_path, capsys):
        config = write_config_file(tmp_path)
        assert cli_main(["run", "--config", config]) == EXIT_VALIDATION
        assert "--out" in capsys.readouterr().err

    def test_invalid_weeks_names_key(self, tmp_path, capsys):
        config = write_config_file(tmp_path, weeks=0)
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", config, "--out", str(out)]) == EXIT_VALIDATION
        assert "weeks" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("theta", [1000.0, float("nan")])
    def test_unusable_theta_names_key(self, tmp_path, capsys, theta):
        config = write_config_file(tmp_path, theta=theta)
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", config, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: theta must be finite")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # a * v1 is inf: an empty compartment would divide as 0 * inf = NaN,
            # and with every compartment non-empty the integrator would fail.
            ({"a": 1e308, "v1": 100, "initial_counts": [0, 1000, 0]}, "a * v1 * exp(theta)"),
            ({"a": 1e308, "v1": 100, "initial_counts": [10, 1000, 10]}, "a * v1 * exp(theta)"),
            ({"initial_counts": [1e308, 1e308, 0]}, "initial_counts must have a finite total"),
        ],
    )
    def test_overflowing_input_is_validation_error(self, tmp_path, capsys, overrides, message):
        config = write_config_file(tmp_path, **overrides)
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", config, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_division_is_numeric_error(self, tmp_path, capsys):
        # A finite fast velocity whose daily factor 2^v2 overflows a float.
        config = write_config_file(tmp_path, a=1e300, v1=100, initial_counts=[0, 1000, 0])
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", config, "--out", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("error: cell counts overflow")

    def test_missing_config_is_io_error(self, tmp_path):
        code = cli_main(
            ["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_IO

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        first = run_course(tmp_path, name="first.csv")
        second = run_course(tmp_path, name="second.csv")
        assert first.read_bytes() == second.read_bytes()


class TestDiff:
    def test_self_diff_is_zero(self, tmp_path, capsys):
        course = run_course(tmp_path)
        out = tmp_path / "diff.csv"
        assert cli_main(["diff", str(course), str(course), "--out", str(out)]) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "day,phase,delta_phi"
        assert all(line.split(",")[2] == "0.000000000" for line in lines[1:])
        assert "(0 unmatched)" in capsys.readouterr().out

    def test_missing_input_is_io_error(self, tmp_path):
        out = tmp_path / "diff.csv"
        code = cli_main(["diff", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--out", str(out)])
        assert code == EXIT_IO

    def test_malformed_input_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trajectory\n", encoding="utf-8")
        out = tmp_path / "diff.csv"
        assert cli_main(["diff", str(bad), str(bad), "--out", str(out)]) == EXIT_VALIDATION
        assert "header" in capsys.readouterr().err

    def test_malformed_number_is_validation_error(self, tmp_path, capsys):
        course = run_course(tmp_path)
        lines = course.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[10] = "abc"
        lines[2] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "diff.csv"
        assert cli_main(["diff", str(course), str(bad), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ")
        assert "Traceback" not in err
        assert not out.exists()


class TestSweep:
    def test_writes_per_value_files_and_summary(self, tmp_path, capsys):
        config = write_config_file(tmp_path)
        out_dir = tmp_path / "sweep"
        code = cli_main(
            [
                "sweep",
                "--config",
                config,
                "--param",
                "theta",
                "--values",
                "0.0,0.005",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert (out_dir / "sweep_theta_0.0.csv").exists()
        assert (out_dir / "sweep_theta_0.005.csv").exists()
        summary = (out_dir / "sweep_summary.csv").read_text(encoding="utf-8")
        assert summary.splitlines()[0] == "value,final_total,final_phi,threshold_day,error"
        assert len(summary.splitlines()) == 3
        assert "sweep_summary.csv" in capsys.readouterr().out

    def test_out_of_range_value_continues(self, tmp_path, capsys):
        config = write_config_file(tmp_path)
        out_dir = tmp_path / "sweep"
        code = cli_main(
            [
                "sweep",
                "--config",
                config,
                "--param",
                "q_rad",
                "--values",
                "0.0005,0.7",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert (out_dir / "sweep_q_rad_0.0005.csv").exists()
        assert not (out_dir / "sweep_q_rad_0.7.csv").exists()
        summary = (out_dir / "sweep_summary.csv").read_text(encoding="utf-8")
        assert "q_rad" in summary
        assert "0.7" in capsys.readouterr().out

    def test_rejected_course_is_reported_in_summary(self, tmp_path, capsys):
        # An ode_step longer than the one-day growth interval fails inside the course.
        config = write_config_file(tmp_path)
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--config", config, "--param", "ode_step", "--values", "0.5,2.0"]
        assert cli_main([*argv, "--out-dir", str(out_dir)]) == EXIT_OK
        assert (out_dir / "sweep_ode_step_0.5.csv").exists()
        assert not (out_dir / "sweep_ode_step_2.0.csv").exists()
        with open(out_dir / "sweep_summary.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["value"] for row in rows] == ["0.5", "2.0"]
        assert rows[0]["error"] == "" and rows[0]["final_total"] != ""
        assert rows[1]["error"] == "step must lie in (0, duration], got 2.0"
        assert "value 2.0: step must lie" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "param, values, message",
        [("a", "1,x", "'x' is not a number"), ("weeks", "1,1.5", "'1.5' is not an integer")],
    )
    def test_unparseable_value_names_token(self, tmp_path, capsys, param, values, message):
        config = write_config_file(tmp_path)
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--config", config, "--param", param, "--values", values]
        assert cli_main([*argv, "--out-dir", str(out_dir)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: --values: {message}\n"
        assert not out_dir.exists()

    def test_integer_parameter_values(self, tmp_path):
        config = write_config_file(tmp_path)
        out_dir = tmp_path / "sweep"
        code = cli_main(
            [
                "sweep",
                "--config",
                config,
                "--param",
                "weeks",
                "--values",
                "1,2",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert (out_dir / "sweep_weeks_1.csv").exists()
        assert (out_dir / "sweep_weeks_2.csv").exists()


class TestCheck:
    def test_bundled_baseline_passes(self, capsys):
        assert cli_main(["check", "--config", BASELINE_PATH]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        for name in ("operator-column-sums", "pulse-closed-form", "simplex-drift", "reference-table"):
            assert name in out

    def test_invalid_config_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert cli_main(["check", "--config", str(bad)]) == EXIT_VALIDATION


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repopsim", "check", "--config", BASELINE_PATH],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.count("PASS") == 4


def test_exit_code_vocabulary():
    assert (EXIT_OK, EXIT_VALIDATION, EXIT_IO, EXIT_NUMERIC) == (0, 1, 2, 3)
