"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from importlib import resources
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repopsim import (
    ModelParams,
    PopulationState,
    SchemaError,
    analysis,
    apply_pulse,
    cli,
    load_config,
    load_reference_table,
    simulate_course,
    write_trajectory,
)
from repopsim import io as repopsim_io
from repopsim.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, cli_main
from repopsim.io import TRAJECTORY_HEADER

from .conftest import open_fds

BASELINE_PATH = str(resources.files("repopsim").joinpath("data/baseline.json"))
MIXING_PATH = str(resources.files("repopsim").joinpath("data/mixing.json"))
BENCH_LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"

# File contents that json.loads or UTF-8 decoding cannot read.
DEEP_JSON = "[" * 100000 + "]" * 100000
NOT_UTF8 = b"\xff\xfe"


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


def config_bytes(**overrides) -> bytes:
    return json.dumps({"weeks": 1, "initial_counts": [6, 3, 1], **overrides}).encode()


def run_rejected_in_subprocess(tmp_path, content: bytes) -> str:
    """stderr of `repopsim run` on a config that must exit 1 at once, writing nothing."""
    config = tmp_path / "rejected.json"
    config.write_bytes(content)
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "never.csv")]
    result = subprocess.run(
        [sys.executable, "-m", "repopsim", *argv], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == EXIT_VALIDATION
    assert not (tmp_path / "never.csv").exists()
    return result.stderr


# A valid real-mode config whose counts all underflow to zero by day 18.
_UNDERFLOWING = {"alpha": 0.2, "beta": 0.02, "dose": 50.0, "integer_rounding": False, "weeks": 6}


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

    @pytest.mark.parametrize(
        "output, argv, message",
        [
            ("", [], "error: output must be a nonempty path with no NUL, got ''\n"),
            (
                "config.csv",
                ["--out", ""],
                "error: --out must be a nonempty path with no NUL, got ''\n",
            ),
        ],
        ids=["config-output", "out-flag"],
    )
    def test_empty_destination_is_rejected_before_the_course(
        self, tmp_path, capsys, monkeypatch, output, argv, message
    ):
        # "" once ran the whole course and then failed to open '.', or gave
        # way to the config's output.
        def course(params, initial):
            raise AssertionError("the course ran")

        monkeypatch.setattr(cli, "simulate_course", course)
        monkeypatch.chdir(tmp_path)
        config = write_config_file(tmp_path, output=output)
        assert cli_main(["run", "--config", config, *argv]) == EXIT_VALIDATION
        assert capsys.readouterr().err == message
        assert not (tmp_path / "config.csv").exists()

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

    @pytest.mark.parametrize(
        "fragment, message",
        [
            ('"dose": 1000', "the survival fraction exp(-(alpha*dose + beta*dose^2)) must be > 0"),
            ('"dose": 1e400', "dose must be finite, got inf"),
            ('"alpha": 1e400', "alpha must be finite, got inf"),
            ('"alpha": 0, "beta": 0, "dose": 1e400', "dose must be finite, got inf"),
        ],
    )
    def test_vanishing_survival_names_keys(self, tmp_path, capsys, fragment, message):
        config = tmp_path / "run.json"
        config.write_text(
            '{"weeks": 1, "initial_counts": [600, 340, 60], ' + fragment + "}", encoding="utf-8"
        )
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_course_longer_than_ten_years_exits_at_once(self, tmp_path):
        # Unguarded, this course would run for 7 * 10**8 days, keeping a record for each.
        content = config_bytes(weeks=100_000_000, dose=0, v0=0, v1=0)
        err = run_rejected_in_subprocess(tmp_path, content)
        assert err == "error: weeks must lie in [1, 520], got 100000000\n"

    def test_overflowing_division_is_numeric_error(self, tmp_path, capsys):
        # A finite fast velocity whose daily factor 2^v2 overflows a float.
        config = write_config_file(tmp_path, a=1e300, v1=100, initial_counts=[0, 1000, 0])
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", config, "--out", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("error: cell counts overflow")

    def test_real_counts_underflowing_to_zero_are_numeric_error(self, tmp_path, capsys):
        # At dose 50 a pulse keeps exp(-60) of the cells: the 13th, on day
        # 18, leaves no real-valued cell for the day's growth.
        config = write_config_file(tmp_path, **_UNDERFLOWING)
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", config, "--out", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == "error: real-valued cell counts underflow to zero on day 18\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (DEEP_JSON.encode(), "error: configuration is not valid JSON: maximum recursion"),
            (NOT_UTF8, "error: {path}: configuration is not UTF-8 text"),
            (config_bytes(alpha=10**400), "error: alpha is too large, got an integer of 401"),
            (
                config_bytes(initial_pulses=10**400),
                "error: initial_pulses is too large, got an integer of 401",
            ),
            (
                config_bytes(output="a\0b"),
                "error: output must be a nonempty path with no NUL, got 'a\\x00b'",
            ),
        ],
        ids=["deeply-nested", "not-utf8", "huge-number", "huge-pulse-count", "nul-in-output"],
    )
    def test_malformed_config_file_is_validation_error(self, tmp_path, capsys, content, message):
        config = tmp_path / "bad.json"
        config.write_bytes(content)
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(message.format(path=config))
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_config_is_io_error(self, tmp_path):
        code = cli_main(
            ["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_IO

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        first = run_course(tmp_path, name="first.csv")
        second = run_course(tmp_path, name="second.csv")
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("ode_step", [0.01, 1e-300, 2.0, "x", None])
    def test_retired_ode_step_key_is_ignored(self, tmp_path, ode_step):
        # Each growth day is exact, so the key sets nothing; a config that
        # still names it, with any value, runs as one without it.
        mixing = json.loads(Path(MIXING_PATH).read_text(encoding="utf-8"))
        assert "ode_step" not in mixing
        outputs = []
        for name, document in (("without", mixing), ("with", {**mixing, "ode_step": ode_step})):
            config = write_config_file(tmp_path, f"{name}.json", **document)
            out = tmp_path / f"{name}.csv"
            assert cli_main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestDiff:
    def test_self_diff_is_zero(self, tmp_path, capsys):
        course = run_course(tmp_path)
        out = tmp_path / "diff.csv"
        assert cli_main(["diff", str(course), str(course), "--out", str(out)]) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "day,phase,delta_phi"
        assert all(line.split(",")[2] == "0.000000000" for line in lines[1:])
        assert "(0 unmatched)" in capsys.readouterr().out

    def test_empty_out_is_rejected_before_the_inputs_are_read(self, tmp_path, capsys, monkeypatch):
        # "" once read and aligned both files, then failed to open '.'.
        def read(path):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli, "read_trajectory", read)
        course = str(tmp_path / "never-read.csv")
        assert cli_main(["diff", course, course, "--out", ""]) == EXIT_VALIDATION
        message = "error: --out must be a nonempty path with no NUL, got ''\n"
        assert capsys.readouterr().err == message

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

    def test_undecodable_input_is_validation_error(self, tmp_path, capsys):
        course = run_course(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(NOT_UTF8)
        out = tmp_path / "diff.csv"
        assert cli_main(["diff", str(course), str(bad), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text")
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_phase_is_validation_error(self, tmp_path, capsys):
        course = run_course(tmp_path)
        lines = course.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace(",post_growth,", ",bogus,")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "diff.csv"
        assert cli_main(["diff", str(course), str(bad), "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {bad}: line 3: unknown phase 'bogus'\n"
        assert not out.exists()

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
        assert err.startswith(f"error: {bad}: line 3: ")
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

    def test_nan_threshold_is_validation_error(self, tmp_path, capsys):
        config = write_config_file(tmp_path)
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--config", config, "--param", "a", "--values", "1.0,5.0"]
        code = cli_main([*argv, "--out-dir", str(out_dir), "--threshold", "nan"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: threshold must be a number, got nan\n"
        assert not out_dir.exists()

    def test_empty_out_dir_is_rejected_before_the_courses(self, tmp_path, capsys, monkeypatch):
        # "" once wrote every file into the working directory and exited 0.
        def course(params, initial):
            raise AssertionError("a course ran")

        monkeypatch.setattr(analysis, "simulate_course", course)
        monkeypatch.chdir(tmp_path)
        config = write_config_file(tmp_path)
        argv = ["sweep", "--config", config, "--param", "a", "--values", "1.0,5.0"]
        assert cli_main([*argv, "--out-dir", ""]) == EXIT_VALIDATION
        message = "error: --out-dir must be a nonempty path with no NUL, got ''\n"
        assert capsys.readouterr().err == message
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_rejected_course_is_reported_in_summary(self, tmp_path, capsys):
        # A course longer than ten years is rejected for that value only.
        config = write_config_file(tmp_path)
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--config", config, "--param", "weeks", "--values", "6,600"]
        assert cli_main([*argv, "--out-dir", str(out_dir)]) == EXIT_OK
        assert (out_dir / "sweep_weeks_6.csv").exists()
        assert not (out_dir / "sweep_weeks_600.csv").exists()
        with open(out_dir / "sweep_summary.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["value"] for row in rows] == ["6", "600"]
        assert rows[0]["error"] == "" and rows[0]["final_total"] != ""
        assert rows[1]["error"] == "weeks must lie in [1, 520], got 600"
        assert "value 600: weeks must lie" in capsys.readouterr().out

    def test_retired_ode_step_is_an_unknown_parameter(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--config", MIXING_PATH, "--param", "ode_step", "--values", "0.01,0.5"]
        assert cli_main([*argv, "--out-dir", str(out_dir)]) == EXIT_OK
        with open(out_dir / "sweep_summary.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["error"] for row in rows] == ["unknown parameter: 'ode_step'"] * 2
        assert [p.name for p in out_dir.iterdir()] == ["sweep_summary.csv"]
        assert "value 0.5: unknown parameter: 'ode_step'" in capsys.readouterr().out

    def test_course_failing_inside_simulation_is_reported_in_summary(self, tmp_path, capsys):
        # v1 = 1e300 passes ModelParams, then the division overflows.
        config = write_config_file(tmp_path)
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--config", config, "--param", "v1", "--values", "0.016,1e300"]
        assert cli_main([*argv, "--out-dir", str(out_dir)]) == EXIT_OK
        assert (out_dir / "sweep_v1_0.016.csv").exists()
        assert not (out_dir / "sweep_v1_1e+300.csv").exists()
        with open(out_dir / "sweep_summary.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["value"] for row in rows] == ["0.016", "1e+300"]
        assert rows[0]["error"] == "" and rows[0]["final_total"] != ""
        assert rows[1]["error"].startswith("cell counts overflow")
        assert "value 1e+300: cell counts overflow" in capsys.readouterr().out

    def test_real_counts_underflowing_to_zero_give_an_error_row(self, tmp_path, capsys):
        # dose 2 keeps cells alive for the course; dose 50 empties them on day 18.
        config = write_config_file(tmp_path, **_UNDERFLOWING)
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--config", config, "--param", "dose", "--values", "2,50"]
        assert cli_main([*argv, "--out-dir", str(out_dir)]) == EXIT_OK
        assert (out_dir / "sweep_dose_2.0.csv").exists()
        assert not (out_dir / "sweep_dose_50.0.csv").exists()
        with open(out_dir / "sweep_summary.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["value"] for row in rows] == ["2.0", "50.0"]
        assert rows[0]["error"] == "" and rows[0]["final_total"] != ""
        assert rows[1]["error"] == "real-valued cell counts underflow to zero on day 18"
        assert "value 50.0: real-valued cell counts underflow" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "param, values, lengths",
        [
            ("weeks", "1,3", [12, 36]),
            ("pulses_per_week", "5,3", [72, 48]),
            ("weekend_days", "2,4", [72, 84]),
        ],
    )
    def test_course_shape_is_swept(self, tmp_path, param, values, lengths):
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--config", MIXING_PATH, "--param", param, "--values", values]
        assert cli_main([*argv, "--out-dir", str(out_dir)]) == EXIT_OK
        files = [out_dir / f"sweep_{param}_{value}.csv" for value in values.split(",")]
        assert [len(path.read_text().splitlines()) - 1 for path in files] == lengths
        assert files[0].read_bytes() != files[1].read_bytes()
        summary = (out_dir / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()
        first, second = (row.split(",", 1)[1] for row in summary[1:])
        assert first != second

    def test_boolean_parameter_is_not_swept(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--config", MIXING_PATH, "--param", "integer_rounding"]
        assert cli_main([*argv, "--values", "0,1", "--out-dir", str(out_dir)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: --param integer_rounding is true or false, not a number")
        assert not out_dir.exists()

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

    def test_long_unparseable_value_is_cut(self, tmp_path, capsys):
        config = write_config_file(tmp_path)
        argv = ["sweep", "--config", config, "--param", "a", "--values", "1," + "x" * 100_000]
        assert cli_main([*argv, "--out-dir", str(tmp_path / "sweep")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err) < 300
        assert err.endswith("... (100000 characters) is not a number\n")

    @pytest.mark.parametrize(
        "param, values, error",
        [
            ("k" * 100_000, "1", "unknown parameter: 'kkkk"),
            ("weeks", "9" * 4_000, "weeks is too large, got an integer of 4000 digits"),
            # Past the 4,300 digits at which int() refuses a string.
            ("weeks", "9" * 5_000, "weeks is too large, got an integer of 5000 digits"),
            ("weeks", "-" + "9" * 5_000, "weeks is too large, got an integer of 5000 digits"),
        ],
        ids=["long-key", "long-value", "value-past-int-limit", "negative-past-int-limit"],
    )
    def test_long_key_or_value_is_cut_in_both_outputs(
        self, tmp_path, capsys, param, values, error
    ):
        config = write_config_file(tmp_path)
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--config", config, "--param", param, "--values", values]
        assert cli_main([*argv, "--out-dir", str(out_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        summary = (out_dir / "sweep_summary.csv").read_text(encoding="utf-8")
        assert len(out.encode()) < 500 and len(summary.encode()) < 500
        assert error in out and error in summary

    @pytest.mark.parametrize(
        "token, value",
        [("0" * 5_000 + "3", 3), ("+1_" + "0" * 4_999, 10**4_999)],
        ids=["leading-zeros", "underscore-and-sign"],
    )
    def test_integer_token_past_the_int_limit_is_read_exactly(self, token, value):
        assert cli._parse_sweep_values("weeks", f"1,{token}") == (1, value)

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

    def sweep_argv(self, tmp_path, values: str, out_dir) -> list[str]:
        config = write_config_file(tmp_path)
        argv = ["sweep", "--config", config, "--param", "a", "--values", values]
        return [*argv, "--out-dir", str(out_dir)]

    def test_a_write_failure_is_io_error(self, tmp_path, capsys, monkeypatch, forks):
        real_write = cli.write_trajectory

        def failing_write(trajectory, destination):
            if destination.name == "sweep_a_5.0.csv":
                raise PermissionError(13, "Permission denied", str(destination))
            real_write(trajectory, destination)

        monkeypatch.setattr(cli, "write_trajectory", failing_write)
        out_dir = tmp_path / "sweep"
        fds = open_fds()
        assert cli_main(self.sweep_argv(tmp_path, "1.0,5.0", out_dir)) == EXIT_IO
        out, err = capsys.readouterr()
        assert forks == []
        assert open_fds() == fds
        assert out == ""
        assert err == f"error: [Errno 13] Permission denied: '{out_dir / 'sweep_a_5.0.csv'}'\n"

    def test_entries_drop_their_trajectories_once_written(self, tmp_path, capsys, monkeypatch):
        # Each trajectory is written as its course ends; the summary sees none.
        real_summary = cli.write_sweep_summary
        summarized = []

        def spy(entries, destination):
            summarized.extend((e.value, e.trajectory is None) for e in entries)
            real_summary(entries, destination)

        monkeypatch.setattr(cli, "write_sweep_summary", spy)
        out_dir = tmp_path / "sweep"
        assert cli_main(self.sweep_argv(tmp_path, "1.0,2.0,3.0,4.0", out_dir)) == EXIT_OK
        assert summarized == [(1.0, True), (2.0, True), (3.0, True), (4.0, True)]
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == [*(f"sweep_a_{v}.0.csv" for v in range(1, 5)), "sweep_summary.csv"]

    def test_a_repeated_value_writes_one_file(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert cli_main(self.sweep_argv(tmp_path, "2.0,2.0", out_dir)) == EXIT_OK
        lines = capsys.readouterr().out.replace(str(out_dir), "<out>").splitlines()
        assert lines == ["value 2.0: wrote <out>/sweep_a_2.0.csv"] * 2 + [
            "wrote <out>/sweep_summary.csv"
        ]
        assert sorted(p.name for p in out_dir.iterdir()) == ["sweep_a_2.0.csv", "sweep_summary.csv"]


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

    @pytest.mark.parametrize("scale", [1 - 1e-9, 1 + 1e-9], ids=["loses-cells", "gains-cells"])
    def test_a_pulse_that_moves_the_total_fails_the_column_sums(self, capsys, monkeypatch, scale):
        # The line measures the pulse the engine applies, so an apply_pulse that
        # loses or makes cells fails it, whichever way the total moves.
        def scaled(op, counts, integer_rounding=False):
            return tuple(c * scale for c in apply_pulse(op, counts, integer_rounding))

        monkeypatch.setattr(cli, "apply_pulse", scaled)
        assert cli_main(["check", "--config", MIXING_PATH]) == EXIT_VALIDATION
        assert "FAIL operator-column-sums: " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: data + b"\n",
            # One digit off: the table still parses, and only the checksum sees it.
            lambda data: data.replace(b"371270035", b"371270036", 1),
            lambda data: data[:-1],
            lambda data: b"",
        ],
        ids=["byte-added", "digit-changed", "byte-removed", "empty"],
    )
    def test_a_corrupt_bundled_table_is_validation_error(
        self, tmp_path, capsys, monkeypatch, corrupt
    ):
        data = resources.files("repopsim").joinpath("data/reference_course.psv").read_bytes()
        changed = corrupt(data)
        assert changed != data
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "reference_course.psv").write_bytes(changed)
        bundled = SimpleNamespace(files=lambda package: tmp_path)
        monkeypatch.setattr(repopsim_io, "resources", bundled)
        with pytest.raises(SchemaError, match="^bundled reference table checksum mismatch: "):
            load_reference_table()
        assert cli_main(["check", "--config", MIXING_PATH]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bundled reference table checksum mismatch: ")
        assert "reference-table" not in captured.out

    @pytest.mark.parametrize(
        "case, expected",
        [
            ("mixing", EXIT_OK),
            ("baseline", EXIT_OK),
            ("zero-count", EXIT_VALIDATION),
            ("v1-1e300", EXIT_NUMERIC),
        ],
    )
    def test_check_forks_nothing(self, tmp_path, capsys, forks, case, expected):
        # A course takes about a millisecond, less than a fork costs, so both
        # of check's courses run in the calling process.
        mixing = json.loads(Path(MIXING_PATH).read_text(encoding="utf-8"))
        config = {
            "mixing": MIXING_PATH,
            "baseline": BASELINE_PATH,
            "zero-count": write_config_file(tmp_path, "zero.json", initial_counts=[0, 0, 0]),
            "v1-1e300": write_config_file(tmp_path, "huge-v1.json", **{**mixing, "v1": 1e300}),
        }[case]
        code = cli_main(["check", "--config", config])
        assert forks == []
        assert code == expected
        assert capsys.readouterr().out.count("PASS") == (4 if expected == EXIT_OK else 2)


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repopsim", "check", "--config", BASELINE_PATH],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.count("PASS") == 4


def test_sweep_subprocess_prints_each_line_once(tmp_path):
    # "started" sits in the block buffer of a piped stdout while the sweep
    # runs; it and every later line must reach the pipe once.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    config = write_config_file(tmp_path)
    script = (
        "import sys; print('started'); from repopsim.cli import cli_main;"
        " sys.exit(cli_main(sys.argv[1:]))"
    )
    argv = ["sweep", "--config", config, "--param", "a", "--values", "1.0,2.5,0,5.0"]
    out_dir = tmp_path / "sweep"
    result = subprocess.run(
        [sys.executable, "-c", script, *argv, "--out-dir", str(out_dir)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == EXIT_OK
    assert result.stdout.splitlines() == [
        "started",
        f"value 1.0: wrote {out_dir / 'sweep_a_1.0.csv'}",
        f"value 2.5: wrote {out_dir / 'sweep_a_2.5.csv'}",
        "value 0.0: a must be > 0, got 0.0",
        f"value 5.0: wrote {out_dir / 'sweep_a_5.0.csv'}",
        f"wrote {out_dir / 'sweep_summary.csv'}",
    ]


def test_check_subprocess_prints_each_line_once():
    # Each line is printed once, in order, through a piped stdout's block buffer.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    result = subprocess.run(
        [sys.executable, "-m", "repopsim", "check", "--config", MIXING_PATH],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == EXIT_OK
    names = [line.split(":")[0] for line in result.stdout.splitlines()]
    assert names == [
        "PASS operator-column-sums",
        "PASS pulse-closed-form",
        "PASS simplex-drift",
        "PASS reference-table",
    ]


def test_importing_the_cli_loads_no_pickling_forking_pool_or_hashing_module():
    # No command forks or pickles, and only check hashes, which it imports for
    # itself, so start-up loads none of these modules.
    script = (
        "import sys, repopsim.cli; print([m for m in ('pickle', '_pickle', 'signal', 'traceback',"
        " 'multiprocessing', 'concurrent.futures', 'hashlib', '_hashlib') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_exit_code_vocabulary():
    assert (EXIT_OK, EXIT_VALIDATION, EXIT_IO, EXIT_NUMERIC) == (0, 1, 2, 3)


def test_benchmark_tracer_sees_the_wrapped_layers(tmp_path):
    # The benchmark times layers by wrapping module attributes the program
    # calls through (bench/layers.py TARGETS). A course that stopped calling
    # one of them through its module would leave that layer untimed.
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH_LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer()
    tracer.install()
    try:
        argv = ["run", "--config", BASELINE_PATH, "--out", str(tmp_path / "course.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.cli_main(argv) == EXIT_OK
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    # schedule.growth_day_detail records under the name of the function it wraps.
    for name in ("growth.growth_day_detail", "radiation.apply_pulse", "growth.integrate_growth"):
        assert totals.get(name, {"calls": 0})["calls"] > 0, name
    assert cli.cli_main is cli_main
    # The tracer counts RK4 steps as duration / step from integrate_growth's
    # third and fourth positional arguments. A growth day passes its one-day
    # interval as both, so the count is one per growth day of the course.
    config = load_config(BASELINE_PATH)
    growth_days = len(simulate_course(config.params, config.initial).post_growth_records())
    assert totals["growth.integrate_growth"]["value"] == growth_days


# Fuzzing the CLI: every drawn config and sweep must end in a documented exit
# code and a short message, never an exception. In-range long courses (weeks
# from 3 to 520) are skipped only so that about 100 examples stay within a
# second or two of tier-1 time; a longer course runs the same code. Values past
# the bounds are drawn: they are rejected before any course runs.
_MIXING = json.loads(Path(MIXING_PATH).read_text(encoding="utf-8"))
_CONFIG_KEYS = sorted({*_MIXING, "initial_total", "initial_fractions", "output", "ode_step"})
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 0, -1])
    | st.floats()  # NaN and +-inf included; +-inf is written as the literal +-1e999
    | st.text(max_size=6)
    | st.sampled_from(["x" * 10_000, [0] * 10_000])
)
_JSON_VALUES = _JSON_SCALARS | st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=8,
)
_SWEEP_TOKENS = (
    st.integers(-2, 3).map(str)
    | st.floats().map(repr)
    | st.sampled_from(["", " ", "x", "1e999", "-1e999", "nan", "true", "0x10", "1_0", "8", "521"])
    # Just below, and far below, the 1e-4 floor of the retired ode_step.
    | st.sampled_from(["9.999999999999999e-05", "1e-300"])
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _short_course(config: dict) -> bool:
    weeks = config.get("weeks")
    return not (_is_int(weeks) and 2 < weeks <= 520)


def _exit_code(argv: list[str]) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue()) < 500
    return code


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    weeks=st.integers(1, 2),
    changes=st.dictionaries(st.sampled_from([*_CONFIG_KEYS, "banana"]), _JSON_VALUES, max_size=2),
    param=st.sampled_from(
        [f.name for f in fields(ModelParams)] + ["initial_pulses", "ode_step", "x"]
    ),
    tokens=st.lists(_SWEEP_TOKENS, max_size=4),
)
def test_fuzzed_config_and_sweep_values_end_in_an_exit_code(weeks, changes, param, tokens):
    config = {**_MIXING, "weeks": weeks, **changes}
    assume(_short_course(config))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(config).replace("Infinity", "1e999"), encoding="utf-8")
        run = ["run", "--config", str(path), "--out", str(Path(tmp) / "course.csv")]
        assert _exit_code(run) in {0, 1, 2, 3}
        values = ",".join(tokens)
        swp = ["sweep", "--config", str(path), "--param", param, f"--values={values}"]
        assert _exit_code([*swp, "--out-dir", str(Path(tmp) / "sweep")]) in {0, 1, 2, 3}


@functools.cache
def _short_trajectory():
    return simulate_course(ModelParams(weeks=1), PopulationState(6.0, 3.0, 1.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    flag=st.sampled_from(["run --out", "output", "sweep --out-dir", "diff --out"]),
    kind=st.sampled_from(["ordinary", "empty", "nul"]),
    name=st.text(alphabet="ab.-_1 ", min_size=1, max_size=8),
    cut=st.integers(0, 9),
)
def test_every_destination_ends_in_an_exit_code_and_a_rejected_one_in_no_work(
    flag, kind, name, cut
):
    # A destination is an ordinary file name, the empty path, or a path with
    # a NUL in its last part; a rejected one must stop the command before any
    # course runs, any input is read or any file is written.
    with tempfile.TemporaryDirectory() as tmp:
        inputs, out = Path(tmp) / "inputs", Path(tmp) / "out"
        inputs.mkdir()
        out.mkdir()
        name = "f" + name
        destination = {
            "ordinary": str(out / name),
            "empty": "",
            "nul": str(out / (name[:cut] + "\0" + name[cut:])),
        }[kind]
        config = write_config_file(
            inputs, **({"output": destination} if flag == "output" else {})
        )
        course = str(inputs / "course.csv")
        write_trajectory(_short_trajectory(), course)
        argv = {
            "run --out": ["run", "--config", config, "--out", destination],
            "output": ["run", "--config", config],
            "sweep --out-dir": [
                "sweep", "--config", config, "--param", "a", "--values", "1.0,5.0",
                "--out-dir", destination,
            ],
            "diff --out": ["diff", course, course, "--out", destination],
        }[flag]
        spies = [
            mock.patch.object(cli, "simulate_course", wraps=cli.simulate_course),
            mock.patch.object(analysis, "simulate_course", wraps=analysis.simulate_course),
            mock.patch.object(cli, "read_trajectory", wraps=cli.read_trajectory),
        ]
        cwd = os.getcwd()
        os.chdir(out)  # where an empty path would put its file
        try:
            with contextlib.ExitStack() as stack:
                calls = [stack.enter_context(spy) for spy in spies]
                code = _exit_code(argv)
        finally:
            os.chdir(cwd)
        if kind == "ordinary":
            assert code == EXIT_OK
            assert Path(destination).exists()
        else:
            assert code == EXIT_VALIDATION
            assert [spy.call_count for spy in calls] == [0, 0, 0]
            assert list(out.iterdir()) == []
