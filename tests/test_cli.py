"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repopsim import ModelParams, cli
from repopsim.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, cli_main
from repopsim.core import ODE_STEP_FLOOR
from repopsim.io import TRAJECTORY_HEADER

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

    def test_ode_step_below_the_floor_exits_at_once(self, tmp_path):
        # Unguarded, this course would take about 10**300 RK4 steps a day.
        err = run_rejected_in_subprocess(tmp_path, config_bytes(ode_step=1e-300))
        assert err == "error: ode_step must lie in [0.0001, 1], got 1e-300\n"

    def test_course_longer_than_ten_years_exits_at_once(self, tmp_path):
        # Unguarded, this course would run for 7 * 10**8 days, keeping a record for each.
        content = config_bytes(weeks=100_000_000, dose=0, v0=0, v1=0, ode_step=1)
        err = run_rejected_in_subprocess(tmp_path, content)
        assert err == "error: weeks must lie in [1, 520], got 100000000\n"

    def test_overflowing_division_is_numeric_error(self, tmp_path, capsys):
        # A finite fast velocity whose daily factor 2^v2 overflows a float.
        config = write_config_file(tmp_path, a=1e300, v1=100, initial_counts=[0, 1000, 0])
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", config, "--out", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("error: cell counts overflow")

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
            (config_bytes(output="a\0b"), "error: output must be a string path, got 'a\\x00b'"),
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
        assert list(out_dir.iterdir()) == []

    def test_rejected_course_is_reported_in_summary(self, tmp_path, capsys):
        # An ode_step longer than the one-day growth interval is rejected for
        # that value only.
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
        assert rows[1]["error"] == "ode_step must lie in [0.0001, 1], got 2.0"
        assert "value 2.0: ode_step must lie" in capsys.readouterr().out

    def test_course_failing_inside_simulation_is_reported_in_summary(self, tmp_path, capsys):
        # v1 = 1e300 passes ModelParams, then the integrator leaves the simplex.
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
        assert rows[1]["error"].startswith("stage point left the simplex")
        assert "value 1e+300: stage point left the simplex" in capsys.readouterr().out

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


def test_sweep_subprocess_prints_each_line_once(tmp_path):
    # "started" sits in the block buffer of a piped stdout while the sweep
    # forks; a child that flushed it on exit would print it twice.
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


def test_importing_the_cli_loads_no_pickling_forking_or_pool_module():
    # The sweep imports pickle, signal and traceback only on its forked path,
    # so the start-up time and memory of every other command stay as they were.
    script = (
        "import sys, repopsim.cli; print([m for m in ('pickle', '_pickle', 'signal', 'traceback',"
        " 'multiprocessing', 'concurrent.futures') if m in sys.modules])"
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


# Fuzzing the CLI: every drawn config and sweep must end in a documented exit
# code and a short message, never an exception. In-range long courses (weeks
# from 3 to 520, ode_step from the floor up to 0.1) are skipped only so that
# about 100 examples stay within a second or two of tier-1 time; a longer course
# runs the same code. Values past the bounds are drawn: they are rejected before
# any course runs.
_MIXING = json.loads(Path(MIXING_PATH).read_text(encoding="utf-8"))
_CONFIG_KEYS = sorted({*_MIXING, "initial_total", "initial_fractions", "output"})
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
# About one step in eight lies below the floor, so its config is rejected at once.
_ODE_STEPS = st.integers(0, 7).flatmap(
    lambda k: st.floats(0.0, ODE_STEP_FLOOR, exclude_max=True) if k == 0 else st.floats(0.1, 1.0)
)
_SWEEP_TOKENS = (
    st.integers(-2, 3).map(str)
    | st.floats().filter(lambda v: not ODE_STEP_FLOOR <= v < 0.1).map(repr)
    | st.sampled_from(["", " ", "x", "1e999", "-1e999", "nan", "true", "0x10", "1_0", "8", "521"])
    | st.sampled_from([math.nextafter(ODE_STEP_FLOOR, 0.0), 1e-300]).map(repr)
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _short_course(config: dict) -> bool:
    weeks, step = config.get("weeks"), config.get("ode_step")
    return not (
        (_is_int(weeks) and 2 < weeks <= 520)
        or (isinstance(step, (int, float)) and ODE_STEP_FLOOR <= step < 0.1)
    )


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
    ode_step=_ODE_STEPS,
    changes=st.dictionaries(st.sampled_from([*_CONFIG_KEYS, "banana"]), _JSON_VALUES, max_size=2),
    param=st.sampled_from([f.name for f in fields(ModelParams)] + ["initial_pulses", "x"]),
    tokens=st.lists(_SWEEP_TOKENS, max_size=4),
)
def test_fuzzed_config_and_sweep_values_end_in_an_exit_code(weeks, ode_step, changes, param, tokens):
    config = {**_MIXING, "weeks": weeks, "ode_step": ode_step, **changes}
    assume(_short_course(config))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(config).replace("Infinity", "1e999"), encoding="utf-8")
        run = ["run", "--config", str(path), "--out", str(Path(tmp) / "course.csv")]
        assert _exit_code(run) in {0, 1, 2, 3}
        values = ",".join(tokens)
        swp = ["sweep", "--config", str(path), "--param", param, f"--values={values}"]
        assert _exit_code([*swp, "--out-dir", str(Path(tmp) / "sweep")]) in {0, 1, 2, 3}
