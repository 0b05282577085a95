"""Byte-identical output: the shipped configs' trajectory files are pinned.

The README promises that two runs of one config produce byte-identical
files on any platform. These digests pin that output across code changes:
a faster kernel, a refactor or a new formatter must leave them as they are.

The shipped configs both run in integer mode at ode_step 0.01 with the
default weekly shape, so three more courses are pinned: the mixing config
with real-valued counts (the nine-decimal count format), a 52-week course
at ode_step 0.5 (two RK4 steps a day, where pulses, rounding and records
outweigh the integration), and the mixing config reshaped to three weeks
of three pulse days and four growth-only days. A sweep of `a` on the mixing
config pins every file it writes, whether its values run in one process or
several, and `check` on the mixing config pins what it prints, whether its
two courses run in one process or two.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources

import pytest

from repopsim.cli import EXIT_OK, cli_main
from repopsim.io import read_trajectory, write_trajectory

SHIPPED_DIGESTS = {
    "baseline.json": "9d1dcaa9e29aa5274d98c11b9fb00c154974b40e65137a7b17f4960064b2c1a4",
    "mixing.json": "f864de74e99c527c9db593dc89645e12c673eb37c68162db2298117055f500ca",
}

# A year of treatment near the balance of weekly growth and kill: the total
# stays within a factor of two of its start in both modes.
COARSE_COURSE = {
    "weeks": 52,
    "ode_step": 0.5,
    "dose": 0.375,
    "initial_counts": [7200000, 16800000, 216000000],
}

# Derived from a shipped config: (shipped file, overrides, sha256).
DERIVED_DIGESTS = {
    "mixing-real": (
        "mixing.json",
        {"integer_rounding": False},
        "e7850a3f3621f2885891f779b39aa253460888f5c30d6dc0e252438c9c52c9aa",
    ),
    "coarse-52-weeks": (
        "baseline.json",
        COARSE_COURSE,
        "1f59424e2c36457e4a786490ca73b375b70ac82356e1eb6825f9ee2db9de2a5b",
    ),
    "short-weeks-long-weekends": (
        "mixing.json",
        {"weeks": 3, "pulses_per_week": 3, "weekend_days": 4},
        "1de0a201a5984c6a2093ee321df5dfffde2029546576d728c76adb15ee5693ce",
    ),
}

# `sweep --param a --values 1.0,2.5,0,5.0,7.25 --threshold 0.03` on mixing.json:
# the a > 0 row turns 0 into an error row, which writes no trajectory. At
# a = 5.0 the course is the shipped mixing run.
SWEEP_VALUES = "1.0,2.5,0,5.0,7.25"
SWEEP_DIGESTS = {
    "sweep_a_1.0.csv": "5d75f37d7523dff9c4af20b9837b219406ca495c578902068c05afda56c80dbc",
    "sweep_a_2.5.csv": "c83651cbbaa62eeca3997dacb14781544f05a01e342f2c27af0592ac6c0fdbae",
    "sweep_a_5.0.csv": SHIPPED_DIGESTS["mixing.json"],
    "sweep_a_7.25.csv": "c38791e6980f83b970d5d9eca34ff8aaaa7931b3a06aa8b88f2cd426af997bc6",
    "sweep_summary.csv": "871c953cf6528f5174b5bc571e2a8c2783e8b677597abe190332feec6ff12622",
}

# stdout of `check --config mixing.json`: four PASS lines.
CHECK_STDOUT_DIGEST = "fb7f1c0d524b06de01955a4e5bdb774b75e51ebf1f4e23b879cb0c0ad41eec20"


def shipped_config(name: str) -> str:
    return str(resources.files("repopsim").joinpath(f"data/{name}"))


def run_derived(tmp_path, base: str, overrides: dict, out_name: str = "trajectory.csv"):
    document = json.loads(resources.files("repopsim").joinpath(f"data/{base}").read_text())
    document.update(overrides)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document), encoding="utf-8")
    out = tmp_path / out_name
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    return out


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_shipped_config_trajectory_digest(name, tmp_path):
    out = tmp_path / "trajectory.csv"
    assert cli_main(["run", "--config", shipped_config(name), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHIPPED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DERIVED_DIGESTS))
def test_derived_config_trajectory_digest(name, tmp_path):
    base, overrides, digest = DERIVED_DIGESTS[name]
    out = run_derived(tmp_path, base, overrides)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sweep_digests(tmp_path):
    argv = ["sweep", "--config", shipped_config("mixing.json"), "--param", "a"]
    argv += ["--values", SWEEP_VALUES, "--threshold", "0.03", "--out-dir", str(tmp_path)]
    assert cli_main(argv) == EXIT_OK
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == SWEEP_DIGESTS


def test_check_stdout_digest(capsys):
    assert cli_main(["check", "--config", shipped_config("mixing.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CHECK_STDOUT_DIGEST


@pytest.mark.parametrize("integer_rounding", [True, False])
def test_write_read_write_is_byte_identical(integer_rounding, tmp_path):
    first = run_derived(tmp_path, "mixing.json", {"integer_rounding": integer_rounding})
    parsed = read_trajectory(first)
    assert parsed.integer_rounding is integer_rounding
    second = tmp_path / "rewritten.csv"
    write_trajectory(parsed, second)
    assert second.read_bytes() == first.read_bytes()
