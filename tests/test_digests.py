"""Byte-identical output: the shipped configs' trajectory files are pinned.

The README promises that two runs of one config produce byte-identical
files on any platform. These digests pin that output across code changes:
a faster kernel, a refactor or a new formatter must leave them as they are.

The shipped configs both run in integer mode at ode_step 0.01, so two more
courses are pinned: the mixing config with real-valued counts (the nine-
decimal count format) and a 52-week course at ode_step 0.5 (two RK4 steps
a day, where pulses, rounding and records outweigh the integration).
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
}


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


@pytest.mark.parametrize("integer_rounding", [True, False])
def test_write_read_write_is_byte_identical(integer_rounding, tmp_path):
    first = run_derived(tmp_path, "mixing.json", {"integer_rounding": integer_rounding})
    parsed = read_trajectory(first)
    assert parsed.integer_rounding is integer_rounding
    second = tmp_path / "rewritten.csv"
    write_trajectory(parsed, second)
    assert second.read_bytes() == first.read_bytes()
