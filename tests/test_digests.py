"""Byte-identical output: the shipped configs' trajectory files are pinned.

The README promises that two runs of one config produce byte-identical
files on any platform. These digests pin that output across code changes:
a faster kernel, a refactor or a new formatter must leave them as they are.

The shipped configs both run in integer mode with the default weekly
shape, so three more courses are pinned: the mixing config with real-valued
counts (the nine-decimal count format), a 52-week course (where pulses,
rounding and records outweigh the growth day), and the mixing
config reshaped to three weeks of three pulse days and four growth-only
days. A sweep of `a` on the mixing config pins every file it writes, whether
its values run in one process or several, and `check` on the mixing config
pins what it prints.

When the RK4 loop gave way to the exact growth day, two digests moved and
were pinned again; every other digest stayed. The mixing-real file changed
in the last printed digit of 110 count cells (y0, y1, y2 and total), each
about one unit in the last place of a count near 1e8 or below. Replayed map
by map in 50-digit decimal arithmetic (the test at the end of this file),
the largest per-map gap fell from 17.1 to 3.7 units of 2**-53. `check`'s
output changed only in its simplex-drift line, 8.882e-16 to 2.220e-16.
"""

from __future__ import annotations

import dataclasses
import decimal
import hashlib
import json
from importlib import resources

import pytest

from repopsim import load_config, simulate_course, survival_fraction
from repopsim.cli import EXIT_OK, cli_main
from repopsim.io import read_trajectory, write_trajectory

from .conftest import decimal_growth_day

SHIPPED_DIGESTS = {
    "baseline.json": "9d1dcaa9e29aa5274d98c11b9fb00c154974b40e65137a7b17f4960064b2c1a4",
    "mixing.json": "f864de74e99c527c9db593dc89645e12c673eb37c68162db2298117055f500ca",
}

# A year of treatment near the balance of weekly growth and kill: the total
# stays within a factor of two of its start in both modes.
COARSE_COURSE = {
    "weeks": 52,
    "dose": 0.375,
    "initial_counts": [7200000, 16800000, 216000000],
}

# Derived from a shipped config: (shipped file, overrides, sha256).
DERIVED_DIGESTS = {
    "mixing-real": (
        "mixing.json",
        {"integer_rounding": False},
        "cf388508bc1b954a80a6127c28ba88cd4998313057e086b953ec304ca2fa659a",
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
CHECK_STDOUT_DIGEST = "633902b68ec30c326973ac2b79c4502fd269bf7a8259964a3ab32a4541c43c1b"


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


# The most relative rounding error, in units of 2**-53, that one stage map may
# add to a count, from the operations it does in floating point. A pulse: S - Q
# or S - P, a product and a sum (3), plus one. A growth day: the fractions
# (a sum of three counts and a division, 3), the closed-form day (24, the
# budget of tests/test_growth.py at velocities below 1), the counts rebuilt
# from the fractions (1) and the division factor 2**v and its product (3).
PULSE_BUDGET = 4 * 2.0**-53
GROWTH_BUDGET = 31 * 2.0**-53


def decimal_replay_gaps(trajectory, params):
    """For each record after the first, the largest relative gap between one
    of its counts and the image of the previous record's counts under that
    record's stage map, taken in 50-digit decimal arithmetic from the floats
    the program used: the gap is the rounding of that one map."""
    D = decimal.Decimal
    s, q, p = (D(c) for c in (survival_fraction(params), params.q_rad, params.p_rad))
    gaps = []
    for before, after in zip(trajectory.records, trajectory.records[1:]):
        y = [D(before.y0), D(before.y1), D(before.y2)]
        with decimal.localcontext(prec=50):
            if after.phase == "post_radiation":
                want = (y[0] * (s - q), y[0] * q + y[1] * (s - p), y[1] * p + y[2] * s)
                budget = PULSE_BUDGET
            else:
                v = (params.v0, params.v1, after.v2)
                total = sum(y)
                x = tuple(c / total for c in y)
                z = decimal_growth_day((*v, params.q_mix, params.p_mix), x)
                want = tuple(c * total * D(2) ** D(vi) for c, vi in zip(z, v))
                budget = GROWTH_BUDGET
            got = (D(after.y0), D(after.y1), D(after.y2))
            gap = max(abs(g - w) / w for g, w in zip(got, want))
        gaps.append((float(gap), budget))
    return gaps


def test_real_mode_course_is_within_each_maps_rounding_budget():
    # The course behind the mixing-real digest, replayed map by map.
    config = load_config(shipped_config("mixing.json"))
    params = dataclasses.replace(config.params, integer_rounding=False)
    trajectory = simulate_course(params, config.initial)
    gaps = decimal_replay_gaps(trajectory, params)
    assert len(gaps) == len(trajectory.records) - 1 == 71
    assert all(gap <= budget for gap, budget in gaps)
