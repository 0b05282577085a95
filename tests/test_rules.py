"""Input rules that several entries share. Each row names one rule, the bad
values it rejects and every entry that enforces it: each entry must reject
each value with the rule's exception type and a message naming its argument."""

from __future__ import annotations

import json
import math
import re

import pytest

from repopsim import (
    ConfigError,
    InvalidParameterError,
    InvalidStateError,
    ModelParams,
    PopulationState,
    RadiationOperator,
    SimulationError,
    apply_division,
    apply_pulse,
    cli,
    fractions_to_counts,
    growth_day_detail,
    integrate_growth,
    lq_closed_form,
    parse_config,
    psi,
    v2_of,
)

PARAMS = ModelParams()
RATES = (0.01, 0.016, 0.08, 0.1, 0.1)
OPERATOR = RadiationOperator(0.5, 0.1, 0.1)


def _config(**keys):
    return parse_config(json.dumps({"initial_counts": [6, 3, 1], **keys}))


def _command(*argv):
    """The handler of a command line, called directly so that its exception
    shows; the config and input files it names do not exist, so any read
    before the rule would raise FileNotFoundError."""
    args = cli._build_parser().parse_args(argv)
    handler = {"run": cli._cmd_run, "sweep": cli._cmd_sweep, "diff": cli._cmd_diff}[args.command]
    return handler(args)


_SWEEP = ("sweep", "--config", "never-read.json", "--param", "a", "--values", "1.0")
_DIFF = ("diff", "never-read.csv", "never-read.csv")

# (rule, exception type, message pattern for an argument name, bad values,
# entries as (argument name, call taking one bad value))
RULES = [
    (
        "fractions on the simplex",
        InvalidStateError,
        r"{name} must be nonnegative and sum to 1 within 1e-09, got ",
        [(math.nan, 0.5, 0.5), (-0.1, 0.6, 0.5), (-1e-10, 0.5, 0.5 + 1e-10), (0.5, 0.5, 0.5)],
        [
            ("x", lambda x: fractions_to_counts(x, 100.0, True)),
            ("x", lambda x: fractions_to_counts(x, 100.0, False)),
            (
                "initial_fractions",
                lambda x: parse_config(json.dumps({"initial_total": 100, "initial_fractions": x})),
            ),
        ],
    ),
    (
        "a cell count",
        InvalidStateError,
        r"{name} (must be (>= 0|finite)|is too large), got ",
        [-1.0, math.nan, math.inf, -1, 10**400, -(10**400)],
        [
            ("y0", lambda y: PopulationState(y, 3.0, 1.0)),
            ("y2", lambda y: PopulationState(6.0, 3.0, y)),
            ("y0", lambda y: apply_pulse(OPERATOR, (y, 3.0, 1.0))),
            ("y1", lambda y: apply_pulse(OPERATOR, (6.0, y, 1.0), integer_rounding=True)),
            ("y1", lambda y: growth_day_detail((6.0, y, 1.0), PARAMS, 0.08)),
            ("y2", lambda y: growth_day_detail((6.0, 3.0, y), PARAMS, 0.08)),
        ],
    ),
    (
        # One count at a time cannot overflow a total whose other two are small,
        # so this rule takes whole triples.
        "a finite total of cell counts",
        InvalidStateError,
        r"{name} must have a finite total, got ",
        [(1e308, 1e308, 0.0), (0.0, 1e308, 1e308), (1e308, 0, 1e308), (10**308, 10**308, 0)],
        [
            ("counts", lambda c: PopulationState(*c)),
            ("counts", lambda c: growth_day_detail(c, PARAMS, 0.08)),
            ("initial_counts", lambda c: _config(initial_counts=list(c))),
        ],
    ),
    (
        "a total of cells",
        InvalidParameterError,
        r"{name} (must be (>= 0|finite|a number)|is too large), got ",
        [math.inf, math.nan, -1.0, -1, 10**400, True, "100"],
        [
            ("total", lambda t: fractions_to_counts((0.6, 0.34, 0.06), t, True)),
            ("total", lambda t: fractions_to_counts((0.6, 0.34, 0.06), t, False)),
            ("n0", lambda t: lq_closed_form(t, 3, PARAMS)),
            (
                "initial_total",
                lambda t: parse_config(
                    json.dumps({"initial_total": t, "initial_fractions": [0.6, 0.34, 0.06]})
                ),
            ),
        ],
    ),
    (
        "a duration",
        InvalidParameterError,
        r"{name} must be (> 0|finite|a number), got ",
        [math.inf, math.nan, 0.0, 0, -1.0, True],
        [
            ("duration", lambda d: integrate_growth(RATES, (0.6, 0.34, 0.06), d, 0.5)),
            ("duration", lambda d: apply_division((6.0, 3.0, 1.0), RATES[:3], d, True)),
            ("duration", lambda d: apply_division((6.0, 3.0, 1.0), RATES[:3], d, False)),
        ],
    ),
    (
        "a pulse count",
        InvalidParameterError,
        r"{name} (must be (>= 0|an integer)|is too large), got ",
        [1.5, True, -1, 10**400, "3"],
        [
            ("pulses_delivered", lambda n: PopulationState(6.0, 3.0, 1.0, pulses_delivered=n)),
            ("pulses", lambda n: psi(PARAMS, n, True)),
            ("pulses", lambda n: psi(PARAMS, n, False)),
            ("pulses", lambda n: v2_of(PARAMS, n, True)),
            ("n", lambda n: lq_closed_form(1e9, n, PARAMS)),
            ("initial_pulses", lambda n: _config(initial_pulses=n)),
        ],
    ),
    (
        "a transfer bounded by the survival fraction",
        InvalidParameterError,
        r"{name} must lie in \[0, 0\.\d+\], got ",
        [0.7, -0.1, math.nan, math.inf],
        [
            ("q_rad", lambda q: ModelParams(q_rad=q)),
            ("p_rad", lambda p: ModelParams(p_rad=p)),
            ("q", lambda q: RadiationOperator(0.5, q, 0.0)),
            ("p", lambda p: RadiationOperator(0.5, 0.0, p)),
            ("q_rad", lambda q: _config(q_rad=q)),
        ],
    ),
    (
        "an output destination",
        ConfigError,
        r"{name} must be a nonempty path with no NUL, got ",
        ["", "a\0b", "\0"],
        [
            ("output", lambda path: _config(output=path)),
            ("--out", lambda path: _command("run", "--config", "never-read.json", "--out", path)),
            ("--out-dir", lambda path: _command(*_SWEEP, "--out-dir", path)),
            ("--out", lambda path: _command(*_DIFF, "--out", path)),
        ],
    ),
]


@pytest.mark.parametrize("rule, error, pattern, values, entries", RULES, ids=[r[0] for r in RULES])
def test_every_entry_of_a_rule_rejects_its_bad_values_alike(rule, error, pattern, values, entries):
    misses = []
    for name, call in entries:
        for value in values:
            try:
                call(value)
            except SimulationError as exc:
                # parse_config reports a rule's error as a ConfigError raised from it.
                cause = exc.__cause__ if isinstance(exc, ConfigError) and exc.__cause__ else exc
                if type(cause) is not error or not re.match(pattern.format(name=name), str(exc)):
                    misses.append(f"{name}={value!r}: {type(cause).__name__}: {exc}")
            else:
                misses.append(f"{name}={value!r}: accepted")
    assert not misses, "\n".join(misses)
