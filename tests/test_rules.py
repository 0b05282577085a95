"""Input rules that several entries share. Each row names one rule, the bad
values it rejects and every entry that enforces it: each entry must reject
each value with the rule's exception type and a message naming its argument."""

from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repopsim import (
    ConfigError,
    InvalidParameterError,
    InvalidStateError,
    ModelParams,
    NumericInstabilityError,
    PopulationState,
    RadiationOperator,
    SimulationError,
    apply_pulse,
    cli,
    compare_to_golden,
    integrate_growth,
    lq_closed_form,
    parse_config,
    simulate_course,
    sweep,
)
from repopsim.core import PARAM_TABLE, ParamRow, check_counts
from repopsim.growth import _DURATION, _check_mixing

PARAMS = ModelParams()
MIXING = ModelParams(q_mix=0.1, p_mix=0.1)
RATES = (0.01, 0.016, 0.08, 0.1, 0.1)
OPERATOR = RadiationOperator(0.5, 0.1, 0.1)
START = PopulationState(6.0, 3.0, 1.0)
COMPARED = simulate_course(PARAMS._replace(weeks=1), START)


def _config(**keys):
    return parse_config(json.dumps({"initial_counts": [6, 3, 1], **keys}))


def _mix(v0=0.01, v2=0.08, x=(0.6, 0.34, 0.06)):
    """integrate_growth over one day at RATES, with v0, v2 or the fractions replaced."""
    return integrate_growth((v0, RATES[1], v2, RATES[3], RATES[4]), x, 1.0, 1.0)


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
            (
                "initial_fractions",
                lambda x: parse_config(json.dumps({"initial_total": 100, "initial_fractions": x})),
            ),
        ],
    ),
    (
        "a cell count",
        InvalidStateError,
        r"{name} (must be (>= 0|finite|a number)|is too large), got ",
        [-1.0, math.nan, math.inf, -1, 10**400, -(10**400), "1", None, True, False],
        [
            ("y0", lambda y: PopulationState(y, 3.0, 1.0)),
            ("y2", lambda y: PopulationState(6.0, 3.0, y)),
            ("y0", lambda y: apply_pulse(OPERATOR, (y, 3.0, 1.0))),
            ("y1", lambda y: apply_pulse(OPERATOR, (6.0, y, 1.0), integer_rounding=True)),
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
            ("counts", lambda c: apply_pulse(OPERATOR, c)),
            ("counts", lambda c: apply_pulse(OPERATOR, c, integer_rounding=True)),
            ("initial_counts", lambda c: _config(initial_counts=list(c))),
        ],
    ),
    (
        "a total of cells",
        InvalidParameterError,
        r"{name} (must be (>= 0|finite|a number)|is too large), got ",
        [math.inf, math.nan, -1.0, -1, 10**400, True, "100"],
        [
            ("n0", lambda t: lq_closed_form(t, 3, PARAMS)),
            (
                "initial_total",
                lambda t: parse_config(
                    json.dumps({"initial_total": t, "initial_fractions": [0.6, 0.34, 0.06]})
                ),
            ),
            ("initial_counts", lambda y: _config(initial_counts=[y, 3, 1])),
        ],
    ),
    (
        # psi <= exp(theta), which must be a finite float.
        "a damping offset",
        InvalidParameterError,
        r"{name} must lie in \(-inf, 709\.783\], got ",
        [710.0, math.nan, math.inf, -math.inf],
        [
            ("theta", lambda t: ModelParams(theta=t)),
            ("theta", lambda t: _config(theta=t)),
        ],
    ),
    (
        "a velocity",
        InvalidParameterError,
        r"{name} (must be (>= 0|a number)|is too large), got ",
        ["x", None, 10**400, -1.0, math.nan, True, False],
        [
            ("v0", lambda v: _mix(v0=v)),
            ("v2", lambda v: _mix(v2=v)),
            # An empty fast compartment, which takes the zero-fraction branch.
            ("v2", lambda v: _mix(v2=v, x=(0.6, 0.4, 0.0))),
        ],
    ),
    (
        "a fraction",
        InvalidStateError,
        r"{name} (must be (>= 0|a number)|is too large), got ",
        ["x", None, 10**400, -1.0, math.nan, True, False],
        [
            ("fractions", lambda f: _mix(x=(f, 0.34, 0.06))),
            ("fractions", lambda f: _mix(x=(0.6, f, 0.06))),
            ("fractions", lambda f: _mix(x=(0.6, 0.4, f))),
        ],
    ),
    (
        "a duration",
        InvalidParameterError,
        r"{name} must be (> 0|finite|a number), got ",
        [math.inf, math.nan, 0.0, 0, -1.0, True],
        [
            ("duration", lambda d: integrate_growth(RATES, (0.6, 0.34, 0.06), d, 0.5)),
        ],
    ),
    (
        "a growth step",
        InvalidParameterError,
        r"{name} must lie in \(0, 1\], got ",
        [0.0, -1.0, 2.0, math.nan, math.inf],
        [
            ("step", lambda s: integrate_growth(RATES, (0.6, 0.34, 0.06), 1.0, s)),
        ],
    ),
    (
        # A number that is past every range check: a value of another type
        # must not reach a comparison or a call to isnan.
        "a number",
        InvalidParameterError,
        r"{name} (must be a number|is too large), got ",
        ["a", True, [1.0], 10**400],  # a None threshold is no threshold
        [
            ("step", lambda s: integrate_growth(RATES, (0.6, 0.34, 0.06), 1.0, s)),
            ("threshold", lambda t: sweep(PARAMS, "a", (5.0,), START, threshold=t)),
            ("s", lambda s: RadiationOperator(s, 0.0, 0.0)),
        ],
    ),
    (
        # An end of compare_to_golden's inclusive day range; the reference
        # table is empty, since the range is checked before any row is read.
        "a compared day",
        InvalidParameterError,
        r"{name} (must be (>= 1|an integer)|is too large), got ",
        ["a", None, 1.5, 0, -1, True, 10**400],
        [
            ("days", lambda d: compare_to_golden(COMPARED, (), (d, 5), ("y0",))),
            ("days", lambda d: compare_to_golden(COMPARED, (), (1, d), ("y0",))),
        ],
    ),
    (
        "a survival fraction",
        InvalidParameterError,
        r"{name} must lie in \(0, 1\], got ",
        [0.0, 0, -0.5, 1.5, 2, math.nan, math.inf, -math.inf],
        [
            ("s", lambda s: RadiationOperator(s, 0.0, 0.0)),
        ],
    ),
    (
        "a pulse count",
        InvalidParameterError,
        r"{name} (must be (>= 0|an integer)|is too large), got ",
        [1.5, True, -1, 10**400, "3"],
        [
            ("pulses_delivered", lambda n: PopulationState(6.0, 3.0, 1.0, pulses_delivered=n)),
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


# The per-day entries, each with arguments whose every input is valid and its
# named rules: a function of the same arguments that applies them in the
# entry's order and returns None when every input passes.
COUNTS = (6.0, 3.0, 1.0)


def _growth_rules(rates, x, duration, step):
    _DURATION.check("duration", duration)
    ParamRow(float, 0, duration, strict=True).check("step", step)
    _check_mixing(rates, x)


PER_DAY = {
    "apply_pulse": (apply_pulse, (OPERATOR, COUNTS, True), lambda op, c, r: check_counts(c)),
    "integrate_growth": (integrate_growth, (RATES, (0.6, 0.34, 0.06), 1.0, 0.5), _growth_rules),
}
# Each input as (entry, argument index, component index or None for a scalar argument).
INPUTS = [
    *(("apply_pulse", 1, i) for i in range(3)),
    *(("integrate_growth", arg, i) for arg, n in ((0, 5), (1, 3)) for i in range(n)),
    ("integrate_growth", 2, None),
    ("integrate_growth", 3, None),
]
VALUES = st.one_of(
    st.floats(),  # NaN, both infinities, negatives and subnormals among them
    st.integers(-3, 10**6),
    st.integers(-(2**1030), 2**1030),  # past the floats at both ends
    st.just(10**400),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)


def _with(args, arg, index, value):
    """args with the input at (arg, index) replaced by value."""
    if index is not None:
        value = (*args[arg][:index], value, *args[arg][index + 1 :])
    return (*args[:arg], value, *args[arg + 1 :])


def _outcome(call, args):
    """("returned", what call(*args) returns), or the SimulationError it raises
    as (type, message); any other exception propagates."""
    try:
        return "returned", call(*args)
    except SimulationError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "entry, arg, index",
    INPUTS,
    ids=[f"{e}-{a}" if i is None else f"{e}-{a}.{i}" for e, a, i in INPUTS],
)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(value=VALUES)
def test_a_per_day_entry_accepts_exactly_what_its_rules_accept(entry, arg, index, value):
    call, valid, rules = PER_DAY[entry]
    args = _with(valid, arg, index, value)
    ruled, got = _outcome(rules, args), _outcome(call, args)
    if ruled[0] != "returned":  # rejected, with the rule's own error and message
        assert got == ruled
        return
    # Accepted: the entry returns, or reports an overflow as its Raises section says.
    assert got[0] in ("returned", NumericInstabilityError), got
    if type(value) is int:  # a valid int computes as the float equal to it
        as_float = _outcome(call, _with(valid, arg, index, float(value)))
        assert got[0] == as_float[0]
        assert got[0] != "returned" or got[1] == as_float[1]


def test_valid_int_inputs_compute_as_their_floats():
    # The course and each checked entry compute a valid int input as float(n),
    # so two int inputs never meet in int arithmetic: an int sum is exact
    # where the floats' rounds, and an int product can outgrow the floats.
    counts = (145514431571737540, 271902015394427964, 1088923384270674083)
    floats = tuple(float(y) for y in counts)
    assert counts != floats  # not every count is exactly a float
    for params in (MIXING, MIXING._replace(integer_rounding=False)):
        course = simulate_course(params, PopulationState(*counts))
        assert course.records[0][2:5] == counts  # the initial record keeps the ints
        assert course.records[1:] == simulate_course(params, PopulationState(*floats)).records[1:]
    op = RadiationOperator(1, 1, 1)
    assert apply_pulse(op, (2**60, 2**60, 1)) == apply_pulse(op, (2.0**60, 2.0**60, 1.0))
    for duration, v2 in ((10**10, 10**300), (1e10, 1e300)):
        with pytest.raises(NumericInstabilityError):
            integrate_growth((0.01, 0.016, v2, 0.1, 0.1), (0.6, 0.34, 0.06), duration, 1)


# The checked constructors, each with valid arguments to vary one field of.
# The transfers q and p are 0.0, so any valid survival fraction s keeps them in range.
CONSTRUCTORS = {
    "ModelParams": (ModelParams, {}),
    "PopulationState": (PopulationState, {"y0": 6.0, "y1": 3.0, "y2": 1.0}),
    "RadiationOperator": (RadiationOperator, {"s": 0.5, "q": 0.0, "p": 0.0}),
}
FIELDS = [(kind, field) for kind, (make, _) in CONSTRUCTORS.items() for field in make._fields]


@pytest.mark.parametrize("kind, field", FIELDS, ids=[f"{k}-{f}" for k, f in FIELDS])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=VALUES)
def test_a_checked_constructor_returns_or_names_the_bad_field(kind, field, value):
    # Any other exception, a bare TypeError or OverflowError say, propagates and fails.
    make, valid = CONSTRUCTORS[kind]
    try:
        made = make(**{**valid, field: value})
    except SimulationError as exc:
        # The message opens with the field's name, or states its value as name=value.
        assert re.match(rf"({field} |.*\b{field}=)", str(exc)), str(exc)
        return
    assert getattr(made, field) == value
    if make is ModelParams and PARAM_TABLE[field].kind is float:
        assert type(getattr(made, field)) is float  # a valid int is stored as its float


def _names(name, message):
    """Whether an error message opens with the argument's name or states its
    value as name=value, as a cross-field rule's does."""
    return re.match(rf"({re.escape(name)} |.*\b{re.escape(name)}=)", message) is not None


# Each exported function taking a number, with one argument drawn and the rest
# valid: (argument name, call taking the drawn value).
LQ_ARGUMENTS = [
    ("n0", lambda n0: lq_closed_form(n0, 3, PARAMS)),
    ("n", lambda n: lq_closed_form(1e9, n, PARAMS)),
]
CONFIG_KEYS = [*PARAM_TABLE, "initial_pulses", "initial_total"]
# Ordinary values, often within a rule's range, besides VALUES's extremes.
ARGUMENTS = st.one_of(st.floats(0.0, 10.0), st.integers(0, 10), VALUES)


@pytest.mark.parametrize("name, call", LQ_ARGUMENTS, ids=[name for name, _ in LQ_ARGUMENTS])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(value=ARGUMENTS)
def test_lq_closed_form_returns_a_finite_total_or_names_the_argument(name, call, value):
    try:
        total = call(value)
    except SimulationError as exc:
        assert type(exc) is InvalidParameterError and _names(name, str(exc)), str(exc)
        return
    assert type(total) is float and math.isfinite(total)


@pytest.mark.parametrize("key", PARAM_TABLE)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(value=ARGUMENTS)
def test_a_one_value_sweep_gives_a_finite_entry_or_an_error_row(key, value):
    # A value the parameters reject names its key, or the cross-field rule
    # it breaks; a valid one runs its course, which may overflow a division
    # (theta = 8 does) and report that as its own NumericInstabilityError.
    (entry,) = sweep(MIXING, key, (value,), START)
    if entry.error is None:
        assert math.isfinite(entry.final_total) and math.isfinite(entry.final_phi)
        return
    try:
        changed = MIXING._replace(**{key: value})
    except SimulationError as exc:
        assert entry.error == str(exc) and _names(key, str(exc)), entry.error
        return
    with pytest.raises(NumericInstabilityError) as raised:
        simulate_course(changed, START)
    assert entry.error == str(raised.value)


def _document(key, value):
    """A config whose one key holds value, the rest valid."""
    if key == "initial_total":
        return {"initial_total": value, "initial_fractions": [0.6, 0.34, 0.06]}
    return {"initial_counts": [6, 3, 1], key: value}


@pytest.mark.parametrize("key", CONFIG_KEYS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(value=ARGUMENTS)
def test_parse_config_returns_finite_values_or_names_the_key(key, value):
    try:
        config = parse_config(json.dumps(_document(key, value)))
    except ConfigError as exc:
        assert _names(key, str(exc)), str(exc)
        return
    assert all(math.isfinite(number) for number in (*config.params, *config.initial))
