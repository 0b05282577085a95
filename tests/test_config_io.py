"""Configuration parsing and file serialization round trips."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from importlib import resources

import pytest

from repopsim import (
    PHASES,
    ConfigError,
    GoldenRow,
    ModelParams,
    PopulationState,
    SchemaError,
    SweepEntry,
    Trajectory,
    TrajectoryRecord,
    diff_velocity,
    load_config,
    load_reference_table,
    parse_config,
    read_trajectory,
    simulate_course,
    write_diff,
    write_sweep_summary,
    write_trajectory,
)
from repopsim.cli import EXIT_VALIDATION, cli_main
from repopsim.io import (
    DIFF_HEADER,
    REFERENCE_SHA256,
    SWEEP_HEADER,
    TRAJECTORY_HEADER,
)

BASELINE = resources.files("repopsim").joinpath("data/baseline.json")
_BAD_CELL_ROW = "1,initial,abc,2,3,0,0,0,0,0,6"


def minimal_config(**overrides) -> str:
    document = {"initial_counts": [600.0, 340.0, 60.0]}
    document.update(overrides)
    return json.dumps(document)


class TestParseConfig:
    def test_bundled_baseline_matches_defaults(self):
        config = parse_config(BASELINE.read_text(encoding="utf-8"))
        assert config.params == ModelParams()
        assert (config.params.alpha, config.params.beta, config.params.dose) == (0.2, 0.02, 2.0)
        assert (config.params.v0, config.params.v1) == (0.01, 0.016)
        assert (config.params.a, config.params.theta) == (5.0, 0.005)
        assert (config.params.weeks, config.params.pulses_per_week) == (6, 5)
        assert (config.initial.y0, config.initial.y1, config.initial.y2) == (
            371270035.0,
            210386353.0,
            37127004.0,
        )
        assert config.initial.pulses_delivered == 1
        assert config.output is None

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="banana"):
            parse_config(minimal_config(banana=1))

    def test_transfer_rate_beyond_survival_names_key(self):
        with pytest.raises(ConfigError, match="q_rad"):
            parse_config(minimal_config(q_rad=0.7))

    def test_total_with_fractions_snaps_to_reference_counts(self):
        text = json.dumps(
            {"initial_total": 618783392, "initial_fractions": [0.6, 0.34, 0.06]}
        )
        config = parse_config(text)
        assert (config.initial.y0, config.initial.y1, config.initial.y2) == (
            371270035.0,
            210386353.0,
            37127004.0,
        )

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("not json", "JSON"),
            ("[1, 2]", "object"),
            (minimal_config(alpha="fast"), "alpha"),
            (minimal_config(weeks=2.5), "weeks"),
            (minimal_config(integer_rounding="yes"), "integer_rounding"),
            (minimal_config(initial_counts=[1, 2]), "initial_counts"),
            (minimal_config(initial_counts=[-1, 2, 3]), "initial_counts"),
            (minimal_config(initial_counts=[1e308, 1e308, 0]), "initial_counts must have a finite"),
            ('{"initial_counts": [NaN, 2, 3]}', "^initial_counts must be >= 0, got nan$"),
            (
                '{"initial_total": 1e309, "initial_fractions": [1, 0, 0]}',
                "initial_total must be finite",
            ),
            (
                '{"initial_total": 10, "initial_fractions": [NaN, 0.5, 0.5]}',
                "initial_fractions must be nonnegative",
            ),
            (minimal_config(initial_pulses=-1), "initial_pulses"),
            (minimal_config(output=7), "output"),
            (minimal_config(weeks=0), "weeks"),
            ('{"initial_total": 100}', "initial_fractions"),
            ("{}", "initial"),
        ],
    )
    def test_diagnostics_name_the_problem(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    @pytest.mark.parametrize(
        "overrides",
        [{"alpha": -1}, {"dose": "x", "alpha": -1}],
        ids=["int", "dose-first-in-the-document"],
    )
    def test_a_value_is_quoted_as_written_and_table_order_picks_the_key(self, overrides):
        # ModelParams checks the keys in PARAM_TABLE order, alpha before dose,
        # and quotes each value as the document wrote it: -1, not -1.0.
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_config(**overrides))
        assert str(info.value) == "alpha must be >= 0, got -1"

    @pytest.mark.parametrize("rounding", [True, False], ids=["integer", "real"])
    def test_a_split_whose_counts_overflow_names_its_keys(self, rounding, tmp_path, capsys):
        # Fractions on the simplex within 1e-9 and a finite total whose spread
        # sums past the floats: the error names the keys the counts came from.
        document = json.dumps(
            {
                "initial_total": 1.7976931348623157e308,
                "initial_fractions": [0.5000000005, 0.5, 0.0],
                "integer_rounding": rounding,
            }
        )
        message = (
            "initial_total * initial_fractions must have a finite total, "
            "got (8.988465683300044e+307, 8.988465674311579e+307, 0.0)"
        )
        with pytest.raises(ConfigError) as info:
            parse_config(document)
        assert str(info.value) == message
        config = tmp_path / "split.json"
        config.write_text(document, encoding="utf-8")
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "document, key",
        [
            ('{"dose": 2.0, "dose": 20.0, "initial_counts": [6, 3, 1]}', "dose"),
            ('{"initial_counts": [6, 3, 1], "initial_counts": [60, 30, 10]}', "initial_counts"),
        ],
        ids=["parameter", "initial_counts"],
    )
    def test_a_repeated_key_is_rejected(self, document, key, tmp_path, capsys):
        # json.loads keeps a repeated key's last value: the course ran at dose 20.0.
        message = f"repeated key: {key!r}"
        with pytest.raises(ConfigError) as info:
            parse_config(document)
        assert str(info.value) == message
        config = tmp_path / "repeated.json"
        config.write_text(document, encoding="utf-8")
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_rejects_both_population_forms(self):
        text = minimal_config(initial_total=100, initial_fractions=[0.5, 0.3, 0.2])
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(text)

    def test_rejects_fractions_off_simplex(self):
        text = json.dumps({"initial_total": 100, "initial_fractions": [0.5, 0.3, 0.1]})
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_config(text)

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(minimal_config(weeks=1), encoding="utf-8")
        config = load_config(str(path))
        assert config.params.weeks == 1


def test_no_file_entry_takes_a_file_descriptor(course_zero):
    # open() takes an int, a bool included, as a file descriptor and closes
    # it after: an entry that passed its argument on would read or write a
    # pipe end, or standard input or output for False or True, and close it.
    read_end, write_end = os.pipe()
    saved = os.dup(0), os.dup(1)
    diff = diff_velocity(course_zero, course_zero)
    calls = (
        load_config,
        read_trajectory,
        lambda fd: write_trajectory(course_zero, fd),
        lambda fd: write_diff(diff, fd),
        lambda fd: write_sweep_summary((), fd),
    )
    try:
        os.set_blocking(read_end, False)  # a read of the empty pipe raises, not waits
        for call in calls:
            for fd in (read_end, write_end, False, True):
                with pytest.raises(TypeError):
                    call(fd)
        for fd in (read_end, write_end):
            os.fstat(fd)
    finally:
        for fd, target in zip(saved, (0, 1)):
            os.dup2(fd, target)
        for fd in (read_end, write_end, *saved):
            os.close(fd)


class TestTrajectoryFiles:
    def test_header_is_fixed(self):
        assert TRAJECTORY_HEADER == "day,phase,y0,y1,y2,x0,x1,x2,phi,v2,total"
        assert "|".join(GoldenRow._fields) == "day|phase|y0|y1|y2|velocity"

    def test_empty_trajectory_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trajectory(Trajectory(records=(), integer_rounding=True), path)
        assert path.read_text(encoding="utf-8") == TRAJECTORY_HEADER + "\n"

    def test_a_trajectory_states_its_count_format(self):
        # With integer counts by default, a real-mode course rebuilt without the
        # format wrote 6.5 cells as 6.
        with pytest.raises(TypeError):
            Trajectory(records=())

    def test_real_mode_course_comes_back_at_nine_decimals(self, tmp_path):
        course = simulate_course(
            ModelParams(integer_rounding=False), PopulationState(6.5, 3.25, 1.0)
        )
        path = tmp_path / "real.csv"
        write_trajectory(Trajectory(records=course.records, integer_rounding=False), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1].startswith("1,initial,6.500000000,3.250000000,1.000000000,")
        assert lines[1].endswith(",10.750000000")
        # Each real cell is written with nine decimals, so it reads back as that text's float.
        nine = [
            TrajectoryRecord(rec.day, rec.phase, *(float("%.9f" % v) for v in rec[2:]))
            for rec in course.records
        ]
        assert read_trajectory(path) == Trajectory(tuple(nine), integer_rounding=False)

    def test_reference_initial_line(self, course_zero, tmp_path):
        path = tmp_path / "course.csv"
        write_trajectory(course_zero, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        first = lines[1]
        assert first.startswith("1,initial,371270035,210386353,37127004,")
        assert "0.000000000" in first

    def test_integer_counts_have_no_decimal_point(self, course_zero, tmp_path):
        path = tmp_path / "course.csv"
        write_trajectory(course_zero, path)
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            cells = line.split(",")
            for cell in (cells[2], cells[3], cells[4], cells[10]):
                assert "." not in cell

    def test_write_read_write_is_byte_stable(self, course_zero, tmp_path):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_trajectory(course_zero, first)
        parsed = read_trajectory(first)
        assert parsed.integer_rounding is True
        assert len(parsed.records) == len(course_zero.records)
        write_trajectory(parsed, second)
        assert first.read_bytes() == second.read_bytes()

    def test_roundtrip_exact_on_representable_values(self, tmp_path):
        record = TrajectoryRecord(
            day=3, phase="post_growth", y0=12.5, y1=7.25, y2=80.125,
            x0=0.125, x1=0.0725, x2=0.8025, phi=0.015625, v2=0.08, total=99.875,
        )
        trajectory = Trajectory(records=(record,), integer_rounding=False)
        path = tmp_path / "tiny.csv"
        write_trajectory(trajectory, path)
        parsed = read_trajectory(path)
        assert parsed.records == trajectory.records

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("day,phase,nope\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=f"^{path}: expected header "):
            read_trajectory(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(TRAJECTORY_HEADER + "\n1,initial,1,2\n", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            read_trajectory(path)
        assert str(info.value) == f"{path}: line 2: expected 11 columns, got 4: '1,initial,1,2'"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([_BAD_CELL_ROW, "1,initial,1,2"], f"line 2: 'abc' is not a number: {_BAD_CELL_ROW!r}"),
            (["1,bogus,1,2"], "line 2: expected 11 columns, got 4: '1,bogus,1,2'"),
            ([_BAD_CELL_ROW.replace("initial", "bogus")], "line 2: unknown phase 'bogus'"),
        ],
        ids=["earlier-line-first", "width-before-phase", "phase-before-cell"],
    )
    def test_first_fault_of_the_first_faulty_line_is_named(self, tmp_path, rows, message):
        # Two faults a file: the error names the first faulty line, and on one
        # line the column count comes before the phase, and the phase before a cell.
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([TRAJECTORY_HEADER, *rows]) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            read_trajectory(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("column", [0, 2, 5, 10])
    def test_malformed_number_names_the_line(self, column, tmp_path):
        good = "1,initial,600,340,60,0.600000000,0.340000000,0.060000000,0.0,0.08,1000"
        cells = good.split(",")
        cells[column] = "abc"
        path = tmp_path / "bad.csv"
        text = "\n".join([TRAJECTORY_HEADER, good, ",".join(cells)]) + "\n"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            read_trajectory(path)
        assert str(info.value).startswith(f"{path}: line 3: 'abc' is not ")

    def test_unknown_phase_names_file_and_line(self, tmp_path):
        good = "1,initial,600,340,60,0.600000000,0.340000000,0.060000000,0.0,0.08,1000"
        path = tmp_path / "bad.csv"
        rows = [TRAJECTORY_HEADER, good, good.replace("initial", "bogus")]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            read_trajectory(path)
        assert str(info.value) == f"{path}: line 3: unknown phase 'bogus'"

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\xff\xfe", "{path}: not UTF-8 text: "),
            (
                TRAJECTORY_HEADER + "\n1,initial,abc,2,3,0,0,0,0,0,6\n",
                "{path}: line 2: 'abc' is not a number: '1,initial,abc,2,3,0,0,0,0,0,6'",
            ),
            (
                TRAJECTORY_HEADER + "\n1.5,initial,1,2,3,0,0,0,0,0,6\n",
                "{path}: line 2: '1.5' is not an integer: '1.5,initial,1,2,3,0,0,0,0,0,6'",
            ),
        ],
        ids=["not-utf8", "not-a-number", "day-not-an-integer"],
    )
    def test_unreadable_file_names_file_and_line(self, tmp_path, content, message):
        # The full message, quoted line included, which the prefix checks above leave open.
        path = tmp_path / "bad.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            read_trajectory(path)
        assert str(info.value).startswith(message.format(path=path))


class TestDiffAndSweepFiles:
    def test_self_diff_writes_zero_column(self, course_zero, tmp_path):
        path = tmp_path / "diff.csv"
        write_diff(diff_velocity(course_zero, course_zero), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == DIFF_HEADER == "day,phase,delta_phi"
        assert len(lines) == 1 + len(course_zero.records)
        for line in lines[1:]:
            assert line.split(",")[2] == "0.000000000"

    def test_sweep_summary_quotes_commas(self, tmp_path):
        entries = (
            SweepEntry(value=5.0, final_total=100.0, final_phi=0.08, threshold_day=3),
            SweepEntry(value=0.7, error="q_rad must lie in [0, 0.6], got 0.7"),
        )
        path = tmp_path / "summary.csv"
        write_sweep_summary(entries, path)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == SWEEP_HEADER.split(",")
        assert rows[1] == ["5.0", "100.000000000", "0.080000000", "3", ""]
        assert rows[2] == ["0.7", "", "", "", "q_rad must lie in [0, 0.6], got 0.7"]


class TestReferenceTable:
    def test_bundled_table_shape_and_anchors(self, golden):
        assert len(golden) == 83
        first = golden[0]
        assert (first.day, first.phase) == (1, "initial")
        assert (first.y0, first.y1, first.y2) == (371270035.0, 210386353.0, 37127004.0)
        assert first.velocity == 0.0
        last = golden[-1]
        assert (last.day, last.phase) == (48, "post_growth")
        assert last.velocity == 0.078599769

    def test_bundled_table_checksum(self):
        data = resources.files("repopsim").joinpath("data/reference_course.psv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == REFERENCE_SHA256

    def test_bundled_table_schema(self):
        # load_reference_table parses the checksummed bytes as trusted, so the
        # table's schema is checked here, where an edit of the table together
        # with its checksum still shows.
        text = resources.files("repopsim").joinpath("data/reference_course.psv").read_text("utf-8")
        header, *lines = text.splitlines()
        assert header == "|".join(GoldenRow._fields)
        rows = []
        for line in lines:
            cells = line.split("|")
            assert len(cells) == 6, line
            assert cells[1] in PHASES, line
            rows.append((int(cells[0]), cells[1], *map(float, cells[2:])))
        assert load_reference_table() == tuple(rows)


# A single line or cell of 200,000 characters, as in a file that is not a table at all.
LONG = "9" * 200_000
_GOOD_ROW = "1,initial,600,340,60,0.600000000,0.340000000,0.060000000,0.0,0.08,1000"


@pytest.mark.parametrize(
    "text, lengths",
    [
        (LONG, [200_000]),
        (TRAJECTORY_HEADER + "\n" + LONG, [200_000]),
        (
            TRAJECTORY_HEADER + "\n" + _GOOD_ROW.replace("600", "x" + LONG, 1),
            [200_001, len(_GOOD_ROW) - 3 + 200_001],
        ),
    ],
    ids=["trajectory-header", "trajectory-columns", "trajectory-cell"],
)
def test_error_message_cuts_a_long_line_and_states_its_length(tmp_path, text, lengths):
    path = tmp_path / "long.txt"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        read_trajectory(str(path))
    message = str(info.value)
    assert len(message) < 300
    for length in lengths:
        assert f"... ({length} characters)" in message


@pytest.mark.parametrize(
    "document, start, end",
    [
        ({"k" * 100_000: 1}, "unknown key: 'kkk", "... (100000 characters)"),
        ({"dose": "x" * 100_000}, "dose must be a number, got 'xxx", "... (100000 characters)"),
        (
            {"initial_counts": [0] * 100_000},
            "initial_counts must be a list of three numbers, got [0, 0, ",
            "... (300000 characters)",
        ),
        (
            {"output": "a\0" + "b" * 100_000},
            "output must be a nonempty path with no NUL, got 'a\\x00bbb",
            "... (100002 characters)",
        ),
        (
            {"initial_pulses": "x" * 100_000},
            "initial_pulses must be an integer, got 'xxx",
            "... (100000 characters)",
        ),
        ({"weeks": 10**3999}, "weeks is too large, got an integer of 4000 digits", ""),
    ],
    ids=["unknown-key", "number-key", "initial-counts", "output", "initial-pulses", "huge-weeks"],
)
def test_config_message_cuts_a_long_value_and_states_its_length(document, start, end):
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps({"initial_counts": [6, 3, 1], **document}))
    message = str(info.value)
    assert len(message) < 300
    assert message.startswith(start) and message.endswith(end)
