"""Output checks for the benchmark, computed apart from repopsim.

Nothing here imports repopsim. The model is rebuilt from the configuration
keys and the rules in the repository README:

- a pulse multiplies the counts by [[S-Q,0,0],[Q,S-P,0],[0,P,S]] with
  S = exp(-alpha*d - beta*d^2);
- the growth stage's replicator-mutator field is the projection onto the
  simplex of the linear ODE y' = A y with
  A = [[v0(1-q_mix),0,0],[v0 q_mix, v1(1-p_mix),0],[0, v1 p_mix, v2]]
  (Hofbauer & Sigmund, Evolutionary Games and Population Dynamics, 1998),
  so one day of mixing ends at normalize(exp(A) x); counts are then rebuilt
  from the fractions and each compartment divides by 2**v_i;
- v2 = a * v1 * psi, where psi = exp(theta - n*(|(q_rad,p_rad)|*d +
  |(q_mix,p_mix)|*d^2)) on treatment days and exp(theta - n*|(q_mix,p_mix)|)
  across weekends, n being the pulses delivered so far;
- the schedule emits an initial row, then per week pulses_per_week
  treatment days (pulse row except on the course's first day, then a
  growth row) and weekend_days growth rows.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from pathlib import Path

TRAJECTORY_HEADER = "day,phase,y0,y1,y2,x0,x1,x2,phi,v2,total"
DIFF_HEADER = "day,phase,delta_phi"
SUMMARY_HEADER = "value,final_total,final_phi,threshold_day,error"

# Configuration defaults, as the README's key table lists them.
DEFAULTS = {
    "alpha": 0.2,
    "beta": 0.02,
    "dose": 2.0,
    "q_rad": 0.0,
    "p_rad": 0.0,
    "q_mix": 0.0,
    "p_mix": 0.0,
    "v0": 0.01,
    "v1": 0.016,
    "a": 5.0,
    "theta": 0.005,
    "weeks": 6,
    "ode_step": 0.01,
    "integer_rounding": True,
    "weekend_days": 2,
    "pulses_per_week": 5,
    "initial_pulses": 0,
}

RADIATION = "radiation"
WEEKEND = "weekend"

# Reals are written with nine decimals, so a printed value sits within 5e-10
# of the float behind it; 6e-10 leaves room for the reference's own rounding.
PRINTED = 6e-10
# A recomputed whole-cell count may differ by one cell where the exact
# solution and the integrator fall on opposite sides of a rounding tie; two
# cells off is a fault.
CELL = 1.0
# Real-valued counts against the exact solution, as a share of the row
# total. RK4's own error at ode_step 0.5 stays below 1e-10 of it.
REAL_RELATIVE = 1e-9
# Phi against the exact solution: RK4 error plus printing.
PHI = 1e-9
# An integer pulse total may miss S * previous total by the three snaps.
PULSE_TOTAL = 1.5
# Terms of the Taylor series for exp(A); ||A|| < 0.2 on every workload.
TAYLOR_TERMS = 30


def snap(value: float) -> float:
    """Nearest whole cell, ties away from zero, floored at zero."""
    return 0.0 if value <= 0 else float(math.floor(value + 0.5))


def expm3(a: list[list[float]]) -> list[list[float]]:
    """exp(A) of a 3x3 matrix by its Taylor series."""
    result = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    term = [row[:] for row in result]
    for k in range(1, TAYLOR_TERMS):
        term = [
            [sum(term[i][m] * a[m][j] for m in range(3)) / k for j in range(3)]
            for i in range(3)
        ]
        result = [[result[i][j] + term[i][j] for j in range(3)] for i in range(3)]
    return result


class Model:
    """One course's parameters and the exact stage maps derived from them."""

    def __init__(self, config: dict):
        unknown = set(config) - set(DEFAULTS) - {"initial_counts", "output"}
        if unknown:
            raise ValueError(f"the checks do not model keys {sorted(unknown)}")
        self.p = {**DEFAULTS, **config}
        p = self.p
        d = p["dose"]
        self.s = math.exp(-(p["alpha"] * d + p["beta"] * d * d))
        self.pulse = [
            [self.s - p["q_rad"], 0.0, 0.0],
            [p["q_rad"], self.s - p["p_rad"], 0.0],
            [0.0, p["p_rad"], self.s],
        ]
        self._growth: dict[tuple[int, str], tuple[list[list[float]], tuple]] = {}

    def v2(self, pulses: int, period: str) -> float:
        p = self.p
        d = p["dose"]
        mix = math.sqrt(p["q_mix"] ** 2 + p["p_mix"] ** 2)
        if period == RADIATION:
            rad = math.sqrt(p["q_rad"] ** 2 + p["p_rad"] ** 2)
            exponent = p["theta"] - pulses * (rad * d + mix * d * d)
        else:
            exponent = p["theta"] - pulses * mix
        return p["a"] * p["v1"] * math.exp(exponent)

    def growth(self, pulses: int, period: str):
        """exp(A) and the velocities for one growth day."""
        key = (pulses, period)
        if key not in self._growth:
            p = self.p
            v = (p["v0"], p["v1"], self.v2(pulses, period))
            a = [
                [v[0] * (1 - p["q_mix"]), 0.0, 0.0],
                [v[0] * p["q_mix"], v[1] * (1 - p["p_mix"]), 0.0],
                [0.0, v[1] * p["p_mix"], v[2]],
            ]
            self._growth[key] = (expm3(a), v)
        return self._growth[key]

    def grid(self) -> list[tuple[int, str, int, str]]:
        """(day, phase, pulses delivered, period) of every row, in order."""
        p = self.p
        pulses = p["initial_pulses"]
        rows = [(1, "initial", pulses, RADIATION)]
        day, first = 1, True
        for _ in range(p["weeks"]):
            for _ in range(p["pulses_per_week"]):
                if not first:
                    pulses += 1
                    rows.append((day, "post_radiation", pulses, RADIATION))
                first = False
                rows.append((day, "post_growth", pulses, RADIATION))
                day += 1
            for _ in range(p["weekend_days"]):
                rows.append((day, "post_growth", pulses, WEEKEND))
                day += 1
        return rows


def _table(text: str, header: str) -> tuple[list[list[str]], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"header is {lines[0] if lines else '<empty>'!r}, want {header!r}"]
    return [line.split(",") for line in lines[1:]], []


def _counts_off(got: tuple, want: tuple, integer: bool) -> bool:
    slack = CELL if integer else REAL_RELATIVE * sum(want)
    return any(abs(g - w) > slack for g, w in zip(got, want))


def check_trajectory(text: str, model: Model, bounds: tuple[float, float] | None = None) -> list[str]:
    """Every row of a trajectory file against the exact stage maps."""
    rows, problems = _table(text, TRAJECTORY_HEADER)
    if problems:
        return problems
    grid = model.grid()
    if len(rows) != len(grid):
        problems.append(f"{len(rows)} rows, the schedule gives {len(grid)}")
    integer = model.p["integer_rounding"]
    prev = None
    for n, (cells, (day, phase, pulses, period)) in enumerate(zip(rows, grid), start=2):
        where = f"line {n} (day {day} {phase})"
        if len(cells) != 11:
            problems.append(f"{where}: {len(cells)} columns")
            prev = None
            continue
        if (cells[0], cells[1]) != (str(day), phase):
            problems.append(f"{where}: row is day {cells[0]} {cells[1]}")
            prev = None
            continue
        if integer and any("." in cells[i] for i in (2, 3, 4, 10)):
            problems.append(f"{where}: integer mode wrote a fractional count")
        y = tuple(float(c) for c in cells[2:5])
        x = tuple(float(c) for c in cells[5:8])
        phi, v2, total = float(cells[8]), float(cells[9]), float(cells[10])
        if abs(total - sum(y)) > 1e-6:
            problems.append(f"{where}: total {total} is not y0+y1+y2 = {sum(y)}")
        if any(abs(xi - yi / total) > PRINTED for xi, yi in zip(x, y)):
            problems.append(f"{where}: fractions {x} are not the counts normalized")
        want_v2 = model.v2(pulses, period if phase == "post_growth" else RADIATION)
        if abs(v2 - want_v2) > PRINTED:
            problems.append(f"{where}: v2 {v2!r}, a*v1*psi gives {want_v2!r}")
        if bounds is not None and not bounds[0] <= total <= bounds[1]:
            problems.append(f"{where}: total {total:.4g} outside {bounds}")
        if phase == "initial" and phi != 0.0:
            problems.append(f"{where}: initial phi {phi!r}, want 0")
        if prev is not None and phase == "post_radiation":
            if phi != prev[1]:
                problems.append(f"{where}: phi {phi!r} is not carried from the row before")
            m = model.pulse
            want = tuple(sum(m[i][j] * prev[0][j] for j in range(3)) for i in range(3))
            if integer:
                want = tuple(snap(w) for w in want)
                if abs(total - model.s * sum(prev[0])) > PULSE_TOTAL:
                    problems.append(f"{where}: total {total} is not S times the previous total")
            if _counts_off(y, want, integer):
                problems.append(f"{where}: counts {y}, the pulse matrix gives {want}")
        if prev is not None and phase == "post_growth":
            e, v = model.growth(pulses, period)
            before = sum(prev[0])
            x0 = [c / before for c in prev[0]]
            z = [sum(e[i][j] * x0[j] for j in range(3)) for i in range(3)]
            x_end = [zi / sum(z) for zi in z]
            want_phi = sum(vi * xi for vi, xi in zip(v, x_end))
            if abs(phi - want_phi) > PHI:
                problems.append(f"{where}: phi {phi!r}, exp(A) gives {want_phi!r}")
            mixed = [xi * before for xi in x_end]
            if integer:
                mixed = [snap(c) for c in mixed]
            want = tuple(c * 2.0 ** vi for c, vi in zip(mixed, v))
            if integer:
                want = tuple(snap(w) for w in want)
            if _counts_off(y, want, integer):
                problems.append(f"{where}: counts {y}, exp(A) and division give {want}")
        prev = (y, phi)
    return problems


def check_diff(text: str, first: str, second: str) -> list[str]:
    """A difference curve against phi_a - phi_b recomputed from the two files."""
    rows, problems = _table(text, DIFF_HEADER)
    a, pa = _table(first, TRAJECTORY_HEADER)
    b, pb = _table(second, TRAJECTORY_HEADER)
    if problems or pa or pb:
        return problems + pa + pb
    phi_b = {(r[0], r[1]): float(r[8]) for r in b}
    want = [(r[0], r[1], float(r[8]) - phi_b[(r[0], r[1])]) for r in a if (r[0], r[1]) in phi_b]
    if len(rows) != len(want):
        problems.append(f"{len(rows)} diff rows, the two files share {len(want)} points")
    for n, (cells, (day, phase, delta)) in enumerate(zip(rows, want), start=2):
        if (cells[0], cells[1]) != (day, phase):
            problems.append(f"line {n}: day {cells[0]} {cells[1]}, want day {day} {phase}")
        elif abs(float(cells[2]) - delta) > 3 * PRINTED:
            problems.append(f"line {n}: delta {cells[2]}, phi_a - phi_b = {delta!r}")
    return problems


def check_check_output(code: int, stdout: str) -> list[str]:
    """`check` must exit 0 with four PASS lines and nothing failing."""
    lines = stdout.splitlines()
    passes = [line for line in lines if line.startswith("PASS ")]
    problems = []
    if code != 0:
        problems.append(f"check exited {code}")
    if len(passes) != 4 or len(lines) != 4:
        problems.append(f"check printed {lines!r}, want four PASS lines")
    return problems


def check_sweep(out_dir: Path, param: str, values: list[float], config: dict) -> list[str]:
    """Sweep files: one per value, each with its own v2, matching the summary."""
    problems = []
    names = {f"sweep_{param}_{v!r}.csv" for v in values} | {"sweep_summary.csv"}
    present = {p.name for p in out_dir.iterdir()}
    if present != names:
        problems.append(f"sweep wrote {sorted(present ^ names)} against the values asked for")
        return problems
    rows, problems = _table((out_dir / "sweep_summary.csv").read_text(encoding="utf-8"), SUMMARY_HEADER)
    if [r[0] for r in rows] != [repr(v) for v in values]:
        problems.append(f"summary values {[r[0] for r in rows]}, want {values}")
        return problems
    for row, value in zip(rows, values):
        name = f"sweep_{param}_{value!r}.csv"
        text = (out_dir / name).read_text(encoding="utf-8")
        problems += [f"{name}: {p}" for p in check_trajectory(text, Model({**config, param: value}))]
        last = text.splitlines()[-1].split(",")
        if row[4] or float(row[1]) != float(last[10]) or abs(float(row[2]) - float(last[8])) > PRINTED:
            problems.append(f"summary row {row} does not match the last row of {name}")
    return problems


def growth_days(text: str) -> int:
    """post_growth rows of a trajectory file."""
    return sum(1 for line in text.splitlines() if line.split(",")[1:2] == ["post_growth"])
