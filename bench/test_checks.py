"""The benchmark's output checks pass real output and fire on broken output.

Run from the root of a source checkout:

    python3 bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "repopsim" / "data"


def _course(config_name: str) -> tuple[str, checks.Model]:
    sys.path.insert(0, str(ROOT / "src"))
    from repopsim.cli import cli_main

    config = DATA / config_name
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "course.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["run", "--config", str(config), "--out", str(out)])
        assert code == 0, code
        text = out.read_text(encoding="utf-8")
    return text, checks.Model(json.loads(config.read_text(encoding="utf-8")))


def _edit(text: str, line: int, column: int, change) -> str:
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[column] = change(cells[column])
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


class TrajectoryChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.baseline, cls.baseline_model = _course("baseline.json")
        cls.mixing, cls.mixing_model = _course("mixing.json")

    def problems_at(self, text: str, model: checks.Model, line: int) -> list[str]:
        problems = checks.check_trajectory(text, model)
        return [p for p in problems if p.startswith(f"line {line + 1} ")]

    def stage_problems_at(self, text: str, model: checks.Model, line: int) -> list[str]:
        """Problems the exact pulse and growth maps report at one line."""
        stages = ("the pulse matrix gives", "exp(A) and division give")
        return [p for p in self.problems_at(text, model, line) if any(s in p for s in stages)]

    def test_program_output_passes(self):
        self.assertEqual(checks.check_trajectory(self.baseline, self.baseline_model), [])
        self.assertEqual(checks.check_trajectory(self.mixing, self.mixing_model), [])

    def test_count_two_cells_off_fails(self):
        for line, phase in ((20, "post_growth"), (21, "post_radiation")):
            for text, model in ((self.baseline, self.baseline_model), (self.mixing, self.mixing_model)):
                self.assertIn(phase, text.splitlines()[line])
                # The total moves with the count, so only the stage maps can catch it.
                broken = _edit(text, line, 3, lambda c: str(int(c) + 2))
                broken = _edit(broken, line, 10, lambda c: str(int(c) + 2))
                self.assertTrue(self.stage_problems_at(broken, model, line))

    def test_count_one_cell_off_passes(self):
        # The exact solution and RK4 may round a count to neighbouring cells.
        broken = _edit(self.mixing, 20, 3, lambda c: str(int(c) + 1))
        broken = _edit(broken, 20, 10, lambda c: str(int(c) + 1))
        self.assertFalse(self.stage_problems_at(broken, self.mixing_model, 20))

    def test_wrong_v2_fails(self):
        broken = _edit(self.mixing, 30, 9, lambda c: f"{float(c) * 1.0001:.9f}")
        problems = self.problems_at(broken, self.mixing_model, 30)
        self.assertTrue(any("v2" in p for p in problems), problems)

    def test_swapped_rows_fail(self):
        for first in (9, 11):  # a pulse row with its growth row; two growth rows
            lines = self.baseline.splitlines()
            lines[first], lines[first + 1] = lines[first + 1], lines[first]
            broken = "\n".join(lines) + "\n"
            self.assertTrue(self.problems_at(broken, self.baseline_model, first))

    def test_wrong_diff_row_fails(self):
        delta_lines = ["day,phase,delta_phi"]
        phi_b = {tuple(r.split(",")[:2]): float(r.split(",")[8]) for r in self.baseline.splitlines()[1:]}
        for row in self.mixing.splitlines()[1:]:
            cells = row.split(",")
            delta_lines.append(f"{cells[0]},{cells[1]},{float(cells[8]) - phi_b[(cells[0], cells[1])]:.9f}")
        delta = "\n".join(delta_lines) + "\n"
        self.assertEqual(checks.check_diff(delta, self.mixing, self.baseline), [])
        broken = _edit(delta, 40, 2, lambda c: f"{float(c) + 1e-8:.9f}")
        self.assertTrue(checks.check_diff(broken, self.mixing, self.baseline))

    def test_check_output_needs_four_passes(self):
        four = "".join(f"PASS {n}: ok\n" for n in "abcd")
        self.assertEqual(checks.check_check_output(0, four), [])
        self.assertTrue(checks.check_check_output(0, four.replace("PASS d", "FAIL d")))
        self.assertTrue(checks.check_check_output(1, four))


if __name__ == "__main__":
    unittest.main()
