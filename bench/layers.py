"""Per-layer measurement: timing spans and Python call counts.

Spans come from wrappers installed on the module attributes the program
calls through, so that `repopsim.schedule.growth_day_detail` seen from
`simulate_course` is the wrapper. Nothing under src/ changes. Each span
records its name, start, end, parent span and operation; spans stay in
memory and are written out when the run ends.

Call counts come from their own pass under `sys.setprofile`, which sees every
Python call; they repeat exactly between runs of one commit, which wall
times on a shared machine do not.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# The modules of src/repopsim that hold the program's layers.
LAYERS = ("cli", "config", "core", "radiation", "growth", "schedule", "io", "analysis")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rk4_steps(args, kwargs, result) -> int:
    # integrate_growth(field, x, duration, step): its step count rule.
    duration, step = _arg(args, kwargs, 2, "duration"), _arg(args, kwargs, 3, "step")
    return max(1, round(duration / step))


def _records(args, kwargs, result) -> int:
    return len(result.records)


def _bytes_written(args, kwargs, result) -> int:
    return Path(_arg(args, kwargs, 1, "destination")).stat().st_size


# (module the program calls through, attribute, what the span's value counts)
TARGETS = (
    ("cli", "cli_main", None),
    ("cli", "load_config", None),
    ("cli", "simulate_course", _records),
    ("cli", "write_trajectory", _bytes_written),
    ("cli", "read_trajectory", None),
    ("cli", "diff_velocity", None),
    ("cli", "write_diff", _bytes_written),
    ("cli", "sweep", None),
    ("cli", "write_sweep_summary", _bytes_written),
    ("cli", "load_reference_table", None),
    ("cli", "compare_to_golden", None),
    ("cli", "lq_closed_form", None),
    ("cli", "build_radiation_operator", None),
    ("cli", "apply_pulse", None),
    ("analysis", "simulate_course", _records),
    ("schedule", "build_radiation_operator", None),
    ("schedule", "apply_pulse", None),
    ("schedule", "growth_day_detail", None),
    ("growth", "integrate_growth", _rk4_steps),
    ("growth", "apply_division", None),
)

IO_SPANS = (
    "io.write_trajectory",
    "io.read_trajectory",
    "io.write_diff",
    "io.write_sweep_summary",
    "io.load_reference_table",
)
ANALYSIS_SPANS = (
    "analysis.diff_velocity",
    "analysis.compare_to_golden",
    "analysis.lq_closed_form",
    "analysis.sweep",
)


class Tracer:
    """Installs timing wrappers and keeps the spans they record.

    Span i is column i of the arrays: a traced run records hundreds of
    thousands of spans, which as Python tuples would take some 300 MiB.
    """

    def __init__(self) -> None:
        self.names: list[str] = []  # span name by name id
        self.name_ids = array("h")
        self.starts = array("q")  # perf_counter_ns
        self.ends = array("q")  # 0 for a call that raised
        self.parents = array("q")  # index of the enclosing span, -1 for none
        self.ops = array("q")  # operation the span belongs to
        self.values = array("q")  # what the target counts, -1 for nothing
        self.op = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, note in TARGETS:
            module = importlib.import_module(f"repopsim.{module_name}")
            fn = getattr(module, attr)
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            if name not in self.names:
                self.names.append(name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, self.names.index(name), note))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name_id: int, note):
        stack, starts, ends, values = self._stack, self.starts, self.ends, self.values

        def wrapper(*args, **kwargs):
            index = len(starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1])
            self.ops.append(self.op)
            ends.append(0)
            values.append(-1)
            stack.append(index)
            start = perf_counter_ns()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
            ends[index] = end
            if note is not None:
                values[index] = note(args, kwargs, result)
            return result

        return wrapper

    def __len__(self) -> int:
        return len(self.starts)

    def write(self, path: Path) -> None:
        """Spans as CSV: index, name, start and end (ns from the first span's
        start), parent index (-1 for none), operation, value; a call that
        raised has no end."""
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,name,start_ns,end_ns,parent,op,value\n")
            for i in range(len(self)):
                end = self.ends[i] - t0 if self.ends[i] else ""
                value = self.values[i] if self.values[i] >= 0 else ""
                out.write(
                    f"{i},{self.names[self.name_ids[i]]},{self.starts[i] - t0},{end},"
                    f"{self.parents[i]},{self.ops[i]},{value}\n"
                )

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name, over calls that returned: calls, total and self
        nanoseconds, summed value."""
        done = [i for i in range(len(self)) if self.ends[i]]
        child = [0] * len(self)
        for i in done:
            if self.parents[i] >= 0:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i in done:
            name = self.names[self.name_ids[i]]
            t = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "value": 0})
            t["calls"] += 1
            t["ns"] += self.ends[i] - self.starts[i]
            t["self_ns"] += self.ends[i] - self.starts[i] - child[i]
            t["value"] += max(self.values[i], 0)
        return out


COUNTS = ("growth.rk4_steps", "radiation.pulses", "schedule.records")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.startswith("calls.") or metric in COUNTS:
        return "count"
    suffix = metric.rsplit("_", 1)[-1]
    return {"written": "bytes", "pct": "%"}.get(suffix, suffix)  # else ms, us or ns


def layer_metrics(totals: dict, ops: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from span totals over `ops` traced operations.

    Returns the metrics every workload produces, then the ones only some
    workloads produce (a function the workload never calls has no time).
    """

    def get(name: str) -> dict:
        return totals.get(name, {"calls": 0, "ns": 0, "self_ns": 0, "value": 0})

    def per_call(name: str, scale: float, key: str = "ns") -> float | None:
        t = get(name)
        return t[key] / t["calls"] / scale if t["calls"] else None

    steps = get("growth.integrate_growth")["value"]
    common = {
        "growth.mix_us": per_call("growth.integrate_growth", 1e3),
        "growth.rk4_steps": steps / ops,
        "growth.rk4_step_ns": get("growth.integrate_growth")["ns"] / steps if steps else None,
        "growth.day_us": per_call("growth.growth_day_detail", 1e3),
        "growth.division_us": per_call("growth.apply_division", 1e3),
        "growth.self_us": per_call("growth.growth_day_detail", 1e3, "self_ns"),
        "radiation.pulse_us": per_call("radiation.apply_pulse", 1e3),
        "radiation.pulses": get("radiation.apply_pulse")["calls"] / ops,
        "schedule.course_ms": per_call("schedule.simulate_course", 1e6),
        "schedule.self_ms": per_call("schedule.simulate_course", 1e6, "self_ns"),
        "schedule.records": get("schedule.simulate_course")["value"] / ops,
        "io.write_ms": per_call("io.write_trajectory", 1e6),
        "io.bytes_written": sum(get(n)["value"] for n in IO_SPANS) / ops,
        "io.op_ms": sum(get(n)["ns"] for n in IO_SPANS) / ops / 1e6,
        "analysis.op_ms": sum(get(n)["self_ns"] for n in ANALYSIS_SPANS) / ops / 1e6,
        "config.load_us": per_call("config.load_config", 1e3),
        "cli.self_ms": get("cli.cli_main")["self_ns"] / ops / 1e6,
    }
    partial = {
        "io.read_ms": per_call("io.read_trajectory", 1e6),
        "io.reference_ms": per_call("io.load_reference_table", 1e6),
        "io.summary_ms": per_call("io.write_sweep_summary", 1e6),
        "analysis.diff_ms": per_call("analysis.diff_velocity", 1e6),
        "analysis.compare_ms": per_call("analysis.compare_to_golden", 1e6),
        "analysis.sweep_self_ms": per_call("analysis.sweep", 1e6, "self_ns"),
    }
    return common, {k: v for k, v in partial.items() if v is not None}


def count_calls(operation) -> dict[str, int]:
    """Python calls per layer module made while `operation()` runs.

    A generator or comprehension counts as a call each time it is entered
    or resumed, as the profiler reports it.
    """
    files = {}
    for layer in LAYERS:
        module = importlib.import_module(f"repopsim.{layer}")
        files[module.__file__] = f"calls.{layer}"
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            name = files.get(frame.f_code.co_filename)
            if name is not None:
                counts[name] += 1

    sys.setprofile(profile)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return {f"calls.{layer}": counts[f"calls.{layer}"] for layer in LAYERS}
