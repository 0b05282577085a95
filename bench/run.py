"""Benchmark of the repopsim command-line sessions, with checked outputs.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload shipped --seed 1 --seconds 30 --trace 0

One closed-loop caller on one thread drives `repopsim.cli.cli_main` in
process. One operation is a fixed sequence of CLI commands (see WORKLOADS
and bench/README.md). The first operation's outputs are checked in full
against bench/checks.py, which computes the model apart from the program;
every later operation's files must match the first's byte for byte.

--trace 0 reports the end-to-end metrics. --trace 1 runs untraced, then
traced with timing wrappers, then one operation under a call counter, and
reports the per-layer metrics. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. The exit code is 1 when an
operation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "repopsim" / "data"
WORK = ROOT / ".bench_work"

# Fresh interpreters started per run to time `import repopsim.cli`, spread
# evenly over the run; the median is reported.
SETUP_SAMPLES = 10
# Iterations of the reference loop timed before every operation (about 1 ms).
REFERENCE_STEPS = 1000
SWEEP_VALUES = 20
# long-coarse keeps its population inside these bounds on every seed.
LONG_COARSE_BOUNDS = (1.9e8, 3.0e8)


@dataclass
class Workload:
    commands: list[list[str]]  # CLI argument lists, run in order
    outputs: list[Path]  # files every operation must write identically
    # Full check of one operation from its (exit code, stdout) per command:
    # the problems found and the growth days in the trajectories written.
    check: Callable[[list[tuple[int, str]]], tuple[list[str], int]]


def _config(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _check_course(path: Path, config: dict, bounds=None) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return [f"{path.name}: {p}" for p in checks.check_trajectory(text, checks.Model(config), bounds)]


def _check_diff(delta: Path, first: Path, second: Path) -> list[str]:
    texts = (p.read_text(encoding="utf-8") for p in (delta, first, second))
    return [f"{delta.name}: {p}" for p in checks.check_diff(*texts)]


def _days(*paths: Path) -> int:
    return sum(checks.growth_days(p.read_text(encoding="utf-8")) for p in paths)


def shipped(seed: int, work: Path) -> Workload:
    """The README session on the shipped configs; the seed is not used."""
    base, mix = DATA / "baseline.json", DATA / "mixing.json"
    zero, mixed, delta = work / "baseline.csv", work / "mixing.csv", work / "delta.csv"

    def check(results):
        problems = _check_course(zero, _config(base)) + _check_course(mixed, _config(mix))
        problems += _check_diff(delta, mixed, zero)
        problems += checks.check_check_output(*results[3])
        return problems, _days(zero, mixed)

    return Workload(
        commands=[
            ["run", "--config", str(base), "--out", str(zero)],
            ["run", "--config", str(mix), "--out", str(mixed)],
            ["diff", str(mixed), str(zero), "--out", str(delta)],
            ["check", "--config", str(mix)],
        ],
        outputs=[zero, mixed, delta],
        check=check,
    )


def long_coarse(seed: int, work: Path) -> Workload:
    """A 52-week course at ode_step 0.5, integer and real, and their diff.

    The dose sits near the balance of weekly growth and kill, and the start
    is mostly fast cells, so the population stays in LONG_COARSE_BOUNDS.
    """
    rng = random.Random(seed)
    dose = round(rng.uniform(0.374, 0.376), 6)
    total = rng.uniform(2.35e8, 2.45e8)
    fast = rng.uniform(0.88, 0.92)
    slow = rng.uniform(0.15, 0.35)
    rest = total * (1 - fast)
    counts = [round(rest * slow), round(rest * (1 - slow)), round(total * fast)]
    course = {
        **_config(DATA / "baseline.json"),
        "weeks": 52,
        "ode_step": 0.5,
        "dose": dose,
        "initial_counts": counts,
    }
    configs, trajectories = [], []
    for mode, rounding in (("int", True), ("real", False)):
        config = {**course, "integer_rounding": rounding}
        path = work / f"long_{mode}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        configs.append((path, config))
        trajectories.append(work / f"long_{mode}.csv")
    delta = work / "long_delta.csv"

    def check(results):
        problems = []
        for (_, config), path in zip(configs, trajectories):
            problems += _check_course(path, config, LONG_COARSE_BOUNDS)
        problems += _check_diff(delta, *trajectories)
        return problems, _days(*trajectories)

    return Workload(
        commands=[
            *(["run", "--config", str(c), "--out", str(t)] for (c, _), t in zip(configs, trajectories)),
            ["diff", str(trajectories[0]), str(trajectories[1]), "--out", str(delta)],
        ],
        outputs=[*trajectories, delta],
        check=check,
    )


def sweep(seed: int, work: Path) -> Workload:
    """A 20-value sweep of `a` on the mixing config."""
    rng = random.Random(seed)
    values: list[float] = []
    while len(values) < SWEEP_VALUES:
        value = round(rng.uniform(1.0, 9.0), 4)
        if value not in values:
            values.append(value)
    mix = DATA / "mixing.json"
    out_dir = work / "sweep"
    files = [out_dir / f"sweep_a_{v!r}.csv" for v in values]

    def check(results):
        problems = checks.check_sweep(out_dir, "a", values, _config(mix))
        return problems, _days(*files)

    return Workload(
        commands=[
            [
                "sweep", "--config", str(mix), "--param", "a",
                "--values", ",".join(repr(v) for v in values), "--out-dir", str(out_dir),
            ]
        ],
        outputs=[*files, out_dir / "sweep_summary.csv"],
        check=check,
    )


WORKLOADS = {"shipped": shipped, "long-coarse": long_coarse, "sweep": sweep}


def _reference_rhs(v: tuple, x: tuple) -> tuple:
    phi = v[0] * x[0] + v[1] * x[1] + v[2] * x[2]
    return (v[0] * x[0] - x[0] * phi, v[1] * x[1] - x[1] * phi, v[2] * x[2] - x[2] * phi)


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python kernel that uses no repopsim code.

    On a shared 2-core VM, CPU speed drifted by up to 2x over seconds (the
    process's CPU time drifted with it), which moved the median of a
    20-second run by 20%. Timing this loop right before every operation and
    reporting operation time as a multiple of it cancels the drift: the
    ratio varied by 1-5% between runs. The kernel has the program's
    instruction mix: calls, tuples and float arithmetic.
    """
    v, x, h = (0.01, 0.016, 0.08), (0.6, 0.3, 0.1), 0.01
    start = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        k1 = _reference_rhs(v, x)
        k2 = _reference_rhs(v, (x[0] + h * k1[0], x[1] + h * k1[1], x[2] + h * k1[2]))
        x = (x[0] + h * k2[0], x[1] + h * k2[1], x[2] + h * k2[2])
    return time.perf_counter() - start


def run_operation(workload: Workload) -> tuple[float, list[tuple[int, str]], str | None]:
    """One operation: wall seconds, (exit code, stdout) per command, error."""
    import repopsim.cli

    for path in workload.outputs:
        path.unlink(missing_ok=True)
    results = []
    start = time.perf_counter()
    try:
        for argv in workload.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = repopsim.cli.cli_main(argv)
            results.append((code, out.getvalue()))
            if code != 0:
                return time.perf_counter() - start, results, f"{argv[0]} exited {code}: {err.getvalue()}"
    except Exception:
        return time.perf_counter() - start, results, traceback.format_exc()
    return time.perf_counter() - start, results, None


class Session:
    """Runs operations of one workload and keeps their tally."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[bytes] = []
        self.days = 0

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += problems[: max(0, 20 - len(self.problems))]  # the first 20

    def first(self) -> None:
        """The first operation, checked in full; its files become the reference."""
        self.attempted += 1
        _, results, error = run_operation(self.workload)
        if error:
            self._fail([error])
            return
        try:
            problems, self.days = self.workload.check(results)
        except Exception:  # unreadable output is a failed operation, not a crash
            problems = [traceback.format_exc()]
        if problems:
            self._fail(problems)
        self.reference = [p.read_bytes() for p in self.workload.outputs]

    def timed(self, seconds: float, before=None) -> Timing:
        """Operations for `seconds` of wall time, each after a reference loop."""
        times, refs = [], []
        deadline = time.perf_counter() + seconds
        attempts = 0
        while attempts == 0 or time.perf_counter() < deadline:
            if before is not None:
                before(attempts)
            attempts += 1
            self.attempted += 1
            ref = reference_loop()
            elapsed, _, error = run_operation(self.workload)
            if error:
                self._fail([error])
                continue
            changed = [
                p.name
                for p, expected in zip(self.workload.outputs, self.reference)
                if not p.exists() or p.read_bytes() != expected
            ]
            if changed:
                self._fail([f"files differ from the first operation's: {changed}"])
                continue
            times.append(elapsed)
            refs.append(ref)
        return Timing(times, refs)


@dataclass
class Timing:
    """Wall seconds of the passing operations and of the reference loop
    timed before each."""

    ops: list[float]
    refs: list[float]

    @property
    def op_ref(self) -> float:
        """Operation time in reference-loop units, over the whole pass."""
        return sum(self.ops) / sum(self.refs)

    def line(self, label: str) -> str:
        """Wall-time median, the p90 once ten samples lie beyond it, and op_ref."""
        text = f"{label}: {len(self.ops)} ops, wall median {statistics.median(self.ops) * 1e3:.3f} ms"
        if len(self.ops) >= 100:
            text += f", p90 {statistics.quantiles(self.ops, n=10)[-1] * 1e3:.3f} ms"
        reference = statistics.median(self.refs) * 1e3
        return text + f"; reference loop median {reference:.4f} ms; op_ref {self.op_ref:.3f}"


def interpreter_start() -> tuple[float, float]:
    """Wall seconds of a fresh interpreter importing repopsim.cli, then of a
    bare one."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = "import repopsim.cli, sys; sys.stdout.write(repopsim.cli.__file__)"
    expected = (SRC / "repopsim" / "cli.py").resolve()
    times = []
    for code in (probe, "pass"):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
        if done.returncode != 0 or (code == probe and Path(done.stdout).resolve() != expected):
            raise RuntimeError(f"interpreter start failed: {done.stderr or done.stdout}")
    return times[0], times[1]


def end_to_end(session: Session, seconds: float) -> dict[str, tuple[float, str]]:
    session.first()
    interpreter_start()  # warms the file cache
    # Interpreter starts alternate with stretches of operations, so that
    # their median covers the same drift of machine speed as the operations.
    timing, imports, bare = Timing([], []), [], []
    for _ in range(SETUP_SAMPLES):
        part = session.timed(seconds / SETUP_SAMPLES)
        timing.ops += part.ops
        timing.refs += part.refs
        with_import, without = interpreter_start()
        imports.append(with_import)
        bare.append(without)
    if not timing.ops:
        return {}
    setup = statistics.median(imports)
    print(timing.line("untraced"))
    print(f"growth days per second of wall time: {session.days * len(timing.ops) / sum(timing.ops):.1f}")
    print(f"interpreter start: bare {statistics.median(bare):.4f} s, with import repopsim.cli {setup:.4f} s")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup, "s"),
        "op_ref": (timing.op_ref, "ref"),
        "sim_days_per_ref": (session.days / timing.op_ref, "days/ref"),
        "peak_rss_mib": (rss, "MiB"),
    }


def per_layer(session: Session, seconds: float, name: str) -> dict[str, tuple[float, str]]:
    session.first()
    untraced = session.timed(seconds / 2)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = session.timed(seconds / 2, before=lambda op: setattr(tracer, "op", op))
    finally:
        tracer.uninstall()
    if not (untraced.ops and traced.ops):
        return {}
    calls = layers.count_calls(lambda: run_operation(session.workload))
    print(untraced.line("untraced"))
    print(traced.line("traced"))
    spans_file = WORK / f"spans-{name}.csv"
    tracer.write(spans_file)
    print(f"wrote {len(tracer)} spans to {spans_file.relative_to(ROOT)}")
    common, partial = layers.layer_metrics(tracer.totals(), len(traced.ops))
    for metric, value in partial.items():
        print(f"{metric}: {value:.6f} (called on this workload only)")
    overhead = (traced.op_ref / untraced.op_ref - 1) * 100
    metrics = {**common, **calls, "trace.overhead_pct": overhead}
    return {k: (v, layers.unit(k)) for k, v in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repopsim" / "cli.py").is_file():
        print(f"no repopsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repopsim.cli

    if Path(repopsim.cli.__file__).resolve() != (SRC / "repopsim" / "cli.py").resolve():
        print(f"imported repopsim from {repopsim.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        session = Session(WORKLOADS[args.workload](args.seed, work))
        if args.trace:
            metrics = per_layer(session, args.seconds, args.workload)
        else:
            metrics = end_to_end(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in session.problems:
        print(f"FAILED: {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric}: {value:.6f} {unit}")
    correct = session.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
