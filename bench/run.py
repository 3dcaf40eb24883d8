"""storagelab benchmark: real CLI pipelines timed end to end, plus a traced
run that reports per-layer numbers.

Usage, from the root of a checkout::

    python3 bench/run.py --workload synthetic-experiment --seed 1 --seconds 55 --trace 0

Each run builds its inputs from ``--seed``, runs the workload's pipeline of
``storagelab`` CLI calls as child processes, one at a time, and checks every
artifact. With ``--trace 0`` it repeats the pipeline while another
repetition fits in ``--seconds`` and reports the end-to-end metrics: the
median over the repetitions, with every call's time normalized by a fixed
reference process timed just before and after it. With ``--trace 1`` it runs the pipeline once
untraced and once with every CLI call under ``spans.py``, and reports the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md in this
directory for the workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import layers
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src" / "storagelab" / "cli.py"

E2E_UNITS = {
    "pipeline_s": "s",
    "simulate_events_per_s": "events/s",
    "metrics_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_CALLS_PER_REP = 4
# The reference: a fixed child process that runs no storagelab code, timed
# before and after every measured call. Times are reported in normalized
# seconds, wall time x REFERENCE_S / the reference's time around the call,
# so the host's speed level cancels out; see "Timing" in README.md.
REFERENCE = ("-S", "-c", "x = 0\nfor i in range(400000):\n    x += i * i % 7\n")
REFERENCE_S = 0.075


@dataclass
class Usage:
    """What one child process cost: wall time, exit code and peak RSS."""

    wall_s: float
    exit_code: int
    rss_mb: float


@dataclass
class Child:
    step: workloads.Step
    usage: Usage
    reference_s: float  # mean wall time of the reference calls just before and after

    @property
    def normalized_s(self) -> float:
        return normalized(self.usage.wall_s, self.reference_s)


def normalized(wall_s: float, reference_s: float) -> float:
    return wall_s * REFERENCE_S / reference_s


@dataclass
class Rep:
    children: list[Child]
    digests: dict[str, str]
    events: int
    trace_bytes: int


@dataclass
class Result:
    workload: str
    seed: int
    trace: int
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    inputs: dict[str, str] = field(default_factory=dict)      # path -> sha256
    features: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)     # artifact -> sha256
    reps: int = 0
    steps: dict[str, tuple[float, float]] = field(default_factory=dict)  # step -> (normalized, wall)
    wall: dict[str, float] = field(default_factory=dict)      # time metric -> wall-time value
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(rep_dir: Path) -> dict[str, str]:
    return {p.relative_to(rep_dir).as_posix(): sha256_file(p)
            for p in sorted(rep_dir.rglob("*")) if p.is_file()}


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{k} {v}\n" for k, v in sorted(digests.items()))
                          .encode()).hexdigest()


def cli_argv(args: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "storagelab.cli", *args]


class Runner:
    """Runs CLI calls as child processes, one at a time, and records
    their wall time, exit code and peak RSS."""

    def __init__(self, work: Path, result: Result):
        self.result = result
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))

    def spawn(self, argv: list[str], cwd: Path, label: str) -> Usage:
        with open(self.logs / f"{label}.log", "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = (self.logs / f"{label}.log").read_text(errors="replace")[-2000:]
            print(f"bench: {label} exited {code}:\n{tail}", file=sys.stderr)
        return Usage(wall, code, usage.ru_maxrss / 1024)

    def reference(self, cwd: Path) -> float:
        usage = self.spawn([sys.executable, *REFERENCE], cwd, "reference")
        self.result.check("reference call exits 0", usage.exit_code == 0)
        return usage.wall_s

    def timed(self, calls: list[tuple[list[str], str]], cwd: Path) -> list[tuple[Usage, float]]:
        """Run ``(argv, label)`` calls one after another, with a reference
        call before the first and after each; pair each call's usage with
        the mean time of the two reference calls around it."""
        out = []
        before = self.reference(cwd)
        for argv, label in calls:
            usage = self.spawn(argv, cwd, label)
            after = self.reference(cwd)
            out.append((usage, (before + after) / 2))
            before = after
        return out

    def rep(self, steps: list[workloads.Step], rep_dir: Path,
            spans_dir: Path | None = None) -> Rep:
        """Run the pipeline once in a fresh ``rep_dir``; with ``spans_dir``,
        run every call under the span recorder."""
        if rep_dir.exists():
            shutil.rmtree(rep_dir)
        rep_dir.mkdir(parents=True)
        calls = []
        for i, step in enumerate(steps):
            label = f"{i:02d}-{step.label}"
            if spans_dir is None:
                argv = cli_argv(step.args)
            else:
                argv = [sys.executable, str(BENCH / "spans.py"), "--out", str(spans_dir),
                        "--call-id", label, "--", *step.args]
            calls.append((argv, label))
        children = [Child(step, usage, reference_s)
                    for step, (usage, reference_s) in zip(steps, self.timed(calls, rep_dir))]
        for child in children:
            self.result.check(f"{child.step.label} exits 0", child.usage.exit_code == 0)
        events = trace_bytes = 0
        for child in children:
            if child.step.trace is not None and child.usage.exit_code == 0:
                data = (rep_dir / child.step.trace).read_bytes()
                trace_bytes += len(data)
                events += sum(1 for line in data.splitlines()
                              if line.strip() and b'"type":"meta"' not in line)
        return Rep(children, artifact_digests(rep_dir), events, trace_bytes)


def _check_rep(result: Result, workload: workloads.Workload, rep: Rep, rep_dir: Path) -> None:
    try:
        outcomes = workload.checks(rep_dir)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        outcomes = [(f"outputs readable ({exc})", False)]
    for name, ok in outcomes:
        result.check(name, ok)
    if not result.digests:
        result.digests = rep.digests
        return
    for name in sorted(set(rep.digests) | set(result.digests)):
        result.check(f"artifact {name} identical across repetitions",
                     rep.digests.get(name) == result.digests.get(name))


def run_benchmark(name: str, seed: int, seconds: float, trace: int,
                  scale: str = "full") -> Result:
    workload = workloads.WORKLOADS[name]
    params = workload.scales[scale]
    result = Result(name, seed, trace)
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        inputs_dir = work / "inputs"
        inputs_dir.mkdir(parents=True)
        result.features = workload.prepare(inputs_dir, seed, params)
        for path in sorted(inputs_dir.iterdir()):
            result.inputs[f"inputs/{path.name}"] = sha256_file(path)
        for feature, count in result.features.items():
            result.check(f"input feature {feature} is non-zero", count > 0)
        runner = Runner(work, result)
        rep_dir = work / "rep"
        steps = workload.steps(seed, params)

        (inputs_dir / "empty.jsonl").write_bytes(b"")
        setup_dir = work / "setup"
        setup_dir.mkdir()
        setup_args = ("simulate", "--policy", "permissive", "--trace",
                      f"{workloads.INPUTS}/empty.jsonl",
                      *workload.setup_args, "--out", "out")
        runner.reference(setup_dir)
        runner.spawn(cli_argv(setup_args), setup_dir, "warm-up")  # fills the bytecode cache
        if trace:
            _traced(result, workload, runner, steps, rep_dir, work)
        else:
            _measured(result, workload, runner, steps, rep_dir, seconds, setup_args, setup_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return result


def _time_metrics(reps: list[Rep], setup: list[Child],
                  time_of: Callable[[Child], float]) -> dict[str, float]:
    """The time metrics: each the median over the repetitions (set-up: over
    the set-up calls) of ``time_of`` summed over the steps it covers."""
    def median_sum(kinds: tuple[str, ...]) -> float:
        return statistics.median(sum(time_of(c) for c in rep.children if c.step.kind in kinds)
                                 for rep in reps)
    return {"pipeline_s": median_sum(("gen", "simulate", "metrics")),
            "simulate_events_per_s": reps[0].events / median_sum(("simulate",)),
            "metrics_s": median_sum(("metrics",)),
            "setup_s": statistics.median(time_of(c) for c in setup)}


def _measured(result: Result, workload: workloads.Workload, runner: Runner,
              steps: list[workloads.Step], rep_dir: Path, seconds: float,
              setup_args: tuple[str, ...], setup_dir: Path) -> None:
    reps: list[Rep] = []
    setup: list[Child] = []
    setup_step = workloads.Step("setup", "setup", setup_args)
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        argv = cli_argv(setup_args)
        for usage, reference_s in runner.timed(
                [(argv, f"setup-{len(setup) + i}") for i in range(SETUP_CALLS_PER_REP)],
                setup_dir):
            result.check("set-up call exits 0", usage.exit_code == 0)
            setup.append(Child(setup_step, usage, reference_s))
        rep = runner.rep(steps, rep_dir)
        _check_rep(result, workload, rep, rep_dir)
        reps.append(rep)
        # Start another repetition only if it should end within the budget.
        now = time.perf_counter()
        if now - start + (now - cycle) > seconds:
            break
    result.reps = len(reps)
    values = _time_metrics(reps, setup, lambda child: child.normalized_s)
    values["peak_rss_mb"] = max(c.usage.rss_mb for r in reps for c in r.children)
    result.metrics = {k: (values[k], E2E_UNITS[k]) for k in E2E_UNITS}
    result.wall = _time_metrics(reps, setup, lambda child: child.usage.wall_s)
    result.wall["reference_s"] = statistics.median(
        c.reference_s for r in reps for c in r.children)
    result.steps = {
        f"{i:02d}-{step.label}": (statistics.median(r.children[i].normalized_s for r in reps),
                                  statistics.median(r.children[i].usage.wall_s for r in reps))
        for i, step in enumerate(steps)}


def _traced(result: Result, workload: workloads.Workload, runner: Runner,
            steps: list[workloads.Step], rep_dir: Path, work: Path) -> None:
    plain = runner.rep(steps, rep_dir)
    _check_rep(result, workload, plain, rep_dir)
    spans_dir = work / "spans"
    spans_dir.mkdir()
    traced = runner.rep(steps, rep_dir, spans_dir)
    _check_rep(result, workload, traced, rep_dir)  # same digests as the untraced run
    totals = spans.SpanTotals()
    for i, step in enumerate(steps):
        try:
            spans.read_spans(spans_dir, f"{i:02d}-{step.label}", totals)
        except (OSError, ValueError, EOFError) as exc:
            result.check(f"spans of {step.label} readable ({exc})", False)
    result.reps = 1
    values = layers.per_layer(
        totals, trace_bytes=plain.trace_bytes, trace_events=plain.events,
        simulate_rss_mb=max((c.usage.rss_mb for c in plain.children if c.step.kind == "simulate"),
                            default=0.0),
        overhead_s=sum(c.normalized_s for c in traced.children)
        - sum(c.normalized_s for c in plain.children))
    result.metrics = {k: (values[k], layers.UNITS[k]) for k in layers.UNITS}


def print_result(result: Result) -> None:
    print(f"workload {result.workload} seed {result.seed} trace {result.trace} "
          f"repetitions {result.reps}")
    for path, digest in result.inputs.items():
        print(f"input {path} sha256 {digest}")
    for feature, count in result.features.items():
        print(f"feature {feature} {count}")
    for path, digest in result.digests.items():
        print(f"artifact {path} sha256 {digest}")
    print(f"artifacts sha256 {combined_digest(result.digests)}")
    for step, (norm, wall) in result.steps.items():
        print(f"step {step} {norm:.4f} s (wall {wall:.4f} s)")
    for metric, value in result.wall.items():
        print(f"wall {metric} {value:.6g}")
    for failure in result.failures:
        print(f"FAILED {failure}")
    for metric, (value, unit) in result.metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    print(f"error_rate {result.failed / max(result.attempted, 1):.6g} "
          f"({result.failed} failed of {result.attempted} attempted)")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SOURCE.is_file():
        print(f"bench: no storagelab source at {SOURCE.relative_to(ROOT)}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    # On SIGTERM, unwind like Ctrl-C: the running child is killed and
    # reaped, and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_benchmark(name, args.seed, args.seconds, args.trace)
        print_result(result)
        correct = correct and result.correct
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
