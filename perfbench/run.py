"""Benchmark geckit end to end through its command line.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. With ``--trace 0`` the run sets a
workload up three times (the median is ``setup_s``), then repeats the
workload's round of CLI invocations, each in its own child process,
until ``--seconds`` of round time are measured and at least three rounds
ran, then runs the workload's final checks. ``pipeline_s`` is the mean
round time. With ``--trace 1`` it replays the set-up and three rounds in
one process through ``geckit.cli.main`` (see replay.py), the middle one
with spans around geckit's public functions (see tracer.py), and reports
per-layer metrics and the tracing overhead.

Every child gets a pinned environment: one BLAS/OpenMP thread, a fixed
PYTHONHASHSEED, no inherited GECKIT_* variables besides the workload's
own, and the package located by absolute path. Every output is checked
(checks.py) after the timing. The last line of standard output is the
result as JSON; the line before it holds the run's details: environment,
per-stage times, the behaviour fingerprint and any problems found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS, Step, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_out"
SETUPS = 3
MIN_ROUNDS = 3
RUN_LIMIT_S = 170.0  # no new round starts if it could end after this

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    ["cli.import_s"]
    + [name for name, _kind, _span in tracer.TIME_METRICS]
    + ["gec.dynamic_weight_s"]
    + [name for name, _span in tracer.COUNT_METRICS]
    + ["judge.logits_distinct_ratio", "gec.greedy_useful_row_ratio"]
)


def per_layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"


def pinned_env(extra: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GECKIT_")}
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC),
    )
    env.update(extra)
    return env


class Runner:
    """Starts children one at a time and keeps the operation ledger."""

    def __init__(self, env: dict[str, str], work: Path, started: float):
        self.env = env
        self.work = work
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.wrong = False  # an output check failed: the run is not correct
        self.problems: list[str] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, args: list[str]) -> tuple[int, float, int]:
        """Run one child to its end; (exit code, wall seconds, max RSS in KiB)."""
        with open(self.work / "children.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.work, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss

    def run_steps(self, steps: list[Step]) -> list[tuple[Step, int, float, int]]:
        results = []
        for step in steps:
            try:
                if step.prepare is not None:
                    step.prepare()
            except (OSError, ValueError) as exc:
                self.problems.append(f"{step.label}: input preparation failed: {exc}")
                results.append((step, -1, 0.0, 0))
                continue
            results.append((step, *self.spawn(["-m", "geckit", *step.argv])))
        return results

    def settle(self, results) -> None:
        """Count each invocation and run its output check (outside any timing)."""
        for step, rc, _seconds, _rss in results:
            self.settle_one(step, rc)

    def settle_one(self, step: Step, rc: int) -> None:
        self.attempted += 1
        if rc:
            problems = [f"exit code {rc}"]
        else:
            try:
                problems = step.check() if step.check is not None else []
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"output unreadable: {exc!r}"]
            self.wrong |= bool(problems)
        if problems:
            self.failed += 1
            self.problems += [f"{step.label}: {p}" for p in problems]


def same_outputs(runner: Runner, dirs: list[Path], what: str, files) -> None:
    """Outputs of repeated set-ups or rounds must be bytewise identical."""
    hashes = [
        {p.relative_to(d).as_posix(): checks.sha256(p) if p.is_file() else "missing" for p in files(d)}
        for d in dirs
    ]
    for later in hashes[1:]:
        for name, value in later.items():
            if value != hashes[0][name]:
                runner.wrong = True
                runner.problems.append(f"{what}: {name} differs between repeats")


def environment(runner: Runner, seed: int) -> dict:
    probe = (
        "import json, platform, numpy, scipy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'blas': blas.get('name', '?') + ' ' + str(blas.get('version', '?'))}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=runner.env, capture_output=True, text=True, timeout=60
    )
    versions = json.loads(out.stdout) if out.returncode == 0 else {"probe_error": out.stderr[-200:]}
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED", "PYTHONPATH")
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "env": {k: runner.env[k] for k in pins} | {k: v for k, v in runner.env.items() if k.startswith("GECKIT_")},
    }


def fingerprint(wl: Workload, setup: Path, last_round: Path) -> dict:
    try:
        return wl.fingerprint(setup, last_round)
    except (OSError, ValueError, KeyError) as exc:
        return {"error": repr(exc)}


def timed_run(wl: Workload, seed: int, seconds: float, runner: Runner) -> tuple[dict, dict]:
    setup_times = []
    setup_dirs = []
    for k in range(SETUPS):
        d = runner.work / f"setup{k}"
        results = runner.run_steps(wl.setup(seed, d))
        setup_times.append(sum(r[2] for r in results))
        setup_dirs.append(d)
        runner.settle(results)
    same_outputs(runner, setup_dirs, "set-up", wl.artifacts)
    setup = setup_dirs[-1]

    rounds = []  # (dir, results)
    measured = 0.0
    while True:
        d = runner.work / f"round{len(rounds)}"
        results = runner.run_steps(wl.round(seed, setup, d))
        rounds.append((d, results))
        runner.settle(results)
        took = sum(r[2] for r in results)
        measured += took
        if len(rounds) >= MIN_ROUNDS and measured >= seconds:
            break
        if runner.remaining() < 2 * took:
            runner.problems.append(f"stopped after {len(rounds)} rounds: run time limit")
            break
    round_dirs = [d for d, _ in rounds]
    runner.settle(runner.run_steps(wl.final(seed, setup, round_dirs)))
    same_outputs(runner, round_dirs, "round", wl.outputs)

    stages: dict[str, list[float]] = {}
    items: dict[str, int] = {}
    for step, _rc, secs, _rss in (r for _, results in rounds for r in results):
        stages.setdefault(step.label, []).append(secs)
        items[step.label] = step.items
    stage_detail = {}
    for label, times in stages.items():
        stage_detail[f"{label}_s"] = statistics.mean(times)
        if items[label]:
            stage_detail[f"{label}_items_per_s"] = items[label] / statistics.mean(times)
    round_times = [sum(r[2] for r in results) for _, results in rounds]
    metrics = {
        "setup_s": statistics.median(setup_times),
        # The mean, not the median or the fastest, of the rounds: on a shared
        # machine whose speed changes in steps and bursts it spread least
        # over ten seeds (see README.md).
        "pipeline_s": statistics.mean(round_times),
        "peak_rss_mb": max(r[3] for _, results in rounds for r in results) / 1024.0,
    }
    detail = {
        "rounds": len(rounds),
        "setup_runs_s": setup_times,
        "round_runs_s": round_times,
        "stage_runs_s": stages,
        "stages": stage_detail,
    }
    detail["fingerprint"] = fingerprint(wl, setup, round_dirs[-1])
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, detail


def traced_run(wl: Workload, seed: int, runner: Runner) -> tuple[dict, dict]:
    out = runner.work / "replay.json"
    spans = SPANS / f"spans-{wl.name}-{seed}.jsonl"
    SPANS.mkdir(exist_ok=True)
    args = [str(HERE / "replay.py"), "--workload", wl.name, "--seed", str(seed)]
    rc, _secs, _rss = runner.spawn(args + ["--work", str(runner.work), "--out", str(out), "--spans", str(spans)])
    if rc or not out.is_file():
        runner.attempted += 1
        runner.failed += 1
        runner.problems.append(f"replay exited with code {rc}")
        return {name: {"value": 0, "unit": per_layer_unit(name)} for name in PER_LAYER}, {}
    replay = json.loads(out.read_text(encoding="utf-8"))
    setup = runner.work / "setup0"
    round_dirs = [runner.work / f"round{i}" for i in range(len(replay["round_s"]))]
    steps = wl.setup(seed, setup)
    for d in round_dirs:
        steps += wl.round(seed, setup, d)
    for step, code in zip(steps, replay["exit_codes"]):
        runner.settle_one(step, code)
    runner.settle(runner.run_steps(wl.final(seed, setup, round_dirs)))
    same_outputs(runner, round_dirs, "untraced vs traced rounds", wl.outputs)
    values = replay["per_layer"]
    _warm, traced, untraced = replay["round_s"]
    detail = {
        "absent": replay["absent"],
        "replay_round_s": replay["round_s"],
        "overhead_s": traced - untraced,
        "overhead_share": (traced - untraced) / untraced,
        "spans": replay["spans"],
        "spans_file": str(spans.relative_to(ROOT)),
        "self_s": replay["self_s"],
        "fingerprint": fingerprint(wl, setup, round_dirs[-1]),
    }
    return {name: {"value": values[name], "unit": per_layer_unit(name)} for name in PER_LAYER}, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "geckit" / "cli.py").is_file():
        print(f"error: no geckit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(pinned_env(wl.env), work, time.perf_counter())
    try:
        if args.trace:
            metrics, detail = traced_run(wl, args.seed, runner)
        else:
            metrics, detail = timed_run(wl, args.seed, args.seconds, runner)
        detail = {"workload": wl.name, "trace": args.trace, **environment(runner, args.seed), **detail}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail["problems"] = runner.problems
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
