"""Benchmark of the `frs` command line, run from the root of a checkout:

    python3 bench/run.py --workload {construct,verify,check} --seed N \\
        --seconds S --trace {0,1}

Each job is one fresh `frs` process, as users run it, one at a time in a
single closed loop.  Set-up writes the seeded inputs (see ladder.py) and
builds the target files the jobs read; it is repeated SETUP_REPEATS times
and its median is `setup_s`.  The timed loop then runs passes over the
workload's whole job list, starting another pass only while it fits in
``--seconds`` (at least one pass), and checks every answer against its
known value.  A fixed piece of reference work is timed before every job
and set-up and once a second while a job runs (speed.py), and the times
are reported rescaled to the reference speed by the mean CPU time of
these samples, so that the host's drifting speed cancels out.  With
``--trace 1`` the untraced passes are followed by one pass with every job
under the span recorder (spans.py), and the per-layer metrics are
printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import ladder
import speed

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
SAMPLE_EVERY_S = 1.0  # a reference sample each time a job has run this long
JOB_LIMIT_S = 90.0
# Jobs not started by then count as failed, so a run ends well within the
# 180 s a run may take even when the program gets much slower.
RUN_LIMIT_S = 150.0
UNTRACED = "import sys; from frs.cli import main; sys.exit(main())"

CALL_METRICS = (
    "core.normal_form", "core.one_step_reductions", "core.is_irreducible",
    "core.reduces_to", "large_sub.in_AT", "large_sub.in_T", "large_sub.rho_t",
    "large_sub.phi_t", "pipeline.normalize_q2_q3",
    "letter_intro.build_letter_intro", "completeness.verify_complete",
    "parallel.pmap",
)
SELF_METRICS = (
    "core.normal_form", "core.one_step_reductions", "core.is_irreducible",
    "core.reduces_to", "large_sub.in_AT", "large_sub.in_T", "large_sub.rho_t",
    "large_sub.phi_t", "large_sub.classify_letters", "large_sub.build_f_sets",
    "large_sub.build_b_alphabet", "large_sub.build_construction",
    "pipeline.prepare_presentation", "pipeline.letterize_complement",
    "pipeline.normalize_q2_q3", "pipeline.check_subsemigroup_closed",
    "letter_intro.build_letter_intro", "completeness.critical_pairs",
    "completeness.find_measure_certificate", "completeness.check_termination",
    "completeness.check_local_confluence", "property_r.check_p1_to_p6",
    "property_r.check_isomorphism_slice", "parallel.pmap",
    "fileformat.parse_presentation", "fileformat.serialize_presentation",
    "cli.main",
)
COUNT_METRICS = (
    "core.words_over.words", "large_sub.rules.D1", "large_sub.rules.D2",
    "completeness.critical_pairs.count",
    *(f"property_r.P{k}.witnesses" for k in range(1, 7)),
)
# The per-layer metrics of the final JSON line.  The whole table above is
# printed before it; a self time is only in the JSON when every workload
# calls the function, so no reported time is a constant 0.
REPORTED_SELF = (
    "core.normal_form", "completeness.critical_pairs",
    "completeness.find_measure_certificate", "completeness.check_termination",
    "completeness.check_local_confluence", "fileformat.parse_presentation",
    "cli.main",
)


@dataclass
class JobRun:
    job: ladder.Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int | None  # None: not finished within its time limit
    problems: list[str]
    layers: dict | None = None

    @property
    def decided(self) -> bool:
        return self.exit_code is not None and self.exit_code != 3


@dataclass
class Runner:
    root: Path
    work: Path
    inputs: ladder.Inputs
    deadline: float
    env: dict[str, str] = field(init=False)
    paused_s: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(self.root / "src")
        self.env.pop("FRS_THREADS", None)  # the program's default

    def write_inputs(self) -> None:
        for name, text in self.inputs.files.items():
            (self.work / f"{name}.s").write_text(text, encoding="utf-8")

    def _arg(self, arg: str) -> str:
        def resolve(match: re.Match[str]) -> str:
            key = match.group(1)
            if key == "w0":
                return self.inputs.threebase_w0
            return str(self.work / (key if key.endswith(".t") else f"{key}.s"))

        return re.sub(r"\{([^}]+)\}", resolve, arg)

    def run(
        self,
        job: ladder.Job,
        trace_file: Path | None = None,
        meter: speed.Speedometer | None = None,
    ) -> JobRun:
        """Run ``job`` to its end.  With ``meter``, the job is stopped every
        SAMPLE_EVERY_S seconds for one reference sample; its wall time
        leaves those pauses out."""
        args = [self._arg(arg) for arg in job.args]
        if trace_file is None:
            argv = [sys.executable, "-c", UNTRACED, *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_file), *args]
        limit = min(JOB_LIMIT_S, self.deadline - perf_counter())
        if limit <= 0:
            return JobRun(job, 0.0, 0.0, 0.0, None, ["not started: run time limit reached"])
        log = self.work / "job.log"
        with open(log, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=self.work
            )
            status, usage, timed_out, paused = _reap(proc, limit, meter)
            wall = perf_counter() - start - paused
            self.paused_s += paused
        proc.returncode = os.waitstatus_to_exitcode(status)
        output = log.read_text(encoding="utf-8", errors="replace")
        cpu = usage.ru_utime + usage.ru_stime
        rss = usage.ru_maxrss / 1024
        if timed_out:
            return JobRun(job, wall, cpu, rss, None, [f"killed after {limit:.0f} s"])
        problems = ladder.mismatches(job, ladder.facts(proc.returncode, output))
        if problems:
            problems.append("output: " + output.strip().replace("\n", " | ")[:400])
        layers = None
        if trace_file is not None and trace_file.exists():
            layers = json.loads(trace_file.read_text(encoding="utf-8"))
            layers["wall_s"] = wall
        return JobRun(job, wall, cpu, rss, proc.returncode, problems, layers)


def _reap(
    proc: subprocess.Popen, limit: float, meter: speed.Speedometer | None
) -> tuple[int, object, bool, float]:
    """Wait for ``proc``, killing it after ``limit`` seconds; returns its
    wait status, its own resource usage (CPU time, peak RSS), whether it
    was killed, and how long it was stopped for reference samples.  The
    wait blocks on a pid file descriptor, so the harness takes no CPU time
    while the job runs."""
    pidfd = os.pidfd_open(proc.pid)
    give_up = perf_counter() + limit
    paused = 0.0
    reaped = False
    try:
        while True:
            left = give_up - perf_counter()
            step = left if meter is None else min(left, SAMPLE_EVERY_S)
            ready, _, _ = select.select([pidfd], [], [], max(step, 0.0))
            if ready or step >= left:
                break
            paused += _sample_stopped(proc, meter)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        os.close(pidfd)
        if not reaped:
            proc.kill()
            os.wait4(proc.pid, 0)
    return status, usage, not ready, paused


def _sample_stopped(proc: subprocess.Popen, meter: speed.Speedometer) -> float:
    """Stop ``proc``, take one reference sample and let it go on; returns
    how long it was stopped.  Only one of the two runs at any time, so the
    sample sees the host as the job does, without competing with it."""
    os.kill(proc.pid, signal.SIGSTOP)
    event = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
    if event.si_code != os.CLD_STOPPED:
        return 0.0  # it ended first; the caller reaps it
    os.waitid(os.P_PID, proc.pid, os.WSTOPPED)
    start = perf_counter()
    try:
        meter.sample()
    finally:
        os.kill(proc.pid, signal.SIGCONT)
    return perf_counter() - start


def _setup(runner: Runner, workload: ladder.Workload, meter: speed.Speedometer) -> float:
    """One set-up: inputs, a start of the program, and the targets."""
    meter.sample()
    start, paused = perf_counter(), runner.paused_s
    for stale in runner.work.iterdir():
        stale.unlink()
    runner.write_inputs()
    # Starting the program once checks that it runs from this checkout and
    # compiles its modules, which users pay once, not on every call.
    probe = ladder.Job("frs --help", ("--help",), {"exit": 0}, "argparse help")
    for job in (probe, *workload.setup):
        result = runner.run(job, meter=meter)
        if result.problems:
            raise SystemExit(f"set-up job '{job.name}' failed: {'; '.join(result.problems)}")
    return perf_counter() - start - (runner.paused_s - paused)


def _pass(
    runner: Runner,
    jobs: tuple[ladder.Job, ...],
    meter: speed.Speedometer | None = None,
    trace_dir: Path | None = None,
) -> list[JobRun]:
    """One pass over ``jobs``; with ``meter``, a reference sample is taken
    before each job and while it runs."""
    runs = []
    for index, job in enumerate(jobs):
        trace_file = None if trace_dir is None else trace_dir / f"{index}.json"
        if meter is not None:
            meter.sample()
        runs.append(runner.run(job, trace_file, meter))
    return runs


def _layer_table(runs: list[JobRun]) -> dict[str, tuple[float, str]]:
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    counts: dict[str, int] = {}
    startup = 0.0
    for run in runs:
        if run.layers is None:
            continue
        for parent, name, n, total, self_s in run.layers["edges"]:
            calls[name] = calls.get(name, 0) + n
            own[name] = own.get(name, 0.0) + self_s
            if name == "cli.main":
                startup += run.layers["wall_s"] - total
        for key, value in run.layers["counts"].items():
            counts[key] = counts.get(key, 0) + value
    table: dict[str, tuple[float, str]] = {}
    for name in CALL_METRICS:
        table[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SELF_METRICS:
        table[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    for name in COUNT_METRICS:
        table[name] = (counts.get(name, 0), "count")
    table["cli.startup_s"] = (startup, "s")
    return table


def reported_layers() -> list[str]:
    """Names of the per-layer metrics in the final JSON line."""
    return [
        *(f"{name}.calls" for name in CALL_METRICS),
        *(f"{name}.self_s" for name in REPORTED_SELF),
        *COUNT_METRICS,
        "cli.startup_s",
        "trace.overhead_s",
    ]


def _machine() -> str:
    return f"nproc {len(os.sched_getaffinity(0))}, os.cpu_count() {os.cpu_count()}, Python {sys.version.split()[0]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ladder.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "frs" / "cli.py").is_file():
        print(f"no frs sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so the running job is killed and the files removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = ladder.WORKLOADS[args.workload]
    scratch = root / ".bench_run"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        runner = Runner(root, work / "files", ladder.generate(args.seed), perf_counter() + RUN_LIMIT_S)
        runner.work.mkdir()
        meter = speed.Speedometer()
        setups = [_setup(runner, workload, meter) for _ in range(SETUP_REPEATS)]

        passes: list[list[JobRun]] = []
        window = perf_counter()
        while True:
            pass_start = perf_counter()
            passes.append(_pass(runner, workload.jobs, meter))
            if perf_counter() - window + (perf_counter() - pass_start) > args.seconds:
                break
        traced: list[JobRun] = []
        if args.trace:
            trace_dir = work / "spans"
            trace_dir.mkdir()
            traced = _pass(runner, workload.jobs, trace_dir=trace_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [run for pass_runs in passes for run in pass_runs]
    raw_wall = statistics.median(sum(run.wall_s for run in pass_runs) for pass_runs in passes)
    raw_cpu = statistics.median(sum(run.cpu_s for run in pass_runs) for pass_runs in passes)
    factor = meter.factor()
    print(f"# workload {workload.name}, seed {args.seed}, {len(passes)} pass(es); {_machine()}")
    print(f"# raw: wall {raw_wall:.3f} s, cpu {raw_cpu:.3f} s, setup {statistics.median(setups):.3f} s; "
          f"{len(meter.walls)} reference samples, mean {statistics.fmean(meter.walls) * 1e3:.2f} ms wall, "
          f"{statistics.fmean(meter.cpus) * 1e3:.2f} ms cpu; factor {factor:.4f}")
    runs += traced
    for run in runs:
        status = "ok" if not run.problems else "FAILED " + "; ".join(run.problems)
        print(f"#   {run.job.name:28s} {run.wall_s:8.3f} s  cpu {run.cpu_s:8.3f} s  "
              f"rss {run.rss_mb:6.1f} MB  exit {run.exit_code}  {status}")
    failed = sum(1 for run in runs if run.problems)
    if args.trace:
        table = _layer_table(traced)
        table["trace.overhead_s"] = (sum(run.wall_s for run in traced) - raw_wall, "s")
        for name, (value, unit) in table.items():
            print(f"# layer {name:48s} {value:14.6f} {unit}")
        metrics = {name: table[name] for name in reported_layers()}
    else:
        metrics = {
            "wall_s": (raw_wall * factor, "s"),
            "cpu_s": (raw_cpu * factor, "s"),
            "setup_s": (statistics.median(setups) * factor, "s"),
            "peak_rss_mb": (max(run.rss_mb for run in runs), "MB"),
            "decided_share": (sum(run.decided for run in runs) / len(runs), "share"),
            "correct_share": (1 - failed / len(runs), "share"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
