"""Benchmark for the kproj CLI: seeded job lists run as real subprocesses.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 20 --trace 0

One client runs one job at a time (a closed loop, concurrency 1), so each
job pays interpreter start and `import kproj` exactly as a user does.  The
workload's fixed job list is run in whole passes, as many as fit in
--seconds (at least one); every job's machine document is checked (see
workloads.py).

--trace 0 reports the end-to-end metrics: jobs_per_s, job_p50_s (median
job wall time), setup_s (median wall time of `kproj --version`, probed
throughout the run) and peak_rss_mb (largest child max-RSS).  The host's
speed drifts by a quarter within seconds on a shared machine, so a
reference probe (the interpreter running a fixed loop, without kproj) runs
after every job, and each time is scaled by REFERENCE_S over the reference
time around it: the times read as seconds on a host where the reference
takes REFERENCE_S.  The stderr summary also gives them unscaled.  --trace 1 runs
each job twice, plain and under shim.py, and reports the per-layer
metrics of layers.PER_LAYER, each the median over passes of its per-pass
value.  The last line of stdout is one JSON object; a human summary goes
to stderr.  `--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from layers import PER_LAYER, PassTally
from workloads import WORKLOADS, Job, golden_trace_check, make_jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "trace_cpn2.json"

# what the `kproj` console script does, with the checkout's sources first on the path
LAUNCH = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
          "from kproj.cli import main_entry; main_entry()")
# jobs still running this long after the run began are killed and count as
# failed, so that a run with a hung job still ends in well under 180 s
RUN_BUDGET_S = 160
# the reference probe: interpreter start plus a fixed pure-Python loop, no
# kproj, about as long as a median job's start-up and compute
REFERENCE = "s = 0\nfor i in range(200000):\n    s += i * i % 7"
# its median wall time on a 2-vCPU x86-64 VM with CPython 3.11
REFERENCE_S = 0.11

END_TO_END = {"jobs_per_s": "1/s", "job_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    wall: float
    code: int
    max_rss_kb: int
    cpu: float
    stdout: str
    stderr: str


class Runner:
    """Spawns jobs one at a time and keeps the pass/fail tally."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def spawn(self, cmd: list[str]) -> Outcome:
        """Run cmd to completion; wall time spans spawn to exit."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.deadline - perf_counter()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        return Outcome(wall, proc.returncode, usage.ru_maxrss, usage.ru_utime + usage.ru_stime,
                       out_path.read_text(encoding="utf-8", errors="replace"),
                       err_path.read_text(encoding="utf-8", errors="replace"))

    def judge(self, job: Job, outcome: Outcome) -> None:
        """Count the job and record why it failed, if it did."""
        self.attempted += 1
        if outcome.code != 0:
            reason = f"exit {outcome.code}: {outcome.stderr.strip()[-200:]}"
        else:
            try:
                reason = job.check(json.loads(outcome.stdout))
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason:
            self.failed += 1
            self.failures.append(f"{job.label()}: {reason}")

    def run_job(self, job: Job) -> Outcome:
        outcome = self.spawn(kproj_cmd(job.argv))
        self.judge(job, outcome)
        return outcome

    def probe(self, label: str, cmd: list[str], ok) -> float:
        """Wall time of a probe that is not a workload job; a bad exit counts as failed."""
        outcome = self.spawn(cmd)
        self.attempted += 1
        if outcome.code != 0 or not ok(outcome.stdout):
            self.failed += 1
            self.failures.append(f"{label}: {outcome.stderr.strip()[-200:]}")
        return outcome.wall

    def time_setup(self) -> float:
        """Wall time of one `kproj --version`: interpreter start, import, exit."""
        return self.probe("--version", [sys.executable, "-c", LAUNCH, str(SRC), "--version"],
                          lambda out: out.startswith("kproj "))

    def time_reference(self) -> float:
        """Wall time of the reference probe, which measures the host's current speed."""
        return self.probe("reference", [sys.executable, "-c", REFERENCE], lambda out: True)


def kproj_cmd(argv) -> list[str]:
    return [sys.executable, "-c", LAUNCH, str(SRC), "--format", "machine", *argv]


def shim_cmd(argv, spans_path: Path) -> list[str]:
    return [sys.executable, str(BENCH / "shim.py"), str(SRC), str(spans_path), "--",
            "--format", "machine", *argv]


def setup_jobs(workload: str) -> list[Job]:
    """Untimed jobs run once before the passes."""
    if workload == "replay":
        return [Job(("trace", "2"), 2, golden_trace_check(GOLDEN))]
    return []


def another_pass(start: float, passes: int, seconds: float) -> bool:
    """Run the first pass always, and a further one only if it fits in `seconds`."""
    elapsed = perf_counter() - start
    return passes == 0 or elapsed + elapsed / passes <= seconds


def run_plain(runner: Runner, jobs: list[Job], seconds: float) -> tuple[dict, str]:
    """Whole passes of the job list, with a set-up probe before every third job.

    A reference probe runs before the first job and after every job.  A
    job's wall time is scaled by the mean of the reference times before and
    after it, a set-up probe's by the reference time just before it.
    Spreading the set-up probes over the run makes setup_s see the same
    machine conditions as the jobs do.
    """
    walls, setups, raw_walls, raw_setups, refs = [], [], [], [], []
    max_rss_kb, passes = 0, 0
    ref = runner.time_reference()
    refs.append(ref)
    start = perf_counter()
    while another_pass(start, passes, seconds):
        for job in jobs:
            if len(walls) % 3 == 0:
                raw_setups.append(runner.time_setup())
                setups.append(raw_setups[-1] * REFERENCE_S / ref)
            outcome = runner.run_job(job)
            after = runner.time_reference()
            refs.append(after)
            raw_walls.append(outcome.wall)
            walls.append(outcome.wall * REFERENCE_S / ((ref + after) / 2))
            max_rss_kb = max(max_rss_kb, outcome.max_rss_kb)
            ref = after
        passes += 1
    metrics = {
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max_rss_kb / 1024,
    }
    note = (f"{len(walls)} jobs in {passes} passes of {len(jobs)}, "
            f"{len(setups)} set-up probes, {len(refs)} reference probes; unscaled: "
            f"jobs_per_s {len(raw_walls) / sum(raw_walls):.4g}, "
            f"job_p50_s {statistics.median(raw_walls):.4g}, "
            f"setup_s {statistics.median(raw_setups):.4g}, "
            f"reference {statistics.median(refs):.4g} s (scaled to {REFERENCE_S} s)")
    return metrics, note


def run_traced(runner: Runner, jobs: list[Job], seconds: float) -> tuple[dict, str]:
    spans_path = runner.workdir / "spans.json"
    per_pass = []
    start = perf_counter()
    while another_pass(start, len(per_pass), seconds):
        tally = PassTally()
        for job in jobs:
            plain = runner.run_job(job)
            tally.untraced_wall += plain.wall
            tally.child_cpu += plain.cpu
            spans_path.unlink(missing_ok=True)
            traced = runner.spawn(shim_cmd(job.argv, spans_path))
            runner.judge(job, traced)
            tally.traced_wall += traced.wall
            if spans_path.exists():
                tally.add_job(json.loads(spans_path.read_text(encoding="utf-8")), job.size)
        per_pass.append(tally.metrics())
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in PER_LAYER}
    return metrics, f"{len(per_pass)} traced passes of {len(jobs)} jobs"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, tiny: bool) -> dict:
    jobs = make_jobs(workload, seed, workdir, tiny)
    runner = Runner(workdir)
    for job in setup_jobs(workload):
        runner.run_job(job)
    if trace:
        values, note = run_traced(runner, jobs, seconds)
        units = PER_LAYER
    else:
        values, note = run_plain(runner, jobs, seconds)
        units = END_TO_END
    for failure in runner.failures[:20]:
        print(f"{workload}: FAILED {failure}", file=sys.stderr)
    print(f"{workload}: {note}; fail_ratio = {runner.failed / runner.attempted} "
          f"({runner.failed}/{runner.attempted})", file=sys.stderr)
    for name, unit in units.items():
        print(f"{workload}: {name} = {values[name]} {unit}", file=sys.stderr)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny job lists, for the benchmark's own tests")
    args = parser.parse_args()
    if not (SRC / "kproj" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: no kproj sources under {ROOT}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         Path(tmp), args.tiny)
    if args.workload != "all":
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
