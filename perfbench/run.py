#!/usr/bin/env python3
"""wickbell benchmark: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload epr-pair --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; wickbell is imported from `src/`, so nothing
needs installing. The workload's plan (workloads.py) is drawn from the seed.
A worker process (worker.py) runs the plan's experiments in rounds through
`wickbell.cli.entry`, with one BLAS thread, until the timed rounds add up to
`--seconds`; after each round this process checks every output (checks.py)
and deletes it. Set-up is timed separately on fresh probe processes.

With `--trace 0` the last line of stdout reports the end-to-end metrics:
`wall_s` (median seconds per round), `peak_rss_mb` (the worker's own peak
RSS) and `setup_s` (median time from process start to ready). With
`--trace 1` the worker is traced, and the line reports per-round calls and
self seconds of each traced function, the CSV rows and bytes written per
round, and `trace.overhead_s`. `correct` is false when any experiment run
exited with a non-zero code or failed a check.
Exit code 0 means a result was printed; 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks  # this script's directory is first on sys.path
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BLAS_THREADS = "1"
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 120


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    return env


class Worker:
    """A worker process, from start to its ready line."""

    def __init__(self, plan_file: Path, work: Path, spans_file: Path | None = None, setup_only=False):
        argv = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_file), "--work", str(work)]
        if spans_file is not None:
            argv += ["--spans", str(spans_file)]
        if setup_only:
            argv.append("--setup-only")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=pinned_env(), cwd=ROOT
        )
        self.receive()
        self.setup_s = time.perf_counter() - started

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"worker exited with code {self.proc.returncode} before answering")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=WORKER_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    csv_rows: int = 0
    csv_bytes: int = 0


def count_csv(outdir: Path, tally: Tally) -> None:
    """Rows and bytes of the CSVs a run wrote (all of them by csvio.write_csv)."""
    for path in outdir.glob("*.csv"):
        data = path.read_bytes()
        tally.csv_bytes += len(data)
        tally.csv_rows += data.count(b"\n") - 1  # header line


def check_round(plan: list[dict], answer: dict, tally: Tally) -> None:
    for item, run in zip(plan, answer["runs"], strict=True):
        tally.attempted += 1
        outdir = Path(run["out"])
        if run["code"] != 0:
            tally.failed += 1
            print(f"{item['experiment']}: exit code {run['code']}", file=sys.stderr)
            continue
        try:
            checks.check_run(item["experiment"], item["overrides"], outdir)
            count_csv(outdir, tally)
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            tally.failed += 1
            print(f"{item['experiment']} {item['overrides']}: check failed: {exc!r}", file=sys.stderr)


def drive(plan, plan_file, work, budget_s, tally, spans_file=None) -> tuple[Worker, list[float], dict]:
    """Run rounds until their timed seconds reach budget_s (at least one)."""
    worker = Worker(plan_file, work, spans_file)
    try:
        walls: list[float] = []
        while not walls or sum(walls) < budget_s:
            answer = worker.ask("round")
            walls.append(answer["wall_s"])
            check_round(plan, answer, tally)
            shutil.rmtree(Path(answer["runs"][0]["out"]).parent, ignore_errors=True)
        final = worker.ask("stop")
    finally:
        worker.close()
    if worker.proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {worker.proc.returncode}")
    return worker, walls, final


def setup_times(plan_file: Path, work: Path) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        probe = Worker(plan_file, work, setup_only=True)
        probe.close()
        times.append(probe.setup_s)
    return times


def end_to_end(plan, plan_file, work, seconds, tally) -> dict:
    setups = setup_times(plan_file, work)
    worker, walls, final = drive(plan, plan_file, work, seconds, tally)
    setups.append(worker.setup_s)
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": final["peak_rss_mb"], "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def per_layer(plan, plan_file, work, seconds, tally) -> dict:
    spans_file = work / "spans.json"
    _, walls, _ = drive(plan, plan_file, work, seconds, tally, spans_file)
    record = json.loads(spans_file.read_text())
    rounds = len(walls)
    metrics = {
        name: {"value": value, "unit": "count" if name.endswith(".calls") else "s"}
        for name, value in spans.summarize(record["spans"], rounds).items()
    }
    metrics["csvio.write_csv.rows"] = {"value": tally.csv_rows / rounds, "unit": "count"}
    metrics["csvio.write_csv.bytes"] = {"value": tally.csv_bytes / rounds, "unit": "count"}
    # spans per round times the cost of one wrapper: the difference of traced
    # and untraced round times is far below the noise between rounds
    overhead = len(record["spans"]) / rounds * record["wrapper_s"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def report(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="wickbell benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "wickbell" / "cli.py").is_file():
        print(f"no wickbell sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    plan = workloads.plan_for(args.workload, args.seed)
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    plan_file = work / "plan.json"
    plan_file.write_text(json.dumps(plan))
    tally = Tally()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(plan, plan_file, work, args.seconds, tally)
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(report(tally, metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
