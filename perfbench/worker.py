"""One workload's own process: set up, then run rounds when told to.

Started by run.py with the BLAS thread count pinned in its environment. It
imports wickbell from the checkout's `src/`, validates every configuration
of the plan with `cli.build_config`, and prints a `ready` line. That is the
end of set-up. Each `round` line on stdin then runs the plan's experiments
once, through `cli.entry` with an explicit `--out`, and answers with the
round's timed seconds and each run's exit code and output directory. A
`stop` line (or end of input) makes it report its own peak RSS and, when
traced, write its spans and the measured cost of one wrapper to a JSON file.

The protocol uses the real stdout; what the CLI prints goes to a buffer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _argv(item: dict, outdir: Path) -> list[str]:
    argv = ["run", item["experiment"]]
    for key, value in item["overrides"].items():
        argv += ["--set", f"{key}={value}"]
    return argv + ["--out", str(outdir)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True, help="JSON list of experiment runs")
    parser.add_argument("--work", required=True, help="directory for round outputs")
    parser.add_argument("--spans", help="trace the run and write spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from wickbell import cli

    plan = json.loads(Path(args.plan).read_text())
    for item in plan:
        cli.build_config(item["experiment"], dict(item["overrides"]))
    recorder = None
    if args.spans:
        import spans  # the script's own directory is first on sys.path

        recorder = spans.Recorder()
        spans.install(recorder)

    protocol = sys.stdout
    print(json.dumps({"ready": True}), file=protocol, flush=True)
    if args.setup_only:
        return 0

    work = Path(args.work)
    index = 0
    while sys.stdin.readline().strip() == "round":
        round_dir = work / f"round{index:03d}"
        runs = []
        seconds = 0.0
        for position, item in enumerate(plan):
            outdir = round_dir / f"{position:02d}-{item['experiment']}"
            argv = _argv(item, outdir)
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.entry(argv)
            except Exception:  # a crash is a failed run, not a failed benchmark
                traceback.print_exc()
                code = 1
            seconds += time.perf_counter() - started
            runs.append({"code": code, "out": str(outdir)})
        print(json.dumps({"wall_s": seconds, "runs": runs}), file=protocol, flush=True)
        index += 1

    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        record = {"spans": recorder.spans, "wrapper_s": spans.wrapper_cost()}
        Path(args.spans).write_text(json.dumps(record))
    print(json.dumps({"peak_rss_mb": peak_mib}), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
