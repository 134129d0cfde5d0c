#!/usr/bin/env python3
"""Run every catalog experiment with default parameters.

Each experiment writes its CSV outputs and a manifest into its own
subdirectory of --out. Overrides apply to every experiment that accepts the
given key; keys unknown to an experiment are skipped rather than rejected, so
`--set n_samples=6` shortens only the schedules of `negativity-decay` and
`chsh-decay`.
"""

from __future__ import annotations

import argparse
import sys
import time

from wickbell.cli import EXPERIMENTS, entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only this experiment (repeatable)",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="parameter override, applied where the key exists",
    )
    args = parser.parse_args()

    names = args.only if args.only else list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    failures = []
    for name in names:
        valid_keys = set(EXPERIMENTS[name].schema)
        argv = ["run", name, "--out", f"{args.out}/{name}"]
        for override in args.overrides:
            key = override.split("=", 1)[0]
            if key in valid_keys:
                argv += ["--set", override]
        print(f"=== {name}: {EXPERIMENTS[name].summary}", flush=True)
        started = time.perf_counter()
        code = entry(argv)
        elapsed = time.perf_counter() - started
        if code == 0:
            print(f"=== {name}: done in {elapsed:.1f}s\n", flush=True)
        else:
            failures.append(name)
            print(f"=== {name}: FAILED (exit {code})\n", file=sys.stderr, flush=True)

    if failures:
        print(f"failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"all {len(names)} experiments completed under {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
