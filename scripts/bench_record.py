#!/usr/bin/env python3
"""Record one timed and one traced benchmark run of this checkout in one file.

    python3 scripts/bench_record.py --pr N [--seed 0] [--seconds 35]
    python3 scripts/bench_record.py --seconds 1 --out BENCH_ci.json

Runs `python3 perfbench/run.py --workload all --seed S --seconds T` with
`--trace 0` and then `--trace 1`, and writes BENCH_<pr>.json (or --out) at
the root of the checkout: for each run its command, exit status, provenance
line and final JSON object, plus the seed, the seconds and `git rev-parse
HEAD`. The file is written either way; the exit status is 1 when a run exits
non-zero, prints no final JSON object, or reports "correct" other than true.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(stdout: str) -> tuple[dict | None, dict | None]:
    """(final JSON object, provenance object) of run.py's stdout, each None
    when its line is missing or is not a JSON object."""
    lines = stdout.strip().splitlines()

    def as_object(text):
        try:
            value = json.loads(text)
        except ValueError:
            return None
        return value if isinstance(value, dict) else None

    result = as_object(lines[-1]) if lines else None
    provenance = next(
        (as_object(line[len("provenance "):]) for line in lines if line.startswith("provenance ")),
        None,
    )
    return result, provenance


def build_record(runs, *, seed: int, seconds: int, head: str | None) -> tuple[dict, list[str]]:
    """The record of `runs`, (trace, command, exit status, stdout) each, and
    the reasons it fails, one per failing run, empty when every run passed."""
    record = {"head": head, "seed": seed, "seconds": seconds, "runs": []}
    problems = []
    for trace, command, returncode, stdout in runs:
        result, provenance = parse_run(stdout)
        record["runs"].append({"trace": trace, "command": command, "returncode": returncode,
                               "provenance": provenance, "result": result})
        if returncode != 0:
            problems.append(f"--trace {trace} run exited {returncode}")
        elif result is None:
            problems.append(f"--trace {trace} run printed no final JSON object")
        elif result.get("correct") is not True:
            problems.append(f"--trace {trace} run reports correct = {result.get('correct')!r}")
    return record, problems


def git_head() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, help="write BENCH_<pr>.json at the checkout root")
    parser.add_argument("--out", type=Path, help="write here instead")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    args = parser.parse_args()
    if args.out is None and args.pr is None:
        parser.error("give --pr or --out")
    out = args.out or ROOT / f"BENCH_{args.pr}.json"

    runs = []
    for trace in (0, 1):
        command = ["python3", "perfbench/run.py", "--workload", "all", "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
        print("$ " + " ".join(command), file=sys.stderr, flush=True)
        proc = subprocess.run([sys.executable, *command[1:]], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        sys.stderr.write(proc.stdout)
        runs.append((trace, command, proc.returncode, proc.stdout))
    record, problems = build_record(runs, seed=args.seed, seconds=args.seconds, head=git_head())
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
