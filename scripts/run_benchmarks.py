#!/usr/bin/env python3
"""Produce the three headline experiment CSVs.

Runs three bare `holdfix` sweeps, whose flag defaults are the headline setup
(length 2048, period 16, passband 63, classical and optimized weights): the
clean-signal module-count sweeps over 1..8 modules for the sample-and-hold and
linear interpolators, and the noise-robustness sweep over 0..80 dB for
sample-and-hold at five modules. Writes one CSV per experiment into --outdir.

Exits with the first non-zero `holdfix` exit code and writes no later CSV, so
a bad --trials or --seed exits 2 naming the flag; exits 1 when --outdir
cannot be created.
"""

import argparse
import sys
from pathlib import Path

from holdfix import cli

# (CSV file name, holdfix arguments) of each headline experiment.
EXPERIMENTS = (
    ("modules-sh.csv", ("sweep-modules", "--kernel", "sh")),
    ("modules-li.csv", ("sweep-modules", "--kernel", "li")),
    ("noise-sh.csv", ("sweep-noise", "--kernel", "sh")),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        args.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: --outdir: {exc}", file=sys.stderr)
        return 1

    for name, command in EXPERIMENTS:
        code = cli.main([*command, "--trials", str(args.trials), "--seed", str(args.seed),
                         "--out", str(args.outdir / name)])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
