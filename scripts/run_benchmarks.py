#!/usr/bin/env python3
"""Produce the three headline experiment CSVs.

Runs the clean-signal module-count sweeps for the sample-and-hold and linear
interpolators, plus the noise-robustness sweep for sample-and-hold at five
modules, and writes one CSV per experiment into --outdir.
"""

import argparse
from pathlib import Path

from holdfix.bench import SweepSpec, run_module_sweep, run_noise_sweep, write_csv
from holdfix.signals import Passband


def experiments(trials: int = 100, seed: int = 0):
    """(CSV file name, sweep function, spec) of each headline experiment."""
    base = dict(period=16, n=2048, k_sig=Passband(63),
                methods=("classical", "optimized"), trials=trials,
                master_seed=seed)
    out = [
        (f"modules-{kernel_id}.csv", run_module_sweep,
         SweepSpec(kernel_id=kernel_id, modules=tuple(range(1, 9)), **base))
        for kernel_id in ("sh", "li")
    ]
    noise_spec = SweepSpec(kernel_id="sh", modules=(5,),
                           noise_snrs_db=tuple(float(s) for s in range(0, 90, 10)),
                           **base)
    out.append(("noise-sh.csv", run_noise_sweep, noise_spec))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for name, sweep, spec in experiments(args.trials, args.seed):
        path = args.outdir / name
        write_csv(sweep(spec), path)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
