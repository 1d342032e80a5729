#!/usr/bin/env python3
"""Regenerate perfbench/reference/*.json from the holdfix sources in src/.

    python3 perfbench/make_reference.py [headline] [design] [signal]

Run it only on a commit whose outputs are trusted: every benchmark run is
checked against these files. With no arguments all three are rebuilt.
- headline.json: each headline CSV's row keys and trials column, and the
  mean output SNR of every row for every master seed a run can use.
- design.json: for every grid config, the replica-sum error of the weights
  `holdfix solve` stores, evaluated by workload.ReplicaCheck.
- signal.json: the output SNR of every signal pool entry, clamped at 300 dB.
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import workload as wl  # noqa: E402

ROOT = wl.REFERENCE_DIR.parent.parent
SCRATCH = ROOT / ".perfbench" / "make-reference"


def headline(hf) -> dict:
    rows, means, header = {}, {}, None
    for index in range(wl.HEADLINE_MASTERS):
        master = wl.headline_master(0, index)
        means[str(master)] = {}
        for name, sweep, spec in wl.headline_experiments(hf, master):
            path = SCRATCH / f"{name}.csv"
            hf.bench.write_csv(getattr(hf.bench, sweep)(spec), path)
            header, found = wl.read_csv_rows(path)
            keys = [row[:3] + [row[5]] for row in found]
            if rows.setdefault(name, keys) != keys:
                raise SystemExit(f"{name}: row keys differ at master {master}")
            means[str(master)][name] = [float(row[3]) for row in found]
        print(f"headline master {master} done", file=sys.stderr)
    return {"header": header, "rows": rows, "means": means}


def design(hf) -> dict:
    check = wl.ReplicaCheck(wl.DESIGN_N)
    residual = {}
    for kernel_id, period, modules in wl.design_grid():
        path = SCRATCH / "coeffs.json"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = hf.cli.main(["solve", "--kernel", kernel_id, "--period", str(period),
                                "--modules", str(modules), "--length", str(wl.DESIGN_N),
                                "--out", str(path)])
        if code != 0:
            raise SystemExit(f"holdfix solve failed for {kernel_id} {period} {modules}")
        coeffs = json.loads(path.read_text())["coefficients"]
        value, _ = check.residual(kernel_id, period, wl.np.array(coeffs, dtype=float))
        residual[wl.config_key(kernel_id, period, modules)] = value
    return {"N": wl.DESIGN_N, "residual": residual}


def signal(hf) -> dict:
    runner = wl.SignalWorkload(hf, 0, SCRATCH, {})
    runner.setup()
    snrs = []
    for p in range(wl.SIGNAL_POOL):
        clean = hf.signals.gen_bandlimited(wl.SIGNAL_N, runner.band, 1.0, p)
        snr = runner.restore(clean, wl.SIGNAL_CYCLE[p % len(wl.SIGNAL_CYCLE)])
        snrs.append(min(300.0, snr))
        if p % 500 == 0:
            print(f"signal entry {p} done", file=sys.stderr)
    return {"N": wl.SIGNAL_N, "T": wl.SIGNAL_T, "cycle": list(wl.SIGNAL_CYCLE), "snr_db": snrs}


def main() -> int:
    builders = {"headline": headline, "design": design, "signal": signal}
    names = sys.argv[1:] or list(builders)
    unknown = sorted(set(names) - set(builders))
    if unknown:
        raise SystemExit(f"unknown reference {unknown}; choose from {sorted(builders)}")
    hf = wl.import_holdfix(ROOT)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            data = builders[name](hf)
            (wl.REFERENCE_DIR / f"{name}.json").write_text(json.dumps(data, separators=(",", ":")) + "\n")
            print(f"wrote {wl.REFERENCE_DIR / (name + '.json')}", file=sys.stderr)
    finally:
        shutil.rmtree(SCRATCH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
