"""Run one benchmark workload in this process and print its result as JSON.

Started by run.py, once per measurement, in a fresh single-threaded process:

    python3 perfbench/workload.py --root ROOT --workload NAME --seed S
        --mode setup|timed|fixed --seconds SECS --trace 0|1 --t0 MONOTONIC

`setup` stops before the first op and reports only the set-up time; `timed`
runs units until their summed time reaches SECS; `fixed` runs a fixed number
of units, so traced counts repeat exactly. `--t0` is the parent's
time.monotonic() just before it started this process; set-up time runs from
there to the first timed op, less the time this file spends loading its own
reference data.

Units and ops: a headline unit builds the three headline CSVs (5000 trial
ops); a design unit is one config op; a signal unit is one signal op. Every
op's output is checked against reference/ outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
EPS = float(np.finfo(float).eps)
FLOOR_DB = 250.0
MEAN_TOL_DB = 1e-6

# headline: the three CSVs of scripts/run_benchmarks.py at its defaults.
HEADLINE_N, HEADLINE_T, HEADLINE_K, HEADLINE_TRIALS = 2048, 16, 63, 100
# Master seeds are 0, 100, ..., 6300: with 100 trials each, no two builds
# share a trial seed, so repeated builds in one process never repeat inputs.
HEADLINE_MASTERS = 64
HEADLINE_STRIDE = 100

# design: `holdfix solve` over a kernel x period x module-count grid.
DESIGN_N = 65536
DESIGN_KERNELS = ("sh", "li", "hold:2", "hold:3")
DESIGN_PERIODS = (8, 16, 32, 64)
DESIGN_RESIDUAL_SLACK = 16.0  # multiples of the backward-error scale gamma

# signal: long signals one at a time through the time-domain pipeline.
SIGNAL_N, SIGNAL_T, SIGNAL_GUARD = 1 << 17, 32, 0.10
SIGNAL_POOL = 4500            # distinct input seeds with a stored reference SNR
SIGNAL_BATCH = 15             # inputs generated (untimed) ahead of their ops
SIGNAL_CYCLE = ("li", "li", "hold:2")  # pool entry p uses SIGNAL_CYCLE[p % 3]

WALL_LIMIT_S = 150.0


def import_holdfix(root: Path):
    """Import holdfix from ROOT/src and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import holdfix
    import holdfix.bench
    import holdfix.cli
    import holdfix.kernels
    import holdfix.modular
    import holdfix.optimizer
    import holdfix.signals

    if Path(holdfix.__file__).resolve().parent != src / "holdfix":
        raise SystemExit(f"holdfix imported from {holdfix.__file__}, not {src}")
    return holdfix


def snr_matches(reference: float, value: float, tol_db: float = MEAN_TOL_DB) -> bool:
    """The golden rule: within tol_db below the floor, both at or above it otherwise."""
    if reference >= FLOOR_DB:
        return value >= FLOOR_DB
    return math.isfinite(value) and round(abs(value - reference), 9) <= tol_db


@dataclass
class Step:
    seconds: float
    ops: int
    checked: int
    failed: int = 0
    key: str | None = None  # groups the repeats of one config
    parts: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def lower_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


# --- headline -----------------------------------------------------------------

def headline_master(seed: int, unit: int) -> int:
    return HEADLINE_STRIDE * ((seed + unit) % HEADLINE_MASTERS)


def headline_experiments(hf, master: int):
    """(csv name, sweep function name, spec) exactly as scripts/run_benchmarks.py builds them."""
    base = dict(period=HEADLINE_T, n=HEADLINE_N, k_sig=hf.signals.Passband(HEADLINE_K),
                methods=("classical", "optimized"), trials=HEADLINE_TRIALS, master_seed=master)
    out = []
    for kernel_id in ("sh", "li"):
        spec = hf.bench.SweepSpec(kernel_id=kernel_id, modules=tuple(range(1, 9)), **base)
        out.append((f"modules_{kernel_id}", "run_module_sweep", spec))
    spec = hf.bench.SweepSpec(kernel_id="sh", modules=(5,),
                              noise_snrs_db=tuple(float(s) for s in range(0, 90, 10)), **base)
    out.append(("noise_sh", "run_noise_sweep", spec))
    return out


def read_csv_rows(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class HeadlineWorkload:
    array_bytes = HEADLINE_N * 8
    fixed_units = 1
    max_units = sys.maxsize

    def __init__(self, hf, seed: int, work: Path, reference: dict):
        self.hf, self.seed, self.work = hf, seed, work
        self.ref = reference

    def setup(self):
        pass

    def step(self, unit: int) -> Step:
        master = headline_master(self.seed, unit)
        paths, parts, errors = {}, {}, []
        total = 0.0
        for name, sweep, spec in headline_experiments(self.hf, master):
            path = self.work / f"{name}.csv"
            start = time.perf_counter()
            try:
                self.hf.bench.write_csv(getattr(self.hf.bench, sweep)(spec), path)
                paths[name] = path
            except Exception as exc:
                errors.append(f"{name}: {exc!r}")
            parts[f"csv_{name}_s"] = time.perf_counter() - start
            total += parts[f"csv_{name}_s"]
        checked = failed = 0
        means = self.ref["means"][str(master)]
        for name, keys in self.ref["rows"].items():
            checked += len(keys)
            if name not in paths:
                failed += len(keys)
                continue
            bad = self.check_csv(paths[name], keys, means[name])
            failed += bad
            if bad:
                errors.append(f"{name} master {master}: {bad} rows differ from the reference")
        return Step(total, HEADLINE_TRIALS * checked, checked, failed, parts=parts, errors=errors)

    def check_csv(self, path: Path, keys, means) -> int:
        header, rows = read_csv_rows(path)
        if header != self.ref["header"]:
            return len(keys)
        bad = abs(len(rows) - len(keys))
        for row, key, mean in zip(rows, keys, means):
            ok = len(row) == 6 and row[:3] == key[:3] and row[5] == key[3]
            bad += not (ok and snr_matches(mean, float(row[3])))
        return bad


# --- design -------------------------------------------------------------------

def design_grid() -> list[tuple[str, int, int]]:
    return [(k, t, m) for k in DESIGN_KERNELS for t in DESIGN_PERIODS for m in range(1, t // 2 + 1)]


def config_key(kernel_id: str, period: int, modules: int) -> str:
    return f"{kernel_id}/{period}/{modules}"


def hold_taps(kernel_id: str, period: int) -> tuple[np.ndarray, int]:
    """Taps and origin of sh, li and hold:<n>, written independently of holdfix."""
    if kernel_id == "sh":
        return np.ones(period), 0
    order = 1 if kernel_id == "li" else int(kernel_id.split(":")[1])
    taps = np.ones(period)
    for _ in range(order):
        taps = np.convolve(taps, np.ones(period))
    taps = taps / float(period) ** order
    return taps, (taps.size - 1) // 2


class ReplicaCheck:
    """Replica-sum error of given weights, evaluated independently of holdfix.

    e(k) = H(k)/T - 1 + sum_j c_j (H(k - jN/T) + H(k + jN/T))/T over
    k = -K..K, residual = sum |e(k)|^2. Any backward-stable least-squares
    solve meets ||e|| <= ||e_opt|| + O(eps) (||A|| ||c|| + ||b||), whatever
    the conditioning, so gamma = eps (||A||_F ||c|| + ||b||) scales the
    tolerance of both residual checks.
    """

    def __init__(self, n: int):
        self.tables = {}
        for kernel_id in DESIGN_KERNELS:
            for period in DESIGN_PERIODS:
                taps, origin = hold_taps(kernel_id, period)
                padded = np.zeros(n)
                padded[(np.arange(taps.size) - origin) % n] = taps
                h = np.fft.fft(padded) / period
                bins = np.arange(-(n // (2 * period) - 1), n // (2 * period))
                shift = n // period
                cols = np.stack([h[(bins - j * shift) % n] + h[(bins + j * shift) % n]
                                 for j in range(1, period // 2 + 1)], axis=1)
                target = 1.0 - h[bins % n]
                col_norm2 = np.cumsum(np.sum(np.abs(cols) ** 2, axis=0))
                self.tables[kernel_id, period] = (cols, target, col_norm2, float(np.linalg.norm(target)))

    def residual(self, kernel_id: str, period: int, coeffs: np.ndarray) -> tuple[float, float]:
        """(residual, gamma) for weights c_1..c_M."""
        cols, target, col_norm2, target_norm = self.tables[kernel_id, period]
        m = coeffs.size
        error = cols[:, :m] @ coeffs - target
        gamma = EPS * (math.sqrt(col_norm2[m - 1]) * float(np.linalg.norm(coeffs)) + target_norm)
        return float(np.vdot(error, error).real), gamma


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


class DesignWorkload:
    array_bytes = DESIGN_N * 16
    fixed_units = len(design_grid())
    max_units = sys.maxsize

    def __init__(self, hf, seed: int, work: Path, reference: dict):
        self.hf, self.seed, self.work = hf, seed, work
        self.grid = design_grid()
        self.ref = reference["residual"]
        self.check = ReplicaCheck(DESIGN_N)
        self.order: list[int] = []
        self.sink = _Discard()

    def setup(self):
        pass

    def config(self, unit: int) -> tuple[str, int, int]:
        cycle, pos = divmod(unit, len(self.grid))
        if pos == 0:
            self.order = np.random.default_rng([self.seed, cycle]).permutation(len(self.grid)).tolist()
        return self.grid[self.order[pos]]

    def step(self, unit: int) -> Step:
        kernel_id, period, modules = self.config(unit)
        path = self.work / f"{kernel_id.replace(':', '')}-{period}-{modules}.json"
        argv = ["solve", "--kernel", kernel_id, "--period", str(period), "--modules", str(modules),
                "--length", str(DESIGN_N), "--out", str(path)]
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(err):
                code = self.hf.cli.main(argv)
            solution = self.hf.optimizer.load_coeffs(path) if code == 0 else None
        except Exception as exc:
            code, solution = None, None
            err.write(repr(exc))
        seconds = time.perf_counter() - start
        key = config_key(kernel_id, period, modules)
        if solution is None:
            problem = f"exit {code}: {err.getvalue().strip()}"
        else:
            try:
                problem = self.problem(key, path, solution)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                problem = f"unreadable result: {exc!r}"
        return Step(seconds, 1, 1, int(bool(problem)), key, errors=[f"{key}: {problem}"] if problem else [])

    def problem(self, key: str, path: Path, solution) -> str:
        kernel_id, period, modules = key.split("/")
        period, modules = int(period), int(modules)
        data = json.loads(path.read_text())
        expect = {"kernel_id": kernel_id, "T": period, "N": DESIGN_N,
                  "K": DESIGN_N // (2 * period) - 1, "M": modules}
        if any(data.get(k) != v for k, v in expect.items()):
            return f"file fields {[data.get(k) for k in expect]} != {list(expect.values())}"
        stored = np.array(data["coefficients"] + [data["residual"]], dtype=float)
        loaded = np.array(list(solution.coeffs.c) + [solution.residual], dtype=float)
        if stored.size != modules + 1 or not np.all(np.isfinite(stored)):
            return "coefficients missing or not finite"
        if loaded.shape != stored.shape or not np.array_equal(loaded.view(np.int64), stored.view(np.int64)):
            return "loaded values are not bit-equal to the file"
        residual, gamma = self.check.residual(kernel_id, period, stored[:-1])
        slack = DESIGN_RESIDUAL_SLACK * gamma
        if math.sqrt(residual) > math.sqrt(self.ref[key]) + slack:
            return f"residual {residual!r} worse than reference {self.ref[key]!r}"
        if abs(math.sqrt(residual) - math.sqrt(max(stored[-1], 0.0))) > slack:
            return f"stored residual {stored[-1]!r} but the weights give {residual!r}"
        return ""


# --- signal -------------------------------------------------------------------

def signal_entry(seed: int, unit: int) -> int:
    return (3 * seed + unit) % SIGNAL_POOL


def bank_peak(coeffs) -> float:
    """Upper bound on |1 + sum_j 2 c_j cos(.)|, the mixing bank's amplitude."""
    return 1.0 + 2.0 * float(np.sum(np.abs(coeffs)))


class SignalWorkload:
    array_bytes = SIGNAL_N * 8
    fixed_units = 6 * SIGNAL_BATCH
    max_units = SIGNAL_POOL  # no input repeats within a run

    def __init__(self, hf, seed: int, work: Path, reference: dict):
        self.hf, self.seed = hf, seed
        self.ref = reference.get("snr_db")
        self.inputs: dict[int, object] = {}

    def setup(self):
        hf = self.hf
        self.band = hf.signals.Passband(SIGNAL_N // (2 * SIGNAL_T) - 1)
        self.kernels = {k: hf.kernels.kernel_from_id(k, SIGNAL_T) for k in set(SIGNAL_CYCLE)}
        system = hf.optimizer.assemble_system(self.kernels["hold:2"], SIGNAL_N, SIGNAL_T // 2, self.band)
        self.coeffs = {"li": hf.modular.comb_coeffs(SIGNAL_T),
                       "hold:2": hf.optimizer.solve_coefficients(system).coeffs}
        self.peaks = {k: bank_peak(c.c) for k, c in self.coeffs.items()}
        self.generate(0)

    def generate(self, unit: int):
        self.inputs = {}
        for u in range(unit, unit + SIGNAL_BATCH):
            p = signal_entry(self.seed, u)
            self.inputs[u] = self.hf.signals.gen_bandlimited(SIGNAL_N, self.band, 1.0, p)

    def restore(self, clean, kernel_id: str) -> float:
        """The op: sample, interpolate, reconstruct; return the output SNR."""
        hf = self.hf
        train = hf.signals.sample_train(clean, SIGNAL_T)
        held = hf.kernels.interpolate(train, self.kernels[kernel_id])
        restored = hf.modular.reconstruct(held, self.coeffs[kernel_id], self.band)
        return hf.signals.snr_db(clean, restored, SIGNAL_GUARD)

    def step(self, unit: int) -> Step:
        if unit not in self.inputs:
            self.generate(unit)
        clean = self.inputs.pop(unit)
        p = signal_entry(self.seed, unit)
        kernel_id = SIGNAL_CYCLE[p % len(SIGNAL_CYCLE)]
        start = time.perf_counter()
        try:
            snr = self.restore(clean, kernel_id)
        except Exception as exc:
            return Step(time.perf_counter() - start, 1, 1, 1, errors=[f"signal {p}: {exc!r}"])
        seconds = time.perf_counter() - start
        reference = self.ref[p]
        # Rounding inside the mixing bank perturbs the error by about
        # eps * peak relative to the signal; allow the dB shift that causes.
        tol = MEAN_TOL_DB + 20.0 * math.log10(1.0 + EPS * self.peaks[kernel_id] * 10.0 ** (reference / 20.0))
        if snr_matches(reference, snr, tol):
            return Step(seconds, 1, 1)
        return Step(seconds, 1, 1, 1, errors=[f"signal {p} ({kernel_id}): snr {snr!r}, reference {reference!r}"])


WORKLOADS = {"headline": HeadlineWorkload, "design": DesignWorkload, "signal": SignalWorkload}


# --- driver loop ----------------------------------------------------------------

def run(args) -> dict:
    root = Path(args.root)
    hf = import_holdfix(root)
    work = root / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        prep_start = time.monotonic()
        workload = WORKLOADS[args.workload](hf, args.seed, work, load_reference(args.workload))
        prep_s = time.monotonic() - prep_start
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        workload.setup()
        setup_s = time.monotonic() - args.t0 - prep_s
        result = {"setup_s": setup_s, "python": sys.version.split()[0], "numpy": np.__version__,
                  "array_bytes": workload.array_bytes}
        if args.mode == "setup":
            return result
        units = workload.fixed_units if args.mode == "fixed" else None
        wall_start = time.monotonic()
        measured = 0.0
        ops = checked = failed = 0
        parts, errors = {}, []
        repeats: dict[object, list[float]] = {}
        unit = 0
        while (unit < units) if units is not None else (
            measured < args.seconds and time.monotonic() - args.t0 < WALL_LIMIT_S
            and unit < workload.max_units
        ):
            if tracer is not None:
                tracer.op = unit
            step = workload.step(unit)
            measured += step.seconds
            ops += step.ops
            checked += step.checked
            failed += step.failed
            repeats.setdefault(step.key or unit, []).append(step.seconds)
            for name, value in step.parts.items():
                parts.setdefault(name, []).append(value)
            errors.extend(step.errors[: max(0, 10 - len(errors))])
            unit += 1
        # Throughput is all ops over all measured time: on a shared host whose
        # speed drifts within a run, the whole-run ratio is the steadiest
        # estimate. A design config recurs about twenty times; its latency is
        # the lower quartile of its repeats, since contention from other
        # tenants only adds time.
        latency = {key: lower_quartile(times) for key, times in repeats.items()}
        result.update(
            units=unit, ops=ops, checked=checked, failed=failed, measured_s=measured,
            ops_per_s=ops / measured, latencies_s=list(latency.values()),
            wall_s=time.monotonic() - wall_start, parts=parts,
            errors=errors, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["layers"] = tracer.summary()
            trace_path = root / ".perfbench" / f"spans-{args.workload}.json"
            trace_path.write_text(json.dumps(tracer.dump()))
        return result
    finally:
        for path in work.iterdir():
            path.unlink()
        work.rmdir()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "fixed"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    result = run(parser.parse_args())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
