#!/usr/bin/env python3
"""holdfix benchmark: time one workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload headline|design|signal|all \
        --seed N --seconds S --trace 0|1

Every measurement runs in a fresh single-threaded process started from here
(perfbench/workload.py), importing holdfix from src/ of the checkout that holds
this file. With --trace 0 the workload runs for S seconds of measured time,
after SETUP_REPEATS set-up-only processes; it reports the end-to-end metrics.
With --trace 1 a fixed amount of work runs TRACE_PAIRS times untraced and as
often traced, alternating, each in its own process; it reports per-layer
metrics from the first traced run and the tracing overhead.

Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("headline", "design", "signal")
SETUP_REPEATS = 5
TRACE_PAIRS = 3
DEADLINE_S = 175.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
CSV_PARTS = ("csv_modules_sh_s", "csv_modules_li_s", "csv_noise_sh_s")
OP_NAMES = {"headline": ("trial", "build", "row"), "design": ("config", "config (lower quartile of its repeats)", "config"),
            "signal": ("signal", "signal", "signal")}


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, seconds: int, trace: int, deadline: float) -> dict:
    """Run workload.py in a fresh process and return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a measurement")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "workload.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds), "--trace", str(trace),
           "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} run exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} run exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} {mode} run printed no result:\n{proc.stderr[-2000:]}") from None


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, linearly interpolated (numpy's default rule)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed(workload: str, seed: int, seconds: int, deadline: float, out: list[str]) -> tuple[dict, dict]:
    setups = [spawn(workload, seed, "setup", seconds, 0, deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
    res = spawn(workload, seed, "timed", seconds, 0, deadline)
    setups.append(res["setup_s"])
    latencies_ms = [1e3 * s for s in res["latencies_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["ops_per_s"],
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    op, unit, output = OP_NAMES[workload]
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{res['ops']} {op}s in {res['measured_s']:.3f} s measured, {res['wall_s']:.3f} s wall",
        "latency_p50_ms": f"per {unit}, n={len(latencies_ms)}",
        "latency_p90_ms": f"per {unit}, n={len(latencies_ms)}",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    for name, value in metrics.items():
        out.append(f"{workload} {name} {value:.6g} {END_TO_END_UNITS[name]}  ({notes[name]})")
    for name in CSV_PARTS:
        if name in res["parts"]:
            out.append(f"{workload} {name} {statistics.median(res['parts'][name]):.6g} s  "
                       f"(median of {len(res['parts'][name])} builds)")
    out.append(f"{workload} failed_frac {res['failed'] / res['checked']:.6g}  "
               f"({res['failed']}/{res['checked']} {output}s checked)")
    out.extend(f"{workload} error: {e}" for e in res["errors"])
    return metrics, res


def traced(workload: str, seed: int, seconds: int, deadline: float, out: list[str]) -> tuple[dict, dict]:
    # Untraced/traced pairs run back to back, so host drift between the two
    # halves of a pair stays small; the overhead is the median pair ratio.
    pairs = [(spawn(workload, seed, "fixed", seconds, 0, deadline),
              spawn(workload, seed, "fixed", seconds, 1, deadline)) for _ in range(TRACE_PAIRS)]
    plain, res = pairs[0]
    metrics = dict(res["layers"])
    metrics["trace.untraced_s"] = statistics.median(p["measured_s"] for p, _ in pairs)
    metrics["trace.traced_s"] = statistics.median(t["measured_s"] for _, t in pairs)
    metrics["trace.overhead_frac"] = statistics.median(t["measured_s"] / p["measured_s"] for p, t in pairs) - 1.0
    for name in CSV_PARTS:
        metrics[f"headline.{name}"] = statistics.median(p["parts"].get(name, [0.0])[0] for p, _ in pairs)
    counts = [{k: v for k, v in t["layers"].items() if not k.endswith("_s")} for _, t in pairs]
    for name, value in metrics.items():
        out.append(f"{workload} {name} {value:.6g}")
    out.append(f"{workload} counts identical across {TRACE_PAIRS} traced runs: "
               f"{all(c == counts[0] for c in counts)}")
    runs = [r for pair in pairs for r in pair]
    out.extend(f"{workload} error: {e}" for r in runs for e in r["errors"])
    res = dict(res, checked=sum(r["checked"] for r in runs), failed=sum(r["failed"] for r in runs))
    return metrics, res


def cpu_info() -> dict:
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "2":
                info["l2_per_core"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "holdfix" / "__init__.py").is_file():
        print(f"error: no holdfix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    measure = traced if args.trace else timed
    lines, metrics, provenance = [], {}, cpu_info()
    attempted = failed = 0
    try:
        for name in names:
            found, res = measure(name, args.seed, args.seconds, deadline, lines)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in found.items()})
            attempted += res["checked"]
            failed += res["failed"]
            provenance.update(python=res["python"], numpy=res["numpy"])
            provenance[f"{name}_array_bytes"] = res["array_bytes"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def metric_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix in END_TO_END_UNITS:
        return END_TO_END_UNITS[suffix]
    if suffix.endswith("_s"):
        return "s"
    if suffix in ("repeat_share", "overhead_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
